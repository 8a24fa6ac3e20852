package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"coevo/internal/corpus"
	"coevo/internal/report"
	"coevo/internal/study"
)

// workersLabel names the effective pool size for the startup banner.
func workersLabel(workers int) string {
	if workers <= 0 {
		return "workers=GOMAXPROCS"
	}
	return fmt.Sprintf("workers=%d", workers)
}

// renderStudySections prints the text sections to stdout and optionally
// writes every section (text and SVG) into outDir. The sections
// themselves come from the shared report.StudySections path, so the CLI
// and the job service render byte-identical figures.
func renderStudySections(a *report.StudyArtifacts, outDir string) error {
	for _, s := range report.StudySections(a) {
		if !strings.HasSuffix(s.Name, ".svg") {
			if err := s.Write(os.Stdout); err != nil {
				return err
			}
			fmt.Println()
		}
		if outDir != "" {
			if err := writeFile(filepath.Join(outDir, s.Name), s.Write); err != nil {
				return err
			}
		}
	}
	return nil
}

// runStudy executes the full pipeline and renders every evaluation
// artifact, optionally writing the per-project CSV data set. Generation
// and analysis run fused in one stream, so peak memory stays O(workers)
// projects: figures accumulate online and the CSV is written row by row,
// so no per-project result outlives its turn through the sinks.
func runStudy(ctx context.Context, args []string) (err error) {
	fs := newFlagSet("study")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	csvPath := fs.String("csv", "", "write the per-project data set to this CSV file")
	outDir := fs.String("out", "", "also write each figure to a file in this directory")
	perTaxon := fs.Int("per-taxon", 0, "override the per-taxon project count (0 = the paper's 195-project corpus)")
	shards := fs.Int("shards", 0, "scale the study across this many worker processes (0 = single process); output is byte-identical to the unsharded run")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated base URLs of running `coevo shard serve` workers, one per shard (default: spawn local workers)")
	dialect := dialectFlag(fs)
	buildPipeline := pipelineFlags(fs)
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	dial, err := resolveDialect(*dialect)
	if err != nil {
		return err
	}
	if *shardAddrs != "" && *shards == 0 {
		*shards = strings.Count(*shardAddrs, ",") + 1
	}
	if *shards < 0 {
		return fmt.Errorf("-shards %d: want a positive shard count", *shards)
	}
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	defer func() { err = p.finish(ctx, err) }()

	if *shards > 0 {
		fmt.Fprintf(os.Stderr, "generating and analyzing the corpus (seed %d, %s, %d shards)...\n",
			*seed, workersLabel(p.exec.Workers), *shards)
		return coordinateStudy(ctx, p, *seed, *perTaxon, *dialect, *shards, *shardAddrs, *csvPath, *outDir)
	}

	opts := study.DefaultOptions()
	opts.Exec = p.exec
	opts.Cache = p.cache
	opts.Obs = p.obs
	opts.History.Dialect = dial
	cfg := corpus.DefaultConfig(*seed)
	if *perTaxon > 0 {
		for i := range cfg.Profiles {
			cfg.Profiles[i].Count = *perTaxon
		}
	}
	cfg.Obs = p.obs
	src := corpus.NewSource(cfg)
	fmt.Fprintf(os.Stderr, "generating and analyzing the %d-project corpus (seed %d, %s)...\n",
		src.Len(), *seed, workersLabel(opts.Exec.Workers))

	figs := study.NewFigures()
	sinks := []study.Sink{figs}
	var csvFile *os.File
	var csvW *report.DatasetCSVWriter
	if *csvPath != "" {
		if err := os.MkdirAll(filepath.Dir(*csvPath), 0o755); err != nil {
			return err
		}
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		csvFile = f
		csvW = report.NewDatasetCSVWriter(f)
		sinks = append(sinks, csvW)
	}
	closeCSV := func() error {
		if csvFile == nil {
			return nil
		}
		err := csvW.Close()
		if cerr := csvFile.Close(); err == nil {
			err = cerr
		}
		csvFile = nil
		return err
	}
	defer closeCSV() //nolint:errcheck // re-checked on the success path

	rctx, span := opts.Obs.StartSpan(ctx, "run")
	sum, err := study.StreamCorpus(rctx, src, study.MultiSink(sinks...), opts)
	span.End()
	p.recordRun(sum.Projects, sum.Failures)
	if err != nil {
		reportInterrupted(sum.Projects, len(sum.Failures), err)
		return err
	}
	if err := reportFailures(sum.Projects, sum.Failures); err != nil {
		return err
	}
	fmt.Printf("analyzed %d projects\n\n", sum.Projects)

	if err := renderStudySections(report.FiguresArtifacts(figs, *seed), *outDir); err != nil {
		return err
	}
	if *csvPath != "" {
		if err := closeCSV(); err != nil {
			return err
		}
		fmt.Printf("wrote data set to %s\n", *csvPath)
	}
	return nil
}

func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
