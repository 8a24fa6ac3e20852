package main

import (
	"context"
	"fmt"
	"os"
	"strconv"

	"coevo/internal/corpus"
	"coevo/internal/report"
	"coevo/internal/taxa"
)

// runGen generates the corpus and summarizes it per taxon. Projects are
// visited in corpus order and each one is released after it is counted
// (and listed), so the whole corpus is never resident.
func runGen(ctx context.Context, args []string) (err error) {
	fs := newFlagSet("gen")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	list := fs.Bool("list", false, "list every generated project")
	buildPipeline := pipelineFlags(fs)
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	defer func() { err = p.finish(ctx, err) }()

	cfg := corpus.DefaultConfig(*seed)
	cfg.Exec = p.exec
	cfg.Obs = p.obs

	type agg struct {
		projects, commits, schemaVersions int
	}
	perTaxon := map[taxa.Taxon]*agg{}
	for _, taxon := range taxa.All() {
		perTaxon[taxon] = &agg{}
	}
	visit := func(pr *corpus.Project) error {
		a := perTaxon[pr.Taxon]
		a.projects++
		a.commits += pr.Repo.CommitCount()
		a.schemaVersions += len(pr.Repo.FileVersions(pr.DDLPath))
		if *list {
			fmt.Printf("%-24s %-22s %4d commits  ddl=%s\n",
				pr.Name, pr.Taxon, pr.Repo.CommitCount(), pr.DDLPath)
		}
		return nil
	}

	n, err := corpus.EachContext(ctx, cfg, visit)
	p.recordRun(n, nil)
	if err != nil {
		return err
	}

	tbl := &report.Table{
		Title:  fmt.Sprintf("Corpus summary (seed %d, %d projects)", *seed, n),
		Header: []string{"Taxon", "Projects", "Commits", "Schema versions"},
	}
	totals := agg{}
	for _, taxon := range taxa.All() {
		a := perTaxon[taxon]
		tbl.AddRow(taxon.String(), strconv.Itoa(a.projects), strconv.Itoa(a.commits), strconv.Itoa(a.schemaVersions))
		totals.projects += a.projects
		totals.commits += a.commits
		totals.schemaVersions += a.schemaVersions
	}
	tbl.AddRow("TOTAL", strconv.Itoa(totals.projects), strconv.Itoa(totals.commits), strconv.Itoa(totals.schemaVersions))
	return tbl.Render(os.Stdout)
}
