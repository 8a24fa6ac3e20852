// Command bench is coevo's end-to-end benchmark. It drives the system
// only through the public functions `coevo study`, `coevo study -shards`
// and `coevo serve` call, on four seeded workloads, checks every output,
// and attributes a traced run's time to named layers. Run it from the
// repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh run -seed 2023 -out results.json
//	bash bench/run.sh --workload study-cold --seed 7 --seconds 12 --trace 0
//	bash bench/run.sh compare base.json new.json
//
// With -workload the last line of standard output is one JSON object:
// the end-to-end metrics of BENCHMARK.json (trace 0) or its per-layer
// metrics (trace 1). Without it every workload runs, traced, and a table
// of every metric is printed. A failed output check exits non-zero
// without printing metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "run":
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := runCmd(ctx, args, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	case "compare":
		return compareCmd(args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "bench: unknown command %q (want run or compare)\n", cmd)
		return 2
	}
}

func runCmd(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload and print one JSON result line (default: every workload, traced)")
	seed := fs.Int64("seed", defaultSeed, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "measurement window of one run (0: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", -1, "1 adds the traced run and reports per-layer metrics (default: 0 with -workload, else 1)")
	out := fs.String("out", "", "write the results file, with provenance and raw samples, here")
	runs := fs.Int("runs", 1, "runs of each workload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, err := loadSpec(specFile)
	if err != nil {
		return err
	}
	cfg := defaultConfig()
	cfg.Seed = *seed
	cfg.Seconds = *seconds
	if cfg.Seconds <= 0 {
		cfg.Seconds = float64(spec.RunSeconds)
	}

	if *only != "" {
		w, err := findWorkload(*only)
		if err != nil {
			return err
		}
		res, err := runWorkload(ctx, w, &cfg, *trace == 1, stderr)
		if err != nil {
			return err
		}
		printRun(stderr, res)
		metrics := spec.EndToEnd
		if *trace == 1 {
			metrics = spec.PerLayer
		}
		line, err := resultLine(res, metrics)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeResults(*out, &resultsFile{Provenance: newProvenance(&cfg), Runs: []*runResult{res}}); err != nil {
				return err
			}
		}
		_, err = fmt.Fprintln(stdout, line)
		return err
	}

	file := &resultsFile{Provenance: newProvenance(&cfg)}
	for i := 0; i < *runs; i++ {
		hashes := map[string]string{}
		for _, w := range workloads {
			res, err := runWorkload(ctx, w, &cfg, *trace != 0, stderr)
			if err != nil {
				return err
			}
			printRun(stderr, res)
			if w.study {
				hashes[w.name] = res.FiguresSHA256
			}
			file.Runs = append(file.Runs, res)
		}
		if err := sameFigures(hashes); err != nil {
			return err
		}
	}
	printTable(stdout, spec, file.Runs)
	if *out != "" {
		return writeResults(*out, file)
	}
	return nil
}

// sameFigures checks the study workloads rendered identical figures.
func sameFigures(hashes map[string]string) error {
	var first string
	for _, h := range hashes {
		if first == "" {
			first = h
		}
		if h != first {
			return fmt.Errorf("output check: study workloads rendered different figures: %v", hashes)
		}
	}
	return nil
}

// resultLine renders the one-line JSON result: every listed metric, by
// name, with its unit.
func resultLine(res *runResult, metrics []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	values := map[string]value{}
	for _, m := range metrics {
		v, ok := res.value(m.Name)
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", res.Workload, m.Name)
		}
		values[m.Name] = value{v, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, res.Attempted, res.Failed, values})
	return string(line), err
}

// printRun reports one run on w: its counts, end-to-end medians with
// their spread, workload notes, and the traced run's attribution.
func printRun(w io.Writer, res *runResult) {
	fmt.Fprintf(w, "%s (seed %d): %d attempted, %d failed", res.Workload, res.Seed, res.Attempted, res.Failed)
	if res.FiguresSHA256 != "" {
		fmt.Fprintf(w, ", figures sha256 %s", res.FiguresSHA256)
	}
	fmt.Fprintln(w)
	for _, name := range sortedKeys(res.Metrics) {
		s := res.Samples[name]
		fmt.Fprintf(w, "  %-22s %12.4f   (%d samples, IQR %.1f%% of median)\n", name, res.Metrics[name], len(s), 100*spread(s))
	}
	for _, name := range sortedKeys(res.Notes) {
		fmt.Fprintf(w, "  %-22s %12.4f\n", name, res.Notes[name])
	}
	group := ""
	for _, r := range res.Attribution {
		if r.Group != group {
			group = r.Group
			fmt.Fprintf(w, "  attribution of %s:\n", group)
		}
		fmt.Fprintf(w, "    %-22s %9.3fs %6.1f%%\n", r.Layer, r.Seconds, 100*r.Share)
	}
}

// printTable prints every metric of spec for every workload, with units.
func printTable(w io.Writer, spec *benchSpec, runs []*runResult) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "metric\tunit\t")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t", wl.name)
	}
	fmt.Fprintln(tw)
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		fmt.Fprintf(tw, "%s\t%s\t", m.Name, m.Unit)
		for _, wl := range workloads {
			var vals []float64
			for _, r := range runs {
				if v, ok := r.value(m.Name); ok && r.Workload == wl.name {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				fmt.Fprint(tw, "-\t")
			} else {
				fmt.Fprintf(tw, "%.4g\t", median(vals))
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
