// Command coevo runs the joint source and schema evolution study toolkit.
//
// Subcommands:
//
//	study      generate the 195-project corpus and regenerate every figure
//	           and table of the paper's evaluation (Figures 4-8, Section 7)
//	impact     windowed co-change analysis around schema commits
//	smo        derive an invertible SMO migration between schema versions
//	export     write Schema_Evo-style per-history statistics as JSON
//	gen        generate the corpus and summarize it per taxon
//	analyze    deep-dive one project of the corpus (joint progress diagram,
//	           full measure suite) — the Section 3.3 case-study view
//	ingest     compute project-activity statistics from a real
//	           `git log --name-status --no-merges --date=iso` file, and,
//	           when a directory of dated DDL versions is given, the full
//	           co-evolution measures
//	parse      debug the recovering DDL parser: print dialect, statement
//	           stats and categorized diagnostics for one DDL file
//	taxa       per-taxon synchronicity breakdown and change locality
//	cache      administer an on-disk result cache (stats, clear, verify)
//	serve      run the analysis service: the durable multi-tenant job
//	           queue at /jobs plus Prometheus /metrics, /debug/pprof and
//	           the run-ledger browser at /runs
//	jobs       client for the job service: submit studies or ingest
//	           payloads to a running `coevo serve`, watch and fetch them
//	runs       browse the persistent run ledger (list, show, diff with
//	           metric-regression flagging)
//
// The corpus-wide subcommands (study, gen, taxa) run on the concurrent
// execution engine (internal/engine) and share the -workers, -progress
// and -metrics flags; output is deterministic at any worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"coevo/internal/study"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C / SIGTERM cancel the run's context: in-flight projects drain,
	// the partial dataset is summarized, and observability artifacts
	// (trace, profiles) are still flushed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "study":
		err = runStudy(ctx, os.Args[2:])
	case "gen":
		err = runGen(ctx, os.Args[2:])
	case "analyze":
		err = runAnalyze(ctx, os.Args[2:])
	case "bench":
		err = runBench(ctx, os.Args[2:])
	case "ingest":
		err = runIngest(os.Args[2:])
	case "parse":
		err = runParse(os.Args[2:])
	case "impact":
		err = runImpact(os.Args[2:])
	case "smo":
		err = runSMO(os.Args[2:])
	case "export":
		err = runExport(os.Args[2:])
	case "taxa":
		err = runTaxa(ctx, os.Args[2:])
	case "cache":
		err = runCache(os.Args[2:])
	case "serve":
		err = runServe(ctx, os.Args[2:])
	case "jobs":
		err = runJobs(ctx, os.Args[2:])
	case "runs":
		err = runRuns(os.Args[2:])
	case "shard":
		err = runShard(ctx, os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "coevo: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "coevo: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: coevo <subcommand> [flags]

subcommands:
  study    regenerate the paper's full evaluation (figures 4-8, section 7)
  gen      generate the synthetic corpus and summarize it
  analyze  deep-dive a single corpus project
  ingest   analyze a real git log (+ optional DDL version directory)
  impact   windowed co-change analysis around schema commits
  smo      derive a schema-modification-operation migration between versions
  export   write the Schema_Evo-style per-history statistics as JSON
  parse    print the parse-health report for one DDL file (-dialect selects
           the adapter; exits nonzero on uncategorized diagnostics)
  taxa     per-taxon synchronicity breakdown and change locality
  cache    administer a result-cache directory (stats, clear, verify)
  bench    time study runs (cold/warm cache, serial/parallel) into a JSON report
  serve    run the analysis service (job queue at /jobs, metrics, pprof, /runs)
  jobs     submit, watch and fetch jobs on a running serve instance
  runs     browse the run ledger (list, show, diff with regression flags)
  shard    run a shard worker for scaled-out studies (see study -shards)

run 'coevo <subcommand> -h' for flags. The corpus-wide subcommands
(study, gen, taxa) run on a concurrent execution engine and share the
flags -workers N (pool size, default GOMAXPROCS), -progress (report
progress on stderr), -metrics (print the unified metrics report:
latency/throughput, stage totals and cache counters), -cache-dir DIR
(study and taxa: persist and reuse results across runs), -trace FILE (Chrome
trace-event JSON of the run), -log-level LEVEL (structured logs on
stderr), -cpuprofile/-memprofile FILE (pprof profiles), -listen ADDR
(serve /metrics, /healthz, /readyz, /progress SSE, /debug/pprof and
/runs live during the run; -linger D keeps it up after) and
-runlog-dir DIR (record the run's manifest into a persistent ledger,
compared later with 'coevo runs diff'). Output is byte-identical no
matter which observability, telemetry or cache flags are set.
`)
}

// newFlagSet builds a flag set whose parse errors return through the
// normal error path (ContinueOnError) instead of exiting the process, so
// flag handling is testable and main owns the exit code.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parseFlags parses args into fs. It reports whether the subcommand
// should run: -h/-help prints the usage (done by the flag package) and
// returns (false, nil) — a clean exit, not an error.
func parseFlags(fs *flag.FlagSet, args []string) (run bool, err error) {
	switch err := fs.Parse(args); {
	case err == nil:
		return true, nil
	case errors.Is(err, flag.ErrHelp):
		return false, nil
	default:
		return false, err
	}
}

// reportInterrupted summarizes a cancelled corpus run on stderr: what the
// engine finished before the context fired is still a partial result.
func reportInterrupted(analyzed, failed int, err error) {
	fmt.Fprintf(os.Stderr, "interrupted (%v): %d projects analyzed, %d failed before cancellation\n",
		err, analyzed, failed)
}

// reportFailures summarizes a partial study on stderr and decides the
// run's fate: per-project failures are tolerated (the paper's population
// figures degrade gracefully), but a study where every project failed
// returns an error. analyzed counts the successfully measured projects.
func reportFailures(analyzed int, failures []study.Failure) error {
	if len(failures) == 0 {
		return nil
	}
	fmt.Fprintf(os.Stderr, "%d of %d projects failed:\n", len(failures), analyzed+len(failures))
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "  %s: %v\n", f.Name, f.Err)
	}
	if analyzed == 0 {
		return fmt.Errorf("all %d projects failed", len(failures))
	}
	return nil
}
