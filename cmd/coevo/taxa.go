package main

import (
	"context"
	"fmt"
	"os"

	"coevo/internal/report"
	"coevo/internal/study"
	"coevo/internal/taxa"
)

// runTaxa breaks the corpus down per taxon: the measured distribution,
// per-taxon synchronicity histograms (the "within the different taxa" view
// of RQ1) and the change-locality summary.
func runTaxa(ctx context.Context, args []string) (err error) {
	fs := newFlagSet("taxa")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	theta := fs.Float64("theta", 0.10, "synchronicity acceptance band")
	dialect := dialectFlag(fs)
	buildPipeline := pipelineFlags(fs)
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	dial, err := resolveDialect(*dialect)
	if err != nil {
		return err
	}
	p, err := buildPipeline()
	if err != nil {
		return err
	}
	defer func() { err = p.finish(ctx, err) }()

	opts := study.DefaultOptions()
	opts.Exec = p.exec
	opts.Cache = p.cache
	opts.Obs = p.obs
	opts.History.Dialect = dial
	d, err := study.Run(ctx, *seed, opts)
	p.recordRun(d.Size(), d.Failures)
	if err != nil {
		reportInterrupted(d.Size(), len(d.Failures), err)
		return err
	}
	if err := reportFailures(d.Size(), d.Failures); err != nil {
		return err
	}

	groups := d.ByTaxon()
	perTaxon := d.SynchronicityHistogramByTaxon(*theta, 5)
	for _, taxon := range taxa.All() {
		h := perTaxon[taxon]
		chart := &report.BarChart{
			Title:  fmt.Sprintf("%s (%d projects) — %.0f%%-synchronicity", taxon, len(groups[taxon]), *theta*100),
			Labels: h.Labels,
		}
		for _, c := range h.Buckets {
			chart.Values = append(chart.Values, float64(c))
		}
		if err := chart.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	loc := d.ChangeLocality(5)
	fmt.Printf("change locality (projects with >= 5 tables, n=%d):\n", loc.Projects)
	fmt.Printf("  median share of changes in the top-20%% most-changed tables: %.0f%%\n", 100*loc.MedianTopShare)
	fmt.Printf("  median share of tables that never changed after birth:      %.0f%%\n", 100*loc.MedianUnchangedShare)
	return nil
}
