package main

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"

	"coevo/internal/corpus"
	"coevo/internal/history"
	"coevo/internal/impact"
	"coevo/internal/report"
	"coevo/internal/schemadiff"
)

// runImpact performs the windowed co-change analysis on the corpus: per
// change kind, the average amount of source churn landing around schema
// commits — the automated version of the paper's §3.3 manual inspection.
func runImpact(args []string) error {
	fs := newFlagSet("impact")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	window := fs.Int("window", 2, "co-change window (commits on each side)")
	project := fs.String("project", "", "restrict to one project (index or name substring)")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}

	perKind := map[schemadiff.ChangeKind]*impact.KindImpact{}
	projects, activeCommits, sameCommit := 0, 0, 0.0
	visit := func(p *corpus.Project) error {
		sh, err := history.ExtractSchemaHistory(p.Repo, p.DDLPath, history.DefaultOptions())
		if err != nil {
			return err
		}
		stats, err := impact.CoChange(p.Repo, sh, *window)
		if err != nil {
			return err
		}
		for kind, ki := range stats.PerKind {
			agg := perKind[kind]
			if agg == nil {
				agg = &impact.KindImpact{}
				perKind[kind] = agg
			}
			agg.Changes += ki.Changes
			agg.SourceFileUpdates += ki.SourceFileUpdates
		}
		projects++
		activeCommits += stats.ActiveSchemaCommits
		sameCommit += stats.SameCommitShare * float64(stats.ActiveSchemaCommits)
		return nil
	}
	cfg := corpus.DefaultConfig(*seed)
	if *project != "" {
		p, err := pickProject(corpus.NewSource(cfg), *project)
		if err != nil {
			return err
		}
		if err := visit(p); err != nil {
			return err
		}
	} else if _, err := corpus.EachContext(context.Background(), cfg, visit); err != nil {
		return err
	}

	tbl := &report.Table{
		Title: fmt.Sprintf("Co-change around schema commits (%d projects, window ±%d commits)",
			projects, *window),
		Header: []string{"Change kind", "Changes", "Source churn", "Avg churn/change"},
	}
	kinds := make([]schemadiff.ChangeKind, 0, len(perKind))
	for kind := range perKind {
		kinds = append(kinds, kind)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, kind := range kinds {
		ki := perKind[kind]
		tbl.AddRow(kind.String(), strconv.Itoa(ki.Changes), strconv.Itoa(ki.SourceFileUpdates),
			fmt.Sprintf("%.1f", ki.Avg()))
	}
	if err := tbl.Render(os.Stdout); err != nil {
		return err
	}
	if activeCommits > 0 {
		fmt.Printf("\nactive schema commits: %d; share also touching source in the same revision: %.0f%%\n",
			activeCommits, 100*sameCommit/float64(activeCommits))
	}
	return nil
}
