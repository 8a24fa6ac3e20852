package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"coevo/internal/corpus"
	"coevo/internal/report"
	"coevo/internal/study"
)

// runAnalyze deep-dives one project of the corpus: the Section 3.3
// case-study view with the joint progress diagram and the full measure
// suite.
func runAnalyze(ctx context.Context, args []string) error {
	fs := newFlagSet("analyze")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	which := fs.String("project", "0", "project index (0-194) or name substring")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}

	target, err := pickProject(corpus.NewSource(corpus.DefaultConfig(*seed)), *which)
	if err != nil {
		return err
	}
	res, err := study.AnalyzeRepositoryContext(ctx, target.Repo, target.DDLPath, study.DefaultOptions())
	if err != nil {
		return err
	}
	return printCaseStudy(os.Stdout, res)
}

// pickProject generates the one project of src that which names: the
// project at that corpus index or, if which is not a number, the first
// project whose name contains it.
func pickProject(src *corpus.Source, which string) (*corpus.Project, error) {
	idx, err := strconv.Atoi(which)
	byIndex := err == nil
	if byIndex && (idx < 0 || idx >= src.Len()) {
		return nil, fmt.Errorf("project index %d out of range [0, %d)", idx, src.Len())
	}
	for {
		sp, i, ok := src.Claim()
		if !ok {
			return nil, fmt.Errorf("no project matches %q", which)
		}
		if byIndex && i == idx || !byIndex && strings.Contains(sp.Name(), which) {
			return sp.Generate()
		}
	}
}

// printCaseStudy delegates to the shared report.CaseStudy renderer, the
// same path ingest jobs use for their fetchable result.
func printCaseStudy(w *os.File, res *study.ProjectResult) error {
	return report.CaseStudy(w, res)
}
