package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"coevo/internal/gitlog"
	"coevo/internal/history"
	"coevo/internal/study"
)

// runIngest analyzes a real project from its textual git log — produced by
//
//	git log --name-status --no-merges --date=iso > project.log
//
// and, when -ddl-dir points at a directory of dated DDL version files
// (YYYY-MM-DD.sql, exported with `git show <commit>:<path>`), computes the
// full co-evolution measure suite.
func runIngest(args []string) error {
	fs := newFlagSet("ingest")
	logPath := fs.String("log", "", "path to the git log file (required)")
	ddlDir := fs.String("ddl-dir", "", "directory of dated DDL versions (YYYY-MM-DD[.n].sql)")
	name := fs.String("name", "", "project name for the report (default: log file name)")
	dialect := dialectFlag(fs)
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}
	d, err := resolveDialect(*dialect)
	if err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("ingest: -log is required")
	}
	if *name == "" {
		*name = strings.TrimSuffix(filepath.Base(*logPath), filepath.Ext(*logPath))
	}

	f, err := os.Open(*logPath)
	if err != nil {
		return err
	}
	defer f.Close()
	entries, err := gitlog.Parse(f)
	if err != nil {
		return err
	}
	ph, err := history.ProjectHistoryFromLog(entries)
	if err != nil {
		return err
	}

	if *ddlDir == "" {
		return printProjectOnly(*name, ph, entries)
	}

	versions, err := loadDatedDDLVersions(*ddlDir)
	if err != nil {
		return err
	}
	// The dialect goes to both option sets: the history options drive the
	// actual extraction, the study options keep the measure-cache
	// fingerprint truthful about what parsed the DDL.
	hopts := history.DefaultOptions()
	hopts.Dialect = d
	sh, err := history.SchemaHistoryFromContents("schema.sql", versions, hopts)
	if err != nil {
		return err
	}
	sopts := study.DefaultOptions()
	sopts.History.Dialect = d
	res, err := study.AnalyzeHistories(*name, "schema.sql", sh, ph, sopts)
	if err != nil {
		return err
	}
	return printCaseStudy(os.Stdout, res)
}

// printProjectOnly reports project-activity statistics when no schema
// versions are available.
func printProjectOnly(name string, ph *history.ProjectHistory, entries []gitlog.Entry) error {
	first, last := ph.Span()
	fmt.Printf("project   %s\n", name)
	fmt.Printf("commits   %d (non-merge)\n", ph.CommitCount())
	fmt.Printf("files     %d updates\n", ph.TotalFileUpdates())
	fmt.Printf("span      %s .. %s (%d months)\n\n",
		first.Format("2006-01-02"), last.Format("2006-01-02"), ph.DurationMonths())

	counts := gitlog.MonthlyFileUpdates(entries)
	fmt.Println("monthly file updates (the Project Heartbeat):")
	for _, month := range gitlog.SortedMonths(counts) {
		fmt.Printf("  %s  %d\n", month, counts[month])
	}
	fmt.Println("\nprovide -ddl-dir with dated schema versions for the full co-evolution measures")
	return nil
}

// loadDatedDDLVersions reads *.sql files named by date
// (history.ParseVersionNames) from dir, in commit order.
func loadDatedDDLVersions(dir string) ([]history.DatedContent, error) {
	glob, err := filepath.Glob(filepath.Join(dir, "*.sql"))
	if err != nil {
		return nil, err
	}
	if len(glob) == 0 {
		return nil, fmt.Errorf("ingest: no .sql files in %s", dir)
	}
	names := make([]string, len(glob))
	for i, path := range glob {
		names[i] = strings.TrimSuffix(filepath.Base(path), ".sql")
	}
	order, err := history.ParseVersionNames(names)
	if err != nil {
		return nil, fmt.Errorf("ingest: %s: %w", dir, err)
	}
	versions := make([]history.DatedContent, len(order))
	for i, v := range order {
		content, err := os.ReadFile(filepath.Join(dir, v.Name+".sql"))
		if err != nil {
			return nil, err
		}
		versions[i] = history.DatedContent{When: v.When, Content: content}
	}
	return versions, nil
}
