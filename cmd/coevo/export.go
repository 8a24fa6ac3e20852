package main

import (
	"context"
	"fmt"
	"io"
	"os"

	"coevo/internal/corpus"
	"coevo/internal/dataset"
	"coevo/internal/history"
	"coevo/internal/taxa"
)

// runExport writes the per-history aggregate statistics (the reproduction's
// analogue of the published Schema_Evo data set files) as JSON.
func runExport(args []string) error {
	fs := newFlagSet("export")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	out := fs.String("out", "", "output file (default: stdout)")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}

	var records []*dataset.HistoryStats
	if _, err := corpus.EachContext(context.Background(), corpus.DefaultConfig(*seed), func(p *corpus.Project) error {
		st, err := dataset.CollectRepository(p.Repo, p.DDLPath, history.DefaultOptions(), taxa.DefaultConfig())
		if err != nil {
			return err
		}
		records = append(records, st)
		return nil
	}); err != nil {
		return err
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := dataset.WriteJSON(w, records); err != nil {
		return err
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", len(records), *out)
	}
	return nil
}
