package main

import (
	"fmt"
	"io"
	"os"

	"coevo/internal/corpus"
	"coevo/internal/history"
	"coevo/internal/smo"
)

// runSMO derives the Schema Modification Operation sequence between two
// versions of a corpus project's DDL file and prints it both as algebra
// and as an executable migration script.
func runSMO(args []string) error {
	fs := newFlagSet("smo")
	seed := fs.Int64("seed", 2023, "corpus generation seed")
	project := fs.String("project", "0", "project index or name substring")
	from := fs.Int("from", 0, "older version index")
	to := fs.Int("to", -1, "newer version index (default: last)")
	invert := fs.Bool("invert", false, "also print the inverse (rollback) sequence")
	if ok, err := parseFlags(fs, args); !ok {
		return err
	}

	p, err := pickProject(corpus.NewSource(corpus.DefaultConfig(*seed)), *project)
	if err != nil {
		return err
	}
	return writeSMO(os.Stdout, p, *from, *to, *invert)
}

// writeSMO writes the operation sequence from version from to version to
// of p's DDL file (to < 0 is the last version), its migration script and,
// with invert, its rollback script.
func writeSMO(w io.Writer, p *corpus.Project, from, to int, invert bool) error {
	sh, err := history.ExtractSchemaHistory(p.Repo, p.DDLPath, history.DefaultOptions())
	if err != nil {
		return err
	}
	if to < 0 {
		to = sh.CommitCount() - 1
	}
	if from < 0 || from >= sh.CommitCount() || to < 0 || to >= sh.CommitCount() {
		return fmt.Errorf("smo: version indices out of range [0, %d)", sh.CommitCount())
	}

	seq := smo.Derive(sh.Versions[from].Schema, sh.Versions[to].Schema)
	fmt.Fprintf(w, "%s: %s, versions %d -> %d (%d ops, %d activity units)\n\n",
		p.Name, p.DDLPath, from, to, len(seq), seq.Activity())
	if len(seq) == 0 {
		fmt.Fprintln(w, "(no logical change between the versions)")
		return nil
	}
	fmt.Fprintln(w, "operation sequence:")
	fmt.Fprintln(w, seq)
	fmt.Fprintln(w, "\nmigration script:")
	fmt.Fprintln(w, seq.SQL())
	if invert {
		fmt.Fprintln(w, "\nrollback script:")
		fmt.Fprintln(w, seq.Invert().SQL())
	}
	return nil
}
