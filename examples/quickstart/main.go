// Quickstart: build a small project history through the public API,
// measure its schema/source co-evolution and print the full measure suite.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"coevo"
)

func main() {
	// A project with a schema declared at birth, grown twice, while the
	// source code churns steadily for a year.
	repo := coevo.NewRepository("example/notes-app")
	dev := func(monthOffset int) coevo.Signature {
		return coevo.Signature{
			Name:  "dev",
			Email: "dev@example.org",
			When:  time.Date(2020, time.January, 15, 10, 0, 0, 0, time.UTC).AddDate(0, monthOffset, 0),
		}
	}
	commit := func(msg string, sig coevo.Signature) {
		if _, err := repo.Commit(msg, sig); err != nil {
			log.Fatalf("commit %q: %v", msg, err)
		}
	}

	repo.StageString("schema.sql", `
		CREATE TABLE notes (
			id INT NOT NULL AUTO_INCREMENT,
			body TEXT,
			PRIMARY KEY (id)
		);`)
	repo.StageString("app/main.go", "package main // v1")
	commit("initial import", dev(0))

	repo.StageString("app/main.go", "package main // v2")
	repo.StageString("app/handlers.go", "package main")
	commit("add handlers", dev(1))

	repo.StageString("schema.sql", `
		CREATE TABLE notes (
			id INT NOT NULL AUTO_INCREMENT,
			body TEXT,
			created_at TIMESTAMP,
			PRIMARY KEY (id)
		);
		CREATE TABLE tags (id INT, name VARCHAR(64), PRIMARY KEY (id));`)
	repo.StageString("app/handlers.go", "package main // now with tags")
	commit("tags feature: schema + code", dev(2))

	for m := 3; m <= 12; m++ {
		repo.StageString("app/main.go", fmt.Sprintf("package main // v%d", m))
		commit(fmt.Sprintf("routine work %d", m), dev(m))
	}

	// Analyze: locate the DDL file, extract both histories, align the
	// heartbeats and compute every measure of the paper.
	result, err := coevo.AnalyzeRepository(repo, "", coevo.DefaultOptions())
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	fmt.Printf("project %s — taxon %s, %d months\n",
		result.Name, result.Taxon, result.DurationMonths)
	fmt.Printf("schema: %d commits, %d change units; project: %d commits, %d file updates\n\n",
		result.SchemaCommits, result.TotalSchemaActivity, result.ProjectCommits, result.FileUpdates)

	fig := coevo.JointProgressFigure{Title: "joint cumulative fractional progress", Progress: result.Joint}
	if err := coevo.Render(os.Stdout, fig, coevo.Text); err != nil {
		log.Fatalf("render: %v", err)
	}

	m := result.Measures
	fmt.Printf("\n10%%-synchronicity        %.2f\n", m.Sync10)
	fmt.Printf("advance over time        %.2f (always ahead: %v)\n", m.AdvanceTime, m.AlwaysAheadOfTime)
	fmt.Printf("advance over source      %.2f (always ahead: %v)\n", m.AdvanceSource, m.AlwaysAheadOfSource)
	fmt.Printf("75%% of evolution reached at %.0f%% of the project's life\n", m.Attain75*100)
}
