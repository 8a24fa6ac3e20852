package coevo_test

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"coevo"
)

// Example demonstrates the README's minimal flow: build a repository,
// analyze it, read the co-evolution measures.
func Example() {
	repo := coevo.NewRepository("example/app")
	at := func(m int) coevo.Signature {
		return coevo.Signature{Name: "dev", Email: "dev@example.org",
			When: time.Date(2021, 1, 10, 0, 0, 0, 0, time.UTC).AddDate(0, m, 0)}
	}
	repo.StageString("schema.sql", "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT);")
	repo.StageString("app.go", "package app")
	if _, err := repo.Commit("init", at(0)); err != nil {
		panic(err)
	}
	repo.StageString("schema.sql", "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT, created_at TIMESTAMP);")
	if _, err := repo.Commit("track creation time", at(2)); err != nil {
		panic(err)
	}
	repo.StageString("app.go", "package app // v2")
	if _, err := repo.Commit("late feature work", at(8)); err != nil {
		panic(err)
	}

	result, err := coevo.AnalyzeRepository(repo, "", coevo.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("taxon: %s\n", result.Taxon)
	fmt.Printf("duration: %d months, schema activity: %d units\n",
		result.DurationMonths, result.TotalSchemaActivity)
	fmt.Printf("75%% of schema evolution attained at %.0f%% of life\n",
		100*result.Measures.Attain75)
	// Output:
	// taxon: ALMOST FROZEN
	// duration: 8 months, schema activity: 3 units
	// 75% of schema evolution attained at 25% of life
}

// ExampleRender shows the single rendering entry point. The per-figure
// Write* helpers of earlier releases have been removed; each call
// migrates to a byte-identical Render call:
//
//	coevo.WriteJointProgress(w, "app", j)    →  coevo.Render(w, coevo.JointProgressFigure{Title: "app", Progress: j}, coevo.Text)
//	coevo.WriteSyncHistogram(w, h)           →  coevo.Render(w, h, coevo.Text)
//	coevo.WriteSyncHistogramSVG(w, h)        →  coevo.Render(w, h, coevo.SVG)
//	coevo.WriteDatasetCSV(w, d)              →  coevo.Render(w, d, coevo.CSV)
//
// Render accepts either a raw artifact (histogram, scatter points,
// dataset, ...) or an explicit figure wrapper, plus a format; a
// combination with no encoder fails with coevo.ErrUnsupportedFormat.
func ExampleRender() {
	repo := coevo.NewRepository("example/render")
	at := func(m int) coevo.Signature {
		return coevo.Signature{Name: "dev", Email: "dev@example.org",
			When: time.Date(2021, 1, 10, 0, 0, 0, 0, time.UTC).AddDate(0, m, 0)}
	}
	repo.StageString("schema.sql", "CREATE TABLE notes (id INT PRIMARY KEY);")
	repo.StageString("app.go", "package app")
	if _, err := repo.Commit("init", at(0)); err != nil {
		panic(err)
	}
	repo.StageString("app.go", "package app // v2")
	if _, err := repo.Commit("feature work", at(6)); err != nil {
		panic(err)
	}
	result, err := coevo.AnalyzeRepository(repo, "", coevo.DefaultOptions())
	if err != nil {
		panic(err)
	}

	fig := coevo.JointProgressFigure{Title: "example/render", Progress: result.Joint}
	var text, svg bytes.Buffer
	if err := coevo.Render(&text, fig, coevo.Text); err != nil {
		panic(err)
	}
	if err := coevo.Render(&svg, fig, coevo.SVG); err != nil {
		panic(err)
	}
	fmt.Printf("text diagram has a legend: %v\n", strings.Contains(text.String(), "S=schema"))
	fmt.Printf("svg document: %v\n", strings.HasPrefix(svg.String(), "<svg"))
	fmt.Printf("unsupported combination: %v\n", coevo.Render(&text, fig, coevo.CSV) != nil)
	// Output:
	// text diagram has a legend: true
	// svg document: true
	// unsupported combination: true
}
