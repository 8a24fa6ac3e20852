// Casestudy reproduces Section 3.3 of the paper: the deep dive into a
// project shaped like mapbox/osm-comments-parser — a JavaScript tool that
// parses OSM Notes and Changeset XML into Postgres.
//
// The published facts this replica is built to match:
//
//   - ~2 years of activity (Project Update Period 22 months, Schema
//     Update Period 20 months);
//   - 119 commits and 259 file updates; 13 schema commits, 9 active;
//   - the schema starts with 48% of its change at start-up, stabilizes
//     until ~50% of the project's life, then attains the rest;
//   - 50% of schema change is attained at ~55% of life, 80% at ~68%.
//
// Run with:
//
//	go run ./examples/casestudy
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"coevo"
)

// schemaVersions are the DDL file's states, one per (month, content) pair.
// The attribute arithmetic mirrors the paper's heartbeat: the birth
// declares 12 attributes (48% of the lifetime total of 25 change units).
var schemaVersions = []struct {
	month   int
	comment string
	ddl     string
}{
	{0, "initial schema: notes + changesets", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    lat DOUBLE PRECISION,
    lon DOUBLE PRECISION,
    status VARCHAR(16),
    body TEXT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT
);`},
	{3, "cosmetic: header comment only", ""},  // inactive commit
	{6, "cosmetic: reformat whitespace", ""},  // inactive commit
	{9, "cosmetic: clarify column notes", ""}, // inactive commit
	{11, "track when notes close (+1 attr)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat DOUBLE PRECISION,
    lon DOUBLE PRECISION,
    status VARCHAR(16),
    body TEXT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT
);`},
	{13, "changeset discussion support (+2 attrs)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat DOUBLE PRECISION,
    lon DOUBLE PRECISION,
    status VARCHAR(16),
    body TEXT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT,
    comments_count INT,
    discussion TEXT
);`},
	{14, "users table (+2 attrs born with table)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat DOUBLE PRECISION,
    lon DOUBLE PRECISION,
    status VARCHAR(16),
    body TEXT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT,
    comments_count INT,
    discussion TEXT
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name VARCHAR(255)
);`},
	{14, "user ids on notes (+1 attr, same month)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat DOUBLE PRECISION,
    lon DOUBLE PRECISION,
    status VARCHAR(16),
    body TEXT,
    user_id INT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT,
    comments_count INT,
    discussion TEXT
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name VARCHAR(255)
);`},
	{15, "coordinate types to NUMERIC (2 type changes)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat NUMERIC(10,7),
    lon NUMERIC(10,7),
    status VARCHAR(16),
    body TEXT,
    user_id INT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    username VARCHAR(255),
    comment TEXT,
    comments_count INT,
    discussion TEXT
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name VARCHAR(255)
);`},
	{16, "cosmetic: note about numeric precision", ""}, // inactive commit
	{17, "denormalize: usernames live on users (-2 attrs)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat NUMERIC(10,7),
    lon NUMERIC(10,7),
    status VARCHAR(16),
    user_id INT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    comment TEXT,
    comments_count INT,
    discussion TEXT
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name VARCHAR(255)
);`},
	{19, "bounding boxes on changesets (+2 attrs)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat NUMERIC(10,7),
    lon NUMERIC(10,7),
    status VARCHAR(16),
    user_id INT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    comment TEXT,
    comments_count INT,
    discussion TEXT,
    min_lat NUMERIC(10,7),
    min_lon NUMERIC(10,7)
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name VARCHAR(255)
);`},
	{20, "wider usernames (1 type change)", `
CREATE TABLE notes (
    id SERIAL PRIMARY KEY,
    note_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    closed_at TIMESTAMP WITH TIME ZONE,
    lat NUMERIC(10,7),
    lon NUMERIC(10,7),
    status VARCHAR(16),
    user_id INT
);
CREATE TABLE changesets (
    id SERIAL PRIMARY KEY,
    changeset_id BIGINT NOT NULL,
    created_at TIMESTAMP WITH TIME ZONE,
    comment TEXT,
    comments_count INT,
    discussion TEXT,
    min_lat NUMERIC(10,7),
    min_lon NUMERIC(10,7)
);
CREATE TABLE users (
    id SERIAL PRIMARY KEY,
    name TEXT
);`},
}

func main() {
	repo := buildReplica()
	result, err := coevo.AnalyzeRepository(repo, "sql/schema.sql", coevo.DefaultOptions())
	if err != nil {
		log.Fatalf("analyze: %v", err)
	}

	fmt.Println("Case study replica of mapbox/osm-comments-parser (paper §3.3)")
	fmt.Println()
	fig := coevo.JointProgressFigure{Title: "joint cumulative fractional progress", Progress: result.Joint}
	if err := coevo.Render(os.Stdout, fig, coevo.Text); err != nil {
		log.Fatal(err)
	}

	m := result.Measures
	fmt.Println()
	fmt.Println("                         published   measured")
	row := func(label, published string, measured string) {
		fmt.Printf("%-24s %-11s %s\n", label, published, measured)
	}
	row("project commits", "119", fmt.Sprint(result.ProjectCommits))
	row("file updates", "259", fmt.Sprint(result.FileUpdates))
	row("schema commits", "13", fmt.Sprint(result.SchemaCommits))
	row("active schema commits", "9", fmt.Sprint(result.ActiveSchemaCommits))
	row("duration (months)", "22", fmt.Sprint(result.DurationMonths))
	row("schema change at birth", "48%", fmt.Sprintf("%.0f%%", 100*result.Joint.Schema[0]))
	row("50% attained at", "55% of life", fmt.Sprintf("%.0f%% of life", 100*m.Attain50))
	row("80% attained at", "68% of life", fmt.Sprintf("%.0f%% of life", 100*m.Attain80))
	row("10%-synchronicity", "~43%", fmt.Sprintf("%.0f%%", 100*m.Sync10))
	fmt.Printf("\ntaxon: %s\n", result.Taxon)
}

// buildReplica materializes the repository: 13 schema commits interleaved
// with source churn totalling 119 commits and 259 file updates over a
// 22-month lifetime.
func buildReplica() *coevo.Repository {
	repo := coevo.NewRepository("mapbox/osm-comments-parser")
	start := time.Date(2015, time.March, 2, 9, 0, 0, 0, time.UTC)
	seq := 0
	commit := func(month int, msg string) {
		seq++
		sig := coevo.Signature{
			Name:  "parser-dev",
			Email: "dev@mapbox.example",
			When:  start.AddDate(0, month, 0).Add(time.Duration(seq) * time.Minute),
		}
		if _, err := repo.Commit(msg, sig); err != nil {
			log.Fatalf("month %d commit %q: %v", month, msg, err)
		}
	}

	// Source files of the project.
	files := []string{
		"parsers/notes.js", "parsers/changesets.js", "lib/db.js",
		"lib/xml.js", "index.js", "package.json", "test/notes.test.js",
		"test/changesets.test.js", "README.md", "bin/ingest.js",
	}
	rev := 0
	touch := func(names ...string) {
		for _, n := range names {
			rev++
			repo.StageString(n, fmt.Sprintf("// %s revision %d\n", n, rev))
		}
	}

	// Interleave: schema versions at their months; source commits fill the
	// remaining budget with a front-and-tail-heavy pattern like the
	// paper's description ("changes distributed over the beginning and the
	// second part of the project's life").
	const totalCommits = 119
	const totalFileUpdates = 259
	schemaIdx := 0
	lastDDL := ""
	cosmetic := 0
	// Front-loaded source churn with a second wave — the paper observes
	// "changes distributed over time at the beginning and the second part
	// of the project's life". 106 source commits + 13 schema commits = 119.
	sourceCommitsPerMonth := []int{24, 20, 16, 8, 5, 3, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1}

	fileUpdates, commits := 0, 0
	for month := 0; month <= 22; month++ {
		for schemaIdx < len(schemaVersions) && schemaVersions[schemaIdx].month == month {
			v := schemaVersions[schemaIdx]
			if v.ddl != "" {
				lastDDL = v.ddl
			} else {
				cosmetic++
			}
			content := fmt.Sprintf("-- osm-comments schema (edit %d)\n%s", cosmetic, lastDDL)
			repo.StageString("sql/schema.sql", content)
			// Schema commits ship with adjacent parser changes.
			touch(files[schemaIdx%3])
			commit(month, v.comment)
			fileUpdates += 2
			commits++
			schemaIdx++
		}
		for c := 0; c < sourceCommitsPerMonth[month] && commits < totalCommits; c++ {
			// 233 source-file updates over 106 commits: every fifth commit
			// touches three files, the rest two.
			n := 2
			if (commits%5 == 0 || commits == totalCommits-1) && fileUpdates+3 <= totalFileUpdates {
				n = 3
			}
			picked := make([]string, 0, n)
			for k := 0; k < n; k++ {
				picked = append(picked, files[(commits+c+3*k)%len(files)])
			}
			touch(picked...)
			commit(month, fmt.Sprintf("work %d", commits))
			fileUpdates += n
			commits++
		}
	}
	return repo
}
