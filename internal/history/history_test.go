package history

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"coevo/internal/gitlog"
	"coevo/internal/sqlddl"
	"coevo/internal/vcs"
)

func sig(monthOffset, day int) vcs.Signature {
	return vcs.Signature{
		Name:  "dev",
		Email: "dev@example.com",
		When:  time.Date(2015, time.January, 1, 10, 0, 0, 0, time.UTC).AddDate(0, monthOffset, day),
	}
}

// buildRepo creates a small project: schema born in month 0, grown in
// month 2, a table dropped in month 4, steady source churn throughout.
func buildRepo(t *testing.T) *vcs.Repository {
	t.Helper()
	r := vcs.NewRepository("acme/app")
	commit := func(msg string, s vcs.Signature) {
		t.Helper()
		if _, err := r.Commit(msg, s); err != nil {
			t.Fatalf("commit %q: %v", msg, err)
		}
	}
	r.StageString("schema.sql", "CREATE TABLE users (id INT, email TEXT);")
	r.StageString("main.go", "package main")
	commit("initial", sig(0, 0))

	r.StageString("main.go", "package main // v2")
	r.StageString("handler.go", "package main")
	commit("feature", sig(1, 3))

	r.StageString("schema.sql", `CREATE TABLE users (id INT, email TEXT, name TEXT);
		CREATE TABLE posts (id INT, body TEXT);`)
	r.StageString("handler.go", "package main // v2")
	commit("grow schema", sig(2, 5))

	r.StageString("schema.sql", `CREATE TABLE users (id INT, email TEXT, name TEXT);`)
	commit("drop posts", sig(4, 2))

	return r
}

func TestExtractSchemaHistory(t *testing.T) {
	r := buildRepo(t)
	h, err := ExtractSchemaHistory(r, "schema.sql", DefaultOptions())
	if err != nil {
		t.Fatalf("ExtractSchemaHistory: %v", err)
	}
	if h.CommitCount() != 3 {
		t.Fatalf("CommitCount = %d, want 3", h.CommitCount())
	}
	// Birth: 2 attrs born. Growth: 1 injected + table with 2 born = 3.
	// Drop: table with 2 attrs deleted = 2. Total = 7.
	if got := h.Activity(0); got != 2 {
		t.Errorf("Activity(0) = %d, want 2 (birth)", got)
	}
	if got := h.Activity(1); got != 3 {
		t.Errorf("Activity(1) = %d, want 3", got)
	}
	if got := h.Activity(2); got != 2 {
		t.Errorf("Activity(2) = %d, want 2", got)
	}
	if h.TotalActivity() != 7 {
		t.Errorf("TotalActivity = %d, want 7", h.TotalActivity())
	}
	if h.ActiveCommits() != 3 {
		t.Errorf("ActiveCommits = %d, want 3", h.ActiveCommits())
	}
	final := h.FinalSchema()
	if final.TableCount() != 1 {
		t.Errorf("final schema tables = %d, want 1", final.TableCount())
	}
}

func TestCountBirthDisabled(t *testing.T) {
	r := buildRepo(t)
	h, err := ExtractSchemaHistory(r, "schema.sql", Options{CountBirth: false})
	if err != nil {
		t.Fatal(err)
	}
	if h.Activity(0) != 0 {
		t.Errorf("Activity(0) = %d, want 0 without birth counting", h.Activity(0))
	}
	if h.TotalActivity() != 5 {
		t.Errorf("TotalActivity = %d, want 5", h.TotalActivity())
	}
}

func TestSchemaHeartbeat(t *testing.T) {
	r := buildRepo(t)
	h, _ := ExtractSchemaHistory(r, "schema.sql", DefaultOptions())
	hb, err := h.Heartbeat()
	if err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	if hb.Len() != 5 { // Jan..May 2015
		t.Fatalf("heartbeat len = %d, want 5", hb.Len())
	}
	if hb.Values[0] != 2 || hb.Values[2] != 3 || hb.Values[4] != 2 {
		t.Errorf("heartbeat = %v", hb.Values)
	}
	if hb.Values[1] != 0 || hb.Values[3] != 0 {
		t.Errorf("inactive months should be zero: %v", hb.Values)
	}
}

func TestInactiveSchemaCommit(t *testing.T) {
	r := vcs.NewRepository("acme/app")
	r.StageString("schema.sql", "CREATE TABLE t (a INT);")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	// Comment-only edit: a version with no logical change.
	r.StageString("schema.sql", "-- now with a comment\nCREATE TABLE t (a INT);")
	if _, err := r.Commit("cosmetic", sig(1, 0)); err != nil {
		t.Fatal(err)
	}
	h, err := ExtractSchemaHistory(r, "schema.sql", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if h.CommitCount() != 2 || h.ActiveCommits() != 1 {
		t.Errorf("commits = %d active = %d, want 2/1", h.CommitCount(), h.ActiveCommits())
	}
}

func TestDeletedDDLFile(t *testing.T) {
	r := vcs.NewRepository("acme/app")
	r.StageString("schema.sql", "CREATE TABLE t (a INT, b INT);")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	r.Remove("schema.sql")
	if _, err := r.Commit("drop db", sig(2, 0)); err != nil {
		t.Fatal(err)
	}
	h, err := ExtractSchemaHistory(r, "schema.sql", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Versions[1].Deleted {
		t.Error("second version should be the deletion")
	}
	// Birth 2 + deletion of table with 2 attrs = 4.
	if h.TotalActivity() != 4 {
		t.Errorf("TotalActivity = %d, want 4", h.TotalActivity())
	}
}

func TestExtractErrors(t *testing.T) {
	empty := vcs.NewRepository("acme/empty")
	if _, err := ExtractSchemaHistory(empty, "schema.sql", DefaultOptions()); !errors.Is(err, ErrEmptyRepo) {
		t.Errorf("empty repo err = %v", err)
	}
	if _, err := ExtractProjectHistory(empty); !errors.Is(err, ErrEmptyRepo) {
		t.Errorf("empty project err = %v", err)
	}

	r := vcs.NewRepository("acme/app")
	r.StageString("main.go", "package main")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractSchemaHistory(r, "schema.sql", DefaultOptions()); !errors.Is(err, ErrNoDDLFile) {
		t.Errorf("missing file err = %v", err)
	}

	r.StageString("notes.sql", "-- no tables here, just notes")
	if _, err := r.Commit("notes", sig(1, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractSchemaHistory(r, "notes.sql", DefaultOptions()); !errors.Is(err, ErrNoCreates) {
		t.Errorf("no-creates err = %v", err)
	}
}

func TestFindDDLPath(t *testing.T) {
	r := buildRepo(t)
	path, err := FindDDLPath(r)
	if err != nil || path != "schema.sql" {
		t.Errorf("FindDDLPath = %q, %v", path, err)
	}

	empty := vcs.NewRepository("acme/empty")
	empty.StageString("main.go", "package main")
	if _, err := empty.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := FindDDLPath(empty); !errors.Is(err, ErrNoDDLFile) {
		t.Errorf("no sql err = %v", err)
	}
}

func TestFindDDLPathDisambiguatesByContent(t *testing.T) {
	r := vcs.NewRepository("acme/app")
	r.StageString("db/schema.sql", "CREATE TABLE t (a INT);")
	r.StageString("db/seed.sql", "INSERT INTO t VALUES (1);")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	path, err := FindDDLPath(r)
	if err != nil || path != "db/schema.sql" {
		t.Errorf("FindDDLPath = %q, %v", path, err)
	}
}

func TestFindDDLPathFollowsRename(t *testing.T) {
	r := vcs.NewRepository("acme/app")
	r.StageString("old.sql", "CREATE TABLE t (a INT);")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Move("old.sql", "db/schema.sql"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit("move", sig(1, 0)); err != nil {
		t.Fatal(err)
	}
	path, err := FindDDLPath(r)
	if err != nil || path != "db/schema.sql" {
		t.Errorf("FindDDLPath after rename = %q, %v", path, err)
	}
}

func TestExtractProjectHistory(t *testing.T) {
	r := buildRepo(t)
	p, err := ExtractProjectHistory(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommitCount() != 4 {
		t.Fatalf("CommitCount = %d, want 4", p.CommitCount())
	}
	// initial: 2 files; feature: 2; grow: 2; drop: 1.
	if p.TotalFileUpdates() != 7 {
		t.Errorf("TotalFileUpdates = %d, want 7", p.TotalFileUpdates())
	}
	if p.DurationMonths() != 4 {
		t.Errorf("DurationMonths = %d, want 4", p.DurationMonths())
	}
	hb, err := p.Heartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if hb.Len() != 5 || hb.Values[0] != 2 || hb.Values[4] != 1 {
		t.Errorf("project heartbeat = %v", hb.Values)
	}
}

func TestProjectHistoryExcludesMerges(t *testing.T) {
	r := vcs.NewRepository("acme/app")
	r.StageString("a.txt", "1")
	base, err := r.Commit("base", sig(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	r.StageString("b.txt", "2")
	if _, err := r.CommitMerge("merge", sig(1, 0), base.Hash); err != nil {
		t.Fatal(err)
	}
	p, err := ExtractProjectHistory(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommitCount() != 1 {
		t.Errorf("CommitCount = %d, want 1 (merge excluded)", p.CommitCount())
	}
}

func TestProjectHistoryFromLog(t *testing.T) {
	logText := strings.Join([]string{
		"commit bbb",
		"Author: Dev <d@e.f>",
		"Date:   2016-02-01 10:00:00 +0000",
		"",
		"    second",
		"",
		"M\tschema.sql",
		"A\tnew.js",
		"",
		"commit aaa",
		"Author: Dev <d@e.f>",
		"Date:   2016-01-01 10:00:00 +0000",
		"",
		"    first",
		"",
		"A\tschema.sql",
		"",
	}, "\n")
	entries, err := gitlog.Parse(strings.NewReader(logText))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ProjectHistoryFromLog(entries)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommitCount() != 2 {
		t.Fatalf("CommitCount = %d", p.CommitCount())
	}
	if p.Commits[0].Files != 1 || p.Commits[1].Files != 2 {
		t.Errorf("commits = %+v", p.Commits)
	}
	if _, err := ProjectHistoryFromLog(nil); !errors.Is(err, ErrEmptyRepo) {
		t.Errorf("empty log err = %v", err)
	}
}

func TestSchemaAndProjectHeartbeatsAlignable(t *testing.T) {
	r := buildRepo(t)
	sh, _ := ExtractSchemaHistory(r, "schema.sql", DefaultOptions())
	ph, _ := ExtractProjectHistory(r)
	shb, err1 := sh.Heartbeat()
	phb, err2 := ph.Heartbeat()
	if err1 != nil || err2 != nil {
		t.Fatalf("heartbeats: %v %v", err1, err2)
	}
	if shb.Start != phb.Start {
		t.Errorf("heartbeat starts differ: %s vs %s", shb.Start, phb.Start)
	}
}

func TestExtractProjectHistoryWithLines(t *testing.T) {
	r := vcs.NewRepository("acme/lines")
	commit := func(msg string, s vcs.Signature) {
		t.Helper()
		if _, err := r.Commit(msg, s); err != nil {
			t.Fatal(err)
		}
	}
	r.StageString("a.txt", "one\ntwo\nthree\n")
	commit("init", sig(0, 0)) // 3 lines added

	r.StageString("a.txt", "one\nTWO\nthree\nfour\n") // 1 replaced (1+1) + 1 added
	r.StageString("b.txt", "x\ny\n")                  // 2 added
	commit("edit", sig(1, 0))

	r.Remove("b.txt") // 2 removed
	commit("drop b", sig(2, 0))

	p, err := ExtractProjectHistoryWithLines(r)
	if err != nil {
		t.Fatal(err)
	}
	if p.CommitCount() != 3 {
		t.Fatalf("commits = %d", p.CommitCount())
	}
	wantLines := []int{3, 5, 2}
	for i, want := range wantLines {
		if p.Commits[i].Lines != want {
			t.Errorf("commit %d lines = %d, want %d", i, p.Commits[i].Lines, want)
		}
	}
	if p.TotalLineChurn() != 10 {
		t.Errorf("TotalLineChurn = %d, want 10", p.TotalLineChurn())
	}
	hb, err := p.LineHeartbeat()
	if err != nil {
		t.Fatal(err)
	}
	if hb.Total() != 10 {
		t.Errorf("line heartbeat total = %v", hb.Total())
	}
	// The file-count view is still present.
	if p.Commits[1].Files != 2 {
		t.Errorf("files of edit commit = %d, want 2", p.Commits[1].Files)
	}
}

func TestLineChurnFollowsRenames(t *testing.T) {
	r := vcs.NewRepository("acme/rename-lines")
	r.StageString("old.txt", "a\nb\nc\n")
	if _, err := r.Commit("init", sig(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Move("old.txt", "new.txt"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit("rename", sig(1, 0)); err != nil {
		t.Fatal(err)
	}
	p, err := ExtractProjectHistoryWithLines(r)
	if err != nil {
		t.Fatal(err)
	}
	// A pure rename moves content without churn.
	if p.Commits[1].Lines != 0 {
		t.Errorf("pure rename churn = %d, want 0", p.Commits[1].Lines)
	}
}

func TestSchemaHistoryFromContents(t *testing.T) {
	versions := []DatedContent{
		{When: time.Date(2016, 5, 1, 0, 0, 0, 0, time.UTC), Content: []byte("CREATE TABLE t (a INT, b INT);")},
		{When: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), Content: []byte("CREATE TABLE t (a INT);")},
		{When: time.Date(2016, 9, 1, 0, 0, 0, 0, time.UTC), Content: []byte("CREATE TABLE t (a INT);")},
	}
	sh, err := SchemaHistoryFromContents("schema.sql", versions, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Versions must have been sorted: Jan (1 attr), May (2 attrs), Sep
	// (back to 1 attr).
	if sh.CommitCount() != 3 {
		t.Fatalf("commits = %d", sh.CommitCount())
	}
	if sh.Activity(0) != 1 || sh.Activity(1) != 1 || sh.Activity(2) != 1 {
		t.Errorf("activities = %d %d %d", sh.Activity(0), sh.Activity(1), sh.Activity(2))
	}
	if _, err := SchemaHistoryFromContents("x.sql", nil, DefaultOptions()); err == nil {
		t.Error("empty content list should fail")
	}
}

// TestParseVersionNames: one parser orders the "YYYY-MM-DD[.N]" names of
// ingested DDL versions. The sequence is ASCII digits only, two names
// for one date and sequence are an error naming both, and neither the
// order nor the error depends on the order of the input.
func TestParseVersionNames(t *testing.T) {
	at := func(month, day, minute int) time.Time {
		return time.Date(2016, time.Month(month), day, 0, minute, 0, 0, time.UTC)
	}
	cases := []struct {
		names []string
		want  []VersionName // commit order; nil when err is set
		err   string        // substring of the expected error
	}{
		{names: []string{"2016-01-10"}, want: []VersionName{{"2016-01-10", at(1, 10, 0)}}},
		{names: []string{"2016-01-10.3"}, want: []VersionName{{"2016-01-10.3", at(1, 10, 0)}}},
		// Same-day versions order by sequence; every version is a minute
		// after the one before it.
		{names: []string{"2016-01-10.1", "2016-01-10", "2016-02-01"}, want: []VersionName{
			{"2016-01-10", at(1, 10, 0)}, {"2016-01-10.1", at(1, 10, 1)}, {"2016-02-01", at(2, 1, 2)},
		}},
		// Sequences compare as numbers, not as text.
		{names: []string{"2016-01-10.10", "2016-01-10.9", "2016-01-10.0"}, want: []VersionName{
			{"2016-01-10.0", at(1, 10, 0)}, {"2016-01-10.9", at(1, 10, 1)}, {"2016-01-10.10", at(1, 10, 2)},
		}},
		{names: []string{"not-a-date"}, err: `"not-a-date"`},
		{names: []string{""}, err: `""`},
		{names: []string{"2016-13-40"}, err: `"2016-13-40"`},
		{names: []string{"2016-01-10.x"}, err: `"2016-01-10.x"`},
		{names: []string{"2016-01-10."}, err: `"2016-01-10."`},
		{names: []string{"2016-01-10.1abc"}, err: `"2016-01-10.1abc"`},
		{names: []string{"2016-01-10.-1"}, err: `"2016-01-10.-1"`},
		{names: []string{"2016-01-10.+1"}, err: `"2016-01-10.+1"`},
		{names: []string{"2016-01-10. 1"}, err: `"2016-01-10. 1"`},
		{names: []string{"2016-01-10.1.2"}, err: `"2016-01-10.1.2"`},
		{names: []string{"2016-01-10.99999999999999999999"}, err: `"2016-01-10.99999999999999999999"`},
		// Names that resolve to one date and sequence have no order.
		{names: []string{"2016-01-10", "2016-01-10.0"}, err: `"2016-01-10" and "2016-01-10.0"`},
		{names: []string{"2016-01-10.1", "2016-01-10.01"}, err: `"2016-01-10.01" and "2016-01-10.1"`},
		{names: []string{"2016-01-10.01", "2016-01-10.1", "2016-01-10.0", "2016-01-10"}, err: `"2016-01-10" and "2016-01-10.0"`},
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		names := append([]string(nil), c.names...)
		for round := 0; round < 20; round++ {
			got, err := ParseVersionNames(names)
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Errorf("ParseVersionNames(%q) = %v, %v; want an error naming %s", names, got, err, c.err)
				}
			} else if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Errorf("ParseVersionNames(%q) = %v, %v; want %v", names, got, err, c.want)
			}
			rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		}
	}
}

func TestSchemaHistoryFromContentsIdenticalVersions(t *testing.T) {
	ddl := []byte("CREATE TABLE t (a INT);")
	versions := []DatedContent{
		{When: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), Content: ddl},
		{When: time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC), Content: ddl},
	}
	sh, err := SchemaHistoryFromContents("schema.sql", versions, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both versions survive; the second is an inactive commit.
	if sh.CommitCount() != 2 || sh.ActiveCommits() != 1 {
		t.Errorf("commits = %d active = %d", sh.CommitCount(), sh.ActiveCommits())
	}
}

// TestParseHealthFromContents pins the per-version parse reports and
// their aggregate: one clean version, one with a malformed CREATE TABLE
// the parser recovers from, one whose ALTER names a missing table, and a
// byte-identical repeat of it.
func TestParseHealthFromContents(t *testing.T) {
	missingAlter := []byte("CREATE TABLE t (a INT, b INT);\nALTER TABLE missing ADD COLUMN c INT;\n")
	versions := []DatedContent{
		{When: time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC), Content: []byte("CREATE TABLE t (a INT);\n")},
		{When: time.Date(2016, 2, 1, 0, 0, 0, 0, time.UTC), Content: []byte("CREATE TABLE t (a INT, b INT);\nCREATE TABLE broken (x INT;\n")},
		{When: time.Date(2016, 3, 1, 0, 0, 0, 0, time.UTC), Content: missingAlter},
		{When: time.Date(2016, 4, 1, 0, 0, 0, 0, time.UTC), Content: missingAlter},
	}
	sh, err := SchemaHistoryFromContents("schema.sql", versions, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		stats sqlddl.ParseStats
		codes []string
		line  int // line of the single diagnostic, if any
	}{
		{sqlddl.ParseStats{Attempted: 1, Parsed: 1}, nil, 0},
		{sqlddl.ParseStats{Attempted: 2, Parsed: 1, Recovered: 1}, []string{sqlddl.CodeSynToken}, 2},
		{sqlddl.ParseStats{Attempted: 2, Parsed: 2}, []string{sqlddl.CodeSemApply}, 2},
		{sqlddl.ParseStats{Attempted: 2, Parsed: 2}, []string{sqlddl.CodeSemApply}, 2},
	}
	if len(sh.Versions) != len(want) {
		t.Fatalf("versions = %d, want %d", len(sh.Versions), len(want))
	}
	for i, w := range want {
		rep := sh.Versions[i].Report
		if rep.Dialect != sqlddl.Generic || rep.Stats != w.stats {
			t.Errorf("version %d: dialect %s stats %+v, want generic %+v", i, rep.Dialect, rep.Stats, w.stats)
		}
		var codes []string
		for _, d := range rep.Diags {
			codes = append(codes, d.Code)
			if d.Category != sqlddl.CategoryOf(d.Code) || d.Line != w.line {
				t.Errorf("version %d: diagnostic %+v, want category %q on line %d", i, d, sqlddl.CategoryOf(d.Code), w.line)
			}
		}
		if !reflect.DeepEqual(codes, w.codes) {
			t.Errorf("version %d: codes %v, want %v", i, codes, w.codes)
		}
		if got := rep.Clean(); got != (i == 0) {
			t.Errorf("version %d: Clean = %v", i, got)
		}
	}
	got := sh.ParseHealth()
	wantHealth := ParseHealth{
		Dialect:       "generic",
		Versions:      4,
		CleanVersions: 1,
		Stats:         sqlddl.ParseStats{Attempted: 7, Parsed: 6, Recovered: 1},
		Syntax:        1,
		Semantic:      2,
		NoOpCommits:   1,
	}
	if got != wantHealth {
		t.Errorf("ParseHealth = %+v\nwant          %+v", got, wantHealth)
	}
}
