package querydep

import (
	"reflect"
	"testing"
	"testing/quick"

	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

func TestTableRefs(t *testing.T) {
	cases := []struct {
		sql  string
		want []string
	}{
		{"SELECT * FROM users", []string{"users"}},
		{"SELECT u.name FROM users u JOIN orders o ON o.user_id = u.id", []string{"orders", "users"}},
		{"SELECT * FROM a, b WHERE a.x = b.y", []string{"a", "b"}},
		{"INSERT INTO notes (body) VALUES (?)", []string{"notes"}},
		{"REPLACE INTO cache VALUES (?, ?)", []string{"cache"}},
		{"UPDATE accounts SET balance = balance - ?", []string{"accounts"}},
		{"UPDATE LOW_PRIORITY accounts SET x = 1", []string{"accounts"}},
		{"DELETE FROM sessions WHERE expired", []string{"sessions"}},
		{"SELECT * FROM db.schema_things", []string{"schema_things"}},
		{"SELECT * FROM `quoted table` JOIN \"other\"", []string{"other", "quoted table"}},
		{"CREATE TABLE IF NOT EXISTS fresh (a INT)", []string{"fresh"}},
		{"DROP TABLE old_stuff", []string{"old_stuff"}},
		{"TRUNCATE TABLE logs", []string{"logs"}},
		{"SELECT 1", nil},
		{"SELECT * FROM (SELECT * FROM inner_t) x", []string{"inner_t"}},
		{"SELECT * FROM users WHERE name = 'from fake_table'", []string{"users"}},
	}
	for _, tc := range cases {
		got := TableRefs(tc.sql)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("TableRefs(%q) = %v, want %v", tc.sql, got, tc.want)
		}
	}
}

func TestExtractQueries(t *testing.T) {
	src := []byte(`package app

const listQuery = "SELECT id, body FROM notes WHERE user_id = ?"

func save(db DB) {
	db.Exec('INSERT INTO notes (body) VALUES (?)', body)
	log.Print("not a query at all")
	db.Exec(` + "`" + `
		UPDATE notes SET body = ? WHERE id = ?
	` + "`" + `)
}
`)
	queries := ExtractQueries("app/notes.go", src)
	if len(queries) != 3 {
		t.Fatalf("queries = %d: %+v", len(queries), queries)
	}
	verbs := map[string]bool{}
	for _, q := range queries {
		verbs[q.Verb] = true
		if len(q.Tables) != 1 || q.Tables[0] != "notes" {
			t.Errorf("query %q tables = %v", q.Text, q.Tables)
		}
	}
	for _, v := range []string{"SELECT", "INSERT", "UPDATE"} {
		if !verbs[v] {
			t.Errorf("verb %s not extracted", v)
		}
	}
}

func TestExtractQueriesEscapes(t *testing.T) {
	src := []byte(`q := "SELECT * FROM a WHERE s = \"x\""`)
	queries := ExtractQueries("f.go", src)
	if len(queries) != 1 || queries[0].Tables[0] != "a" {
		t.Fatalf("queries = %+v", queries)
	}
}

func TestResolve(t *testing.T) {
	s, rep := schema.ParseAndBuildDialect("CREATE TABLE notes (id INT); CREATE TABLE users (id INT);", sqlddl.Generic)
	if !rep.Clean() {
		t.Fatal(rep.Diags)
	}
	src := []byte(`
		a := "SELECT * FROM notes JOIN missing_table ON 1=1"
		b := "DELETE FROM users"
	`)
	dep := Resolve("app.go", src, s)
	if dep.Queries != 2 {
		t.Errorf("Queries = %d", dep.Queries)
	}
	// missing_table is not in the schema and must be filtered out.
	if !reflect.DeepEqual(dep.Tables, []string{"notes", "users"}) {
		t.Errorf("Tables = %v", dep.Tables)
	}
}

func TestResolveNoQueries(t *testing.T) {
	s, _ := schema.ParseAndBuildDialect("CREATE TABLE t (a INT);", sqlddl.Generic)
	dep := Resolve("plain.go", []byte(`package plain // nothing here`), s)
	if dep.Queries != 0 || len(dep.Tables) != 0 {
		t.Errorf("dep = %+v", dep)
	}
}

// Property: TableRefs never panics and returns sorted, deduplicated,
// lower-cased names for arbitrary input.
func TestQuickTableRefsRobust(t *testing.T) {
	f := func(s string) bool {
		refs := TableRefs(s)
		for i, r := range refs {
			if r != string([]byte(r)) || r == "" {
				return false
			}
			if i > 0 && refs[i-1] >= r {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: ExtractQueries never panics on arbitrary content.
func TestQuickExtractRobust(t *testing.T) {
	f := func(content []byte) bool {
		_ = ExtractQueries("f", content)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
