package impact

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"coevo/internal/history"
	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
	"coevo/internal/vcs"
)

func mustSchema(t *testing.T, src string) *schema.Schema {
	t.Helper()
	s, rep := schema.ParseAndBuildDialect(src, sqlddl.Generic)
	if !rep.Clean() {
		t.Fatal(rep.Diags)
	}
	return s
}

func TestScanContent(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE users (id INT, email TEXT, nickname TEXT);")
	code := []byte(`
		// load a user by email
		db.query("SELECT email, nickname FROM users WHERE email = ?", addr)
		var trousers = "not a table reference"
		const EMAIL = "also counts case-insensitively"
	`)
	refs, err := ScanContent("app.go", code, s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	kinds := map[string]ElementKind{}
	for _, r := range refs {
		got[r.Element] = r.Count
		kinds[r.Element] = r.Kind
	}
	if got["users"] != 1 {
		t.Errorf("users count = %d, want 1 (trousers must not match)", got["users"])
	}
	if got["email"] != 4 {
		t.Errorf("email count = %d, want 4", got["email"])
	}
	if got["nickname"] != 1 {
		t.Errorf("nickname count = %d", got["nickname"])
	}
	if kinds["users"] != TableElement || kinds["email"] != AttributeElement {
		t.Errorf("kinds = %v", kinds)
	}
	// "id" is below the minimum name length and must not appear.
	if _, ok := got["id"]; ok {
		t.Error("short element names should be suppressed")
	}
}

func TestScanContentEmptySchema(t *testing.T) {
	if _, err := ScanContent("a.go", []byte("x"), schema.New(), DefaultOptions()); !errors.Is(err, ErrNoSchema) {
		t.Errorf("err = %v, want ErrNoSchema", err)
	}
}

func buildImpactRepo(t *testing.T) (*vcs.Repository, *history.SchemaHistory) {
	t.Helper()
	r := vcs.NewRepository("acme/app")
	when := func(m, c int) vcs.Signature {
		return vcs.Signature{Name: "d", Email: "d@e.f",
			When: time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, m, c)}
	}
	commit := func(msg string, s vcs.Signature) {
		t.Helper()
		if _, err := r.Commit(msg, s); err != nil {
			t.Fatal(err)
		}
	}

	r.StageString("schema.sql", "CREATE TABLE orders (id INT, total INT); CREATE TABLE customers (id INT, fullname TEXT);")
	r.StageString("app/orders.go", "package app // talks to orders and total")
	r.StageString("app/customers.go", "package app // customers fullname")
	r.StageString("app/util.go", "package app // nothing schema-ish")
	commit("init", when(0, 0))

	r.StageString("app/util.go", "package app // v2")
	commit("pre-change work", when(1, 0))

	// Active schema commit touching source in the same revision.
	r.StageString("schema.sql", "CREATE TABLE orders (id INT, total INT, discount INT); CREATE TABLE customers (id INT, fullname TEXT);")
	r.StageString("app/orders.go", "package app // now with discount on orders total")
	commit("add discount", when(2, 0))

	r.StageString("app/customers.go", "package app // post-change adaptation")
	commit("post-change work", when(2, 1))

	// Active schema commit with no co-located source change.
	r.StageString("schema.sql", "CREATE TABLE orders (id INT, total INT, discount INT);")
	commit("drop customers", when(4, 0))

	sh, err := history.ExtractSchemaHistory(r, "schema.sql", history.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return r, sh
}

func TestScanRepositoryAndAffectedFiles(t *testing.T) {
	r, sh := buildImpactRepo(t)
	ix, err := ScanRepository(r, "schema.sql", sh.FinalSchema(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	files := ix.FilesReferencing("orders")
	if !reflect.DeepEqual(files, []string{"app/orders.go"}) {
		t.Errorf("orders referenced by %v", files)
	}
	// The delta that added orders.discount affects the files referencing
	// the table/attribute.
	var discountDelta *schemadiff.Delta
	for _, d := range sh.Deltas {
		for _, ch := range d.Changes {
			if ch.Attribute == "discount" {
				discountDelta = d
			}
		}
	}
	if discountDelta == nil {
		t.Fatal("discount delta not found")
	}
	affected := ix.AffectedFiles(discountDelta)
	if !reflect.DeepEqual(affected, []string{"app/orders.go"}) {
		t.Errorf("affected = %v", affected)
	}
}

func TestCoChange(t *testing.T) {
	r, sh := buildImpactRepo(t)
	stats, err := CoChange(r, sh, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ActiveSchemaCommits != 3 { // birth + discount + drop
		t.Fatalf("ActiveSchemaCommits = %d, want 3", stats.ActiveSchemaCommits)
	}
	// Birth and discount commits touch source files themselves; the drop
	// commit does not: 2/3.
	if stats.SameCommitShare < 0.66 || stats.SameCommitShare > 0.67 {
		t.Errorf("SameCommitShare = %v, want 2/3", stats.SameCommitShare)
	}
	inj := stats.PerKind[schemadiff.AttrInjected]
	if inj == nil || inj.Changes != 1 {
		t.Fatalf("injected impact = %+v", inj)
	}
	// Window 1 around the discount commit: pre-change work (util.go),
	// itself (orders.go), post-change work (customers.go) = 3 files.
	if inj.SourceFileUpdates != 3 || inj.Avg() != 3 {
		t.Errorf("injected churn = %d (avg %v), want 3", inj.SourceFileUpdates, inj.Avg())
	}
	del := stats.PerKind[schemadiff.AttrDeletedWithTable]
	if del == nil || del.Changes != 2 {
		t.Errorf("deleted-with-table impact = %+v", del)
	}
}

func TestCoChangeZeroWindow(t *testing.T) {
	r, sh := buildImpactRepo(t)
	stats, err := CoChange(r, sh, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj := stats.PerKind[schemadiff.AttrInjected]
	if inj.SourceFileUpdates != 1 { // only the commit's own source change
		t.Errorf("zero-window churn = %d, want 1", inj.SourceFileUpdates)
	}
	if _, err := CoChange(r, sh, -1); err == nil {
		t.Error("negative window should fail")
	}
}

func TestCoChangeEmptyRepo(t *testing.T) {
	r := vcs.NewRepository("acme/empty")
	if _, err := CoChange(r, &history.SchemaHistory{}, 1); err == nil {
		t.Error("empty repo should fail")
	}
}

// Property: scanning is insensitive to content case and to how tokens are
// delimited, and counts are always positive.
func TestQuickScanTokenization(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE widgets (serial INT, label TEXT);")
	delims := []string{" ", "\n", "(", ")", ".", ",", "\"", "'", ";", "\t"}
	f := func(pre, post uint8, upper bool) bool {
		d1 := delims[int(pre)%len(delims)]
		d2 := delims[int(post)%len(delims)]
		token := "widgets"
		if upper {
			token = "WIDGETS"
		}
		content := []byte("x" + d1 + token + d2 + "y")
		refs, err := ScanContent("f.go", content, s, DefaultOptions())
		if err != nil {
			return false
		}
		for _, r := range refs {
			if r.Element == "widgets" && r.Count == 1 {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestScanRepositoryQueries(t *testing.T) {
	r := vcs.NewRepository("acme/queries")
	when := vcs.Signature{Name: "d", Email: "d@e.f", When: time.Date(2018, 4, 1, 0, 0, 0, 0, time.UTC)}
	r.StageString("schema.sql", "CREATE TABLE orders (id INT); CREATE TABLE customers (id INT);")
	r.StageString("app/orders.go", `package app
var q = "SELECT * FROM orders WHERE id = ?"`)
	r.StageString("app/readme.md", "This documents the orders concept without querying it.")
	if _, err := r.Commit("init", when); err != nil {
		t.Fatal(err)
	}
	sh, err := history.ExtractSchemaHistory(r, "schema.sql", history.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix, err := ScanRepositoryQueries(r, "schema.sql", sh.FinalSchema(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Only the file actually querying the table counts — not the prose.
	if got := ix.FilesReferencing("orders"); !reflect.DeepEqual(got, []string{"app/orders.go"}) {
		t.Errorf("orders refs = %v", got)
	}
	if got := ix.FilesReferencing("customers"); len(got) != 0 {
		t.Errorf("customers refs = %v", got)
	}
	empty := vcs.NewRepository("acme/empty")
	if _, err := ScanRepositoryQueries(empty, "x.sql", sh.FinalSchema(), DefaultOptions()); err == nil {
		t.Error("empty repo should fail")
	}
}
