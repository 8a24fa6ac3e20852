package schemadiff_test

import (
	"reflect"
	"testing"

	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/schematest"
	"coevo/internal/sqlddl"
)

// FuzzCompare asserts the diff engine's safety net over arbitrary —
// including unparseable — DDL pairs: Compare never panics, every counter
// is non-negative, TotalActivity is the counter sum, and self-comparison
// is empty. Built as two versions through one schema.Builder, old side
// first, the pair must give the fresh builds' schemas and delta, and
// building the new side must leave the old one as it was. Run with
// `go test -fuzz=FuzzCompare ./internal/schemadiff`.
func FuzzCompare(f *testing.F) {
	const create = "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a)); CREATE TABLE u (c INT);"
	seeds := [][2]string{
		{"", ""},
		{"CREATE TABLE t (a INT);", "CREATE TABLE t (a BIGINT);"},
		{"CREATE TABLE t (a INT, PRIMARY KEY (a));", "CREATE TABLE t (a INT);"},
		{"CREATE TABLE a (x INT); CREATE TABLE b (y INT);", "CREATE TABLE b (y INT);"},
		{"garbage not sql", "CREATE TABLE t (a INT);"},
		{"CREATE TABLE t (a int", "CREATE TABLE t (a int);"},
		{"CREATE TABLE `T` (a INT);", "CREATE TABLE t (A varchar(3));"},
		// The new side repeats the old CREATE TABLE statements, then
		// changes a table they declared.
		{create, create},
		{create, create + " ALTER TABLE t ADD COLUMN d INT, DROP COLUMN b;"},
		{create, create + " ALTER TABLE t MODIFY COLUMN b BIGINT, DROP PRIMARY KEY;"},
		{create, create + " ALTER TABLE t CHANGE COLUMN a id BIGINT, ADD PRIMARY KEY (id, b);"},
		{create, create + " ALTER TABLE t ALTER COLUMN b TYPE TEXT, RENAME COLUMN b TO e;"},
		{create, create + " ALTER TABLE t RENAME TO v;"},
		{create, create + " RENAME TABLE t TO v, u TO t;"},
		{create, create + " ALTER TABLE u ENGINE = InnoDB;"},
		{create, create + " DROP TABLE t; " + create},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	f.Fuzz(func(t *testing.T, oldSrc, newSrc string) {
		oldSchema, _ := schema.ParseAndBuildDialect(oldSrc, sqlddl.Generic)
		newSchema, _ := schema.ParseAndBuildDialect(newSrc, sqlddl.Generic)
		d := schemadiff.Compare(oldSchema, newSchema)
		counts := []int{
			d.TablesCreated, d.TablesDropped,
			d.AttrsBornWithTable, d.AttrsInjected, d.AttrsDeletedWithTable,
			d.AttrsEjected, d.AttrsTypeChanged, d.AttrsPKChanged,
		}
		sum := 0
		for _, n := range counts {
			if n < 0 {
				t.Fatalf("negative counter in %s", d)
			}
		}
		for _, n := range counts[2:] {
			sum += n
		}
		if d.TotalActivity() != sum || d.TotalActivity() < 0 {
			t.Fatalf("TotalActivity %d != counter sum %d", d.TotalActivity(), sum)
		}
		if len(d.Changes) != sum {
			t.Fatalf("%d change records for activity %d", len(d.Changes), sum)
		}
		for _, s := range []*schema.Schema{oldSchema, newSchema} {
			if self := schemadiff.Compare(s, s); !self.IsEmpty() {
				t.Fatalf("Compare(s, s) not empty: %s", self)
			}
		}

		var b schema.Builder
		oldShared, _ := b.ParseAndBuild(oldSrc, sqlddl.Generic)
		oldDump := schematest.Dump(oldShared)
		newShared, _ := b.ParseAndBuild(newSrc, sqlddl.Generic)
		if want := schematest.Dump(oldSchema); oldDump != want {
			t.Fatalf("old side through a Builder:\n got %s\nwant %s", oldDump, want)
		}
		if got := schematest.Dump(oldShared); got != oldDump {
			t.Fatalf("building the new side changed the old one:\n got %s\nwant %s", got, oldDump)
		}
		if got, want := schematest.Dump(newShared), schematest.Dump(newSchema); got != want {
			t.Fatalf("new side through a Builder:\n got %s\nwant %s", got, want)
		}
		if shared := schemadiff.Compare(oldShared, newShared); !reflect.DeepEqual(shared, d) {
			t.Fatalf("delta through a Builder: %s, fresh builds: %s", shared, d)
		}
	})
}
