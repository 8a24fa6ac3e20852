package schemadiff_test

import (
	"testing"

	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
)

// FuzzCompare asserts the diff engine's safety net over arbitrary —
// including unparseable — DDL pairs: Compare never panics, every counter
// is non-negative, TotalActivity is the counter sum, and self-comparison
// is empty. Run with `go test -fuzz=FuzzCompare ./internal/schemadiff`.
func FuzzCompare(f *testing.F) {
	seeds := [][2]string{
		{"", ""},
		{"CREATE TABLE t (a INT);", "CREATE TABLE t (a BIGINT);"},
		{"CREATE TABLE t (a INT, PRIMARY KEY (a));", "CREATE TABLE t (a INT);"},
		{"CREATE TABLE a (x INT); CREATE TABLE b (y INT);", "CREATE TABLE b (y INT);"},
		{"garbage not sql", "CREATE TABLE t (a INT);"},
		{"CREATE TABLE t (a int", "CREATE TABLE t (a int);"},
		{"CREATE TABLE `T` (a INT);", "CREATE TABLE t (A varchar(3));"},
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
	})
}
