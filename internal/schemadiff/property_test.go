package schemadiff_test

import (
	"math/rand"
	"testing"

	"coevo/internal/schemadiff"
	"coevo/internal/schematest"
)

// TestCompareSelfIsEmpty: diffing any schema against itself yields no
// change at all.
func TestCompareSelfIsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		s := schematest.RandomSchema(rng)
		d := schemadiff.Compare(s, s)
		if !d.IsEmpty() {
			t.Fatalf("Compare(s, s) not empty: %s", d)
		}
		if len(d.Changes) != 0 {
			t.Fatalf("Compare(s, s) recorded %d changes", len(d.Changes))
		}
	}
}

// TestTotalActivityEqualsCounterSum: TotalActivity is exactly the sum of
// the six attribute-level counters, and every counter agrees with the
// per-change record list.
func TestTotalActivityEqualsCounterSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		a, b := schematest.RandomSchema(rng), schematest.RandomSchema(rng)
		d := schemadiff.Compare(a, b)
		sum := d.AttrsBornWithTable + d.AttrsInjected + d.AttrsDeletedWithTable +
			d.AttrsEjected + d.AttrsTypeChanged + d.AttrsPKChanged
		if d.TotalActivity() != sum {
			t.Fatalf("TotalActivity %d != counter sum %d", d.TotalActivity(), sum)
		}
		perKind := map[schemadiff.ChangeKind]int{}
		for _, ch := range d.Changes {
			perKind[ch.Kind]++
		}
		wantPerKind := map[schemadiff.ChangeKind]int{
			schemadiff.AttrBornWithTable:    d.AttrsBornWithTable,
			schemadiff.AttrInjected:         d.AttrsInjected,
			schemadiff.AttrDeletedWithTable: d.AttrsDeletedWithTable,
			schemadiff.AttrEjected:          d.AttrsEjected,
			schemadiff.AttrTypeChanged:      d.AttrsTypeChanged,
			schemadiff.AttrPKChanged:        d.AttrsPKChanged,
		}
		for kind, want := range wantPerKind {
			if perKind[kind] != want {
				t.Fatalf("counter for %s is %d but %d changes recorded", kind, want, perKind[kind])
			}
		}
	}
}

// TestBornDeletedSymmetry: swapping the arguments turns births into
// deaths and vice versa, both at the table and at the attribute level.
func TestBornDeletedSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		a, b := schematest.RandomSchema(rng), schematest.RandomSchema(rng)
		fwd, rev := schemadiff.Compare(a, b), schemadiff.Compare(b, a)
		if fwd.TablesCreated != rev.TablesDropped || fwd.TablesDropped != rev.TablesCreated {
			t.Fatalf("table birth/death not symmetric: fwd %s / rev %s", fwd, rev)
		}
		if fwd.AttrsBornWithTable != rev.AttrsDeletedWithTable ||
			fwd.AttrsDeletedWithTable != rev.AttrsBornWithTable {
			t.Fatalf("attr birth/death not symmetric: fwd %s / rev %s", fwd, rev)
		}
		if fwd.AttrsInjected != rev.AttrsEjected || fwd.AttrsEjected != rev.AttrsInjected {
			t.Fatalf("injected/ejected not symmetric: fwd %s / rev %s", fwd, rev)
		}
		// Type and key changes are direction-independent sets.
		if fwd.AttrsTypeChanged != rev.AttrsTypeChanged || fwd.AttrsPKChanged != rev.AttrsPKChanged {
			t.Fatalf("type/key changes not symmetric: fwd %s / rev %s", fwd, rev)
		}
	}
}
