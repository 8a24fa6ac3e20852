package schemadiff

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

func mustSchema(t *testing.T, src string) *schema.Schema {
	t.Helper()
	s, rep := schema.ParseAndBuildDialect(src, sqlddl.Generic)
	if !rep.Clean() {
		t.Fatalf("ParseAndBuildDialect(%q): %v", src, rep.Diags)
	}
	return s
}

func TestCompareBirth(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE t (a INT, b TEXT, PRIMARY KEY (a));")
	d := Compare(nil, s)
	if d.TablesCreated != 1 || d.AttrsBornWithTable != 2 {
		t.Errorf("birth delta = %+v", d)
	}
	if d.TotalActivity() != 2 {
		t.Errorf("TotalActivity = %d, want 2", d.TotalActivity())
	}
}

func TestCompareIdentical(t *testing.T) {
	a := mustSchema(t, "CREATE TABLE t (a INT, b TEXT);")
	b := mustSchema(t, "create table T (A integer, B text);") // case + synonym
	d := Compare(a, b)
	if !d.IsEmpty() {
		t.Errorf("identical schemas produced delta: %v (changes %v)", d, d.Changes)
	}
	if d.String() != "no change" {
		t.Errorf("String() = %q", d.String())
	}
}

func TestCompareTableCreationAndDrop(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE keep (a INT); CREATE TABLE gone (x INT, y INT, z INT);")
	new_ := mustSchema(t, "CREATE TABLE keep (a INT); CREATE TABLE fresh (p INT, q INT);")
	d := Compare(old, new_)
	if d.TablesCreated != 1 || d.TablesDropped != 1 {
		t.Errorf("tables: %+v", d)
	}
	if d.AttrsBornWithTable != 2 || d.AttrsDeletedWithTable != 3 {
		t.Errorf("attrs born/deleted = %d/%d, want 2/3", d.AttrsBornWithTable, d.AttrsDeletedWithTable)
	}
	if d.TotalActivity() != 5 {
		t.Errorf("TotalActivity = %d, want 5", d.TotalActivity())
	}
}

func TestCompareInjectionEjection(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE t (a INT, b INT);")
	new_ := mustSchema(t, "CREATE TABLE t (a INT, c INT, d INT);")
	d := Compare(old, new_)
	if d.AttrsInjected != 2 || d.AttrsEjected != 1 {
		t.Errorf("injected/ejected = %d/%d, want 2/1", d.AttrsInjected, d.AttrsEjected)
	}
	if d.TablesCreated != 0 || d.TablesDropped != 0 {
		t.Errorf("surviving table miscounted: %+v", d)
	}
}

func TestCompareTypeChange(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE t (a VARCHAR(10), b INT);")
	new_ := mustSchema(t, "CREATE TABLE t (a VARCHAR(20), b INTEGER);")
	d := Compare(old, new_)
	// VARCHAR(10)->VARCHAR(20) is a change; INT->INTEGER is a synonym.
	if d.AttrsTypeChanged != 1 {
		t.Errorf("type changes = %d, want 1; changes: %v", d.AttrsTypeChanged, d.Changes)
	}
	var found bool
	for _, c := range d.Changes {
		if c.Kind == AttrTypeChanged {
			found = true
			if c.OldType != "VARCHAR(10)" || c.NewType != "VARCHAR(20)" {
				t.Errorf("types = %q -> %q", c.OldType, c.NewType)
			}
			if !strings.Contains(c.String(), "->") {
				t.Errorf("String() = %q", c.String())
			}
		}
	}
	if !found {
		t.Error("AttrTypeChanged record missing")
	}
}

func TestComparePKChange(t *testing.T) {
	old := mustSchema(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (a));")
	new_ := mustSchema(t, "CREATE TABLE t (a INT, b INT, PRIMARY KEY (b));")
	d := Compare(old, new_)
	// Both a (left the key) and b (joined the key) changed participation.
	if d.AttrsPKChanged != 2 {
		t.Errorf("pk changes = %d, want 2; %v", d.AttrsPKChanged, d.Changes)
	}
}

func TestCompareToEmpty(t *testing.T) {
	s := mustSchema(t, "CREATE TABLE t (a INT);")
	d := Compare(s, nil)
	if d.TablesDropped != 1 || d.AttrsDeletedWithTable != 1 {
		t.Errorf("delta to empty = %+v", d)
	}
}

func TestSequence(t *testing.T) {
	v1 := mustSchema(t, "CREATE TABLE t (a INT);")
	v2 := mustSchema(t, "CREATE TABLE t (a INT, b INT);")
	v3 := mustSchema(t, "CREATE TABLE t (a INT, b INT); CREATE TABLE u (x INT);")
	deltas := Sequence([]*schema.Schema{v1, v2, v3})
	if len(deltas) != 2 {
		t.Fatalf("len(deltas) = %d, want 2", len(deltas))
	}
	if deltas[0].AttrsInjected != 1 {
		t.Errorf("delta1 = %+v", deltas[0])
	}
	if deltas[1].TablesCreated != 1 || deltas[1].AttrsBornWithTable != 1 {
		t.Errorf("delta2 = %+v", deltas[1])
	}
	if TotalActivity(deltas) != 2 {
		t.Errorf("TotalActivity = %d, want 2", TotalActivity(deltas))
	}
	if Sequence([]*schema.Schema{v1}) != nil {
		t.Error("single version should yield nil deltas")
	}
}

func TestChangeKindStrings(t *testing.T) {
	kinds := []ChangeKind{AttrBornWithTable, AttrInjected, AttrDeletedWithTable, AttrEjected, AttrTypeChanged, AttrPKChanged}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || s == "unknown" || seen[s] {
			t.Errorf("kind %d has bad string %q", k, s)
		}
		seen[s] = true
	}
}

// Property: Compare(a, b) and Compare(b, a) are symmetric — births become
// deletions, injections become ejections, and TotalActivity is preserved.
func TestQuickSymmetry(t *testing.T) {
	gen := func(tables, attrs int) *schema.Schema {
		var b strings.Builder
		for i := 0; i < tables; i++ {
			fmt.Fprintf(&b, "CREATE TABLE t%d (", i)
			for j := 0; j <= (attrs+i)%5; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "c%d INT", j)
			}
			b.WriteString(");")
		}
		s, _ := schema.ParseAndBuildDialect(b.String(), sqlddl.Generic)
		return s
	}
	f := func(ta, aa, tb, ab uint8) bool {
		a := gen(int(ta%4)+1, int(aa))
		b := gen(int(tb%4)+1, int(ab))
		fwd := Compare(a, b)
		rev := Compare(b, a)
		if fwd.TotalActivity() != rev.TotalActivity() {
			return false
		}
		return fwd.TablesCreated == rev.TablesDropped &&
			fwd.TablesDropped == rev.TablesCreated &&
			fwd.AttrsBornWithTable == rev.AttrsDeletedWithTable &&
			fwd.AttrsInjected == rev.AttrsEjected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: a self-diff is always empty, for arbitrary generated schemas.
func TestQuickSelfDiffEmpty(t *testing.T) {
	f := func(tables uint8, attrs uint8, withPK bool) bool {
		var b strings.Builder
		for i := 0; i <= int(tables%6); i++ {
			fmt.Fprintf(&b, "CREATE TABLE t%d (", i)
			n := int(attrs%7) + 1
			for j := 0; j < n; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "c%d VARCHAR(%d)", j, j+1)
			}
			if withPK {
				b.WriteString(", PRIMARY KEY (c0)")
			}
			b.WriteString(");")
		}
		s, _ := schema.ParseAndBuildDialect(b.String(), sqlddl.Generic)
		return Compare(s, s).IsEmpty() && Compare(s, s.Clone()).IsEmpty()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the Changes list is always consistent with the counters.
func TestQuickChangesMatchCounters(t *testing.T) {
	f := func(seedA, seedB uint16) bool {
		mk := func(seed uint16) *schema.Schema {
			var b strings.Builder
			nt := int(seed%3) + 1
			for i := 0; i < nt; i++ {
				fmt.Fprintf(&b, "CREATE TABLE t%d (", i)
				na := int(seed/3)%4 + 1
				for j := 0; j < na; j++ {
					if j > 0 {
						b.WriteString(", ")
					}
					ty := []string{"INT", "TEXT", "VARCHAR(5)"}[(int(seed)+i+j)%3]
					fmt.Fprintf(&b, "c%d %s", j, ty)
				}
				b.WriteString(");")
			}
			s, _ := schema.ParseAndBuildDialect(b.String(), sqlddl.Generic)
			return s
		}
		d := Compare(mk(seedA), mk(seedB))
		counts := map[ChangeKind]int{}
		for _, c := range d.Changes {
			counts[c.Kind]++
		}
		return counts[AttrBornWithTable] == d.AttrsBornWithTable &&
			counts[AttrInjected] == d.AttrsInjected &&
			counts[AttrDeletedWithTable] == d.AttrsDeletedWithTable &&
			counts[AttrEjected] == d.AttrsEjected &&
			counts[AttrTypeChanged] == d.AttrsTypeChanged &&
			counts[AttrPKChanged] == d.AttrsPKChanged &&
			len(d.Changes) == d.TotalActivity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableChangeCounts(t *testing.T) {
	v1 := mustSchema(t, "CREATE TABLE hot (a INT); CREATE TABLE cold (x INT);")
	v2 := mustSchema(t, "CREATE TABLE hot (a INT, b INT); CREATE TABLE cold (x INT);")
	v3 := mustSchema(t, "CREATE TABLE hot (a INT, b INT, c INT); CREATE TABLE cold (x INT);")
	deltas := Sequence([]*schema.Schema{v1, v2, v3})
	counts := TableChangeCounts(deltas)
	if counts["hot"] != 2 || counts["cold"] != 0 {
		t.Errorf("counts = %v", counts)
	}
}

func TestMeasureLocality(t *testing.T) {
	// 10 tables; all 8 changes land in two of them: the top-20% cutoff of
	// the 2 changed tables is 1 table (t1, carrying 5 of 8 changes), and
	// 8 of 10 tables never change.
	deltas := []*Delta{{
		Changes: []AttributeChange{
			{Kind: AttrInjected, Table: "t1", Attribute: "a"},
			{Kind: AttrInjected, Table: "t1", Attribute: "b"},
			{Kind: AttrInjected, Table: "t1", Attribute: "c"},
			{Kind: AttrInjected, Table: "t1", Attribute: "d"},
			{Kind: AttrInjected, Table: "t1", Attribute: "e"},
			{Kind: AttrInjected, Table: "t2", Attribute: "f"},
			{Kind: AttrInjected, Table: "t2", Attribute: "g"},
			{Kind: AttrInjected, Table: "t2", Attribute: "h"},
		},
	}}
	all := []string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10"}
	loc := MeasureLocality(deltas, all)
	if loc.Tables != 10 || loc.ChangedTables != 2 || loc.TotalChanges != 8 {
		t.Fatalf("locality = %+v", loc)
	}
	if loc.TopShare != 5.0/8.0 {
		t.Errorf("TopShare = %v, want 5/8", loc.TopShare)
	}
	if loc.UnchangedShare != 0.8 {
		t.Errorf("UnchangedShare = %v, want 0.8", loc.UnchangedShare)
	}
}

// TestMeasureLocalityBoundaries pins the cutoff boundary cases of the
// changed-table-based TopShare.
func TestMeasureLocalityBoundaries(t *testing.T) {
	change := func(table string, n int) *Delta {
		d := &Delta{}
		for i := 0; i < n; i++ {
			d.Changes = append(d.Changes, AttributeChange{Kind: AttrInjected, Table: table, Attribute: fmt.Sprintf("a%d", i)})
		}
		return d
	}
	cases := []struct {
		name           string
		deltas         []*Delta
		allTables      []string
		tables         int
		changedTables  int
		topShare       float64
		unchangedShare float64
	}{
		{name: "zero tables", deltas: nil, allTables: nil,
			tables: 0, changedTables: 0, topShare: 0, unchangedShare: 0},
		{name: "all unchanged", deltas: nil, allTables: []string{"a", "b", "c"},
			tables: 3, changedTables: 0, topShare: 0, unchangedShare: 1},
		{name: "one changed table", deltas: []*Delta{change("a", 4)}, allTables: []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"},
			tables: 10, changedTables: 1, topShare: 1, unchangedShare: 0.9},
		{name: "six changed tables take top two", // ceil(20% of 6) = 2
			deltas:    []*Delta{change("a", 6), change("b", 5), change("c", 1), change("d", 1), change("e", 1), change("f", 1)},
			allTables: []string{"a", "b", "c", "d", "e", "f"},
			tables:    6, changedTables: 6, topShare: 11.0 / 15.0, unchangedShare: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loc := MeasureLocality(tc.deltas, tc.allTables)
			if loc.Tables != tc.tables || loc.ChangedTables != tc.changedTables {
				t.Fatalf("Tables/Changed = %d/%d, want %d/%d", loc.Tables, loc.ChangedTables, tc.tables, tc.changedTables)
			}
			if loc.TopShare != tc.topShare {
				t.Errorf("TopShare = %v, want %v", loc.TopShare, tc.topShare)
			}
			if loc.UnchangedShare != tc.unchangedShare {
				t.Errorf("UnchangedShare = %v, want %v", loc.UnchangedShare, tc.unchangedShare)
			}
		})
	}
}

func TestMeasureLocalityEdgeCases(t *testing.T) {
	empty := MeasureLocality(nil, nil)
	if empty.Tables != 0 || empty.TopShare != 0 {
		t.Errorf("empty locality = %+v", empty)
	}
	noChange := MeasureLocality(nil, []string{"a", "b"})
	if noChange.Tables != 2 || noChange.UnchangedShare != 1 {
		t.Errorf("no-change locality = %+v", noChange)
	}
	// Changed tables absent from the supplied list are still counted.
	deltas := []*Delta{{Changes: []AttributeChange{{Kind: AttrInjected, Table: "ghost", Attribute: "x"}}}}
	withGhost := MeasureLocality(deltas, []string{"a"})
	if withGhost.Tables != 2 || withGhost.ChangedTables != 1 {
		t.Errorf("ghost locality = %+v", withGhost)
	}
}
