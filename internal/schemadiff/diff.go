// Package schemadiff computes attribute-level deltas between successive
// versions of a logical schema. It reproduces the change taxonomy of the
// Schema_Evo_2019 toolchain that the study builds on: attributes born with
// a new table, attributes injected into an existing table, attributes
// deleted with a removed table, attributes ejected from a surviving table,
// attributes with a changed data type, and attributes whose participation
// in the primary key changed. The sum of these six counters is the Total
// Activity measure — the study's central quantity.
package schemadiff

import (
	"fmt"
	"sort"
	"strings"

	"coevo/internal/schema"
)

// ChangeKind classifies one attribute-level change.
type ChangeKind int

// The attribute-level change kinds of the study's taxonomy.
const (
	AttrBornWithTable ChangeKind = iota
	AttrInjected
	AttrDeletedWithTable
	AttrEjected
	AttrTypeChanged
	AttrPKChanged
)

// String names the change kind as the paper does.
func (k ChangeKind) String() string {
	switch k {
	case AttrBornWithTable:
		return "born with table"
	case AttrInjected:
		return "injected"
	case AttrDeletedWithTable:
		return "deleted with table"
	case AttrEjected:
		return "ejected"
	case AttrTypeChanged:
		return "type changed"
	case AttrPKChanged:
		return "key changed"
	default:
		return "unknown"
	}
}

// AttributeChange is one attribute-level change record, retained so case
// studies can inspect exactly what happened between two versions.
type AttributeChange struct {
	Kind      ChangeKind
	Table     string
	Attribute string
	// OldType and NewType are set for AttrTypeChanged.
	OldType, NewType string
}

// String renders the change for human inspection.
func (c AttributeChange) String() string {
	if c.Kind == AttrTypeChanged {
		return fmt.Sprintf("%s.%s: %s (%s -> %s)", c.Table, c.Attribute, c.Kind, c.OldType, c.NewType)
	}
	return fmt.Sprintf("%s.%s: %s", c.Table, c.Attribute, c.Kind)
}

// Delta aggregates the changes between two successive schema versions.
type Delta struct {
	// Table-level counters.
	TablesCreated int
	TablesDropped int

	// The six attribute-level counters of the study (all in attributes).
	AttrsBornWithTable    int
	AttrsInjected         int
	AttrsDeletedWithTable int
	AttrsEjected          int
	AttrsTypeChanged      int
	AttrsPKChanged        int

	// Changes lists every attribute-level change behind the counters.
	Changes []AttributeChange
}

// TotalActivity is the sum of all attribute-level updates — the study's
// Activity measure for one version transition.
func (d *Delta) TotalActivity() int {
	return d.AttrsBornWithTable + d.AttrsInjected + d.AttrsDeletedWithTable +
		d.AttrsEjected + d.AttrsTypeChanged + d.AttrsPKChanged
}

// IsEmpty reports whether the delta carries no logical change. A commit
// whose delta is empty is an inactive schema commit (e.g. a whitespace or
// comment edit of the DDL file).
func (d *Delta) IsEmpty() bool {
	return d.TotalActivity() == 0 && d.TablesCreated == 0 && d.TablesDropped == 0
}

// String summarizes the counters.
func (d *Delta) String() string {
	var parts []string
	add := func(n int, label string) {
		if n > 0 {
			parts = append(parts, fmt.Sprintf("%d %s", n, label))
		}
	}
	add(d.TablesCreated, "tables created")
	add(d.TablesDropped, "tables dropped")
	add(d.AttrsBornWithTable, "attrs born")
	add(d.AttrsInjected, "attrs injected")
	add(d.AttrsDeletedWithTable, "attrs deleted with table")
	add(d.AttrsEjected, "attrs ejected")
	add(d.AttrsTypeChanged, "type changes")
	add(d.AttrsPKChanged, "key changes")
	if len(parts) == 0 {
		return "no change"
	}
	return strings.Join(parts, ", ")
}

// emptySchema is the shared read-only stand-in for a nil side of Compare.
var emptySchema = schema.New()

// Compare diffs two schema versions (old may be nil for the birth of the
// schema, in which case every attribute of new is born with its table).
func Compare(old, new *schema.Schema) *Delta {
	d := &Delta{}
	if old == nil {
		old = emptySchema
	}
	if new == nil {
		new = emptySchema
	}

	for _, nt := range new.Tables() {
		ot, existed := old.Table(nt.Name)
		if !existed {
			d.TablesCreated++
			for _, a := range nt.Attributes() {
				d.AttrsBornWithTable++
				d.Changes = append(d.Changes, AttributeChange{Kind: AttrBornWithTable, Table: nt.Name, Attribute: a.Name})
			}
			continue
		}
		if ot == nt {
			continue // one table shared by both versions (schema.Builder)
		}
		compareTables(d, ot, nt)
	}
	for _, ot := range old.Tables() {
		// Membership in new doubles as the "already diffed above" set, so
		// no scratch map is needed: both sides fold names identically.
		if _, survives := new.Table(ot.Name); survives {
			continue
		}
		d.TablesDropped++
		for _, a := range ot.Attributes() {
			d.AttrsDeletedWithTable++
			d.Changes = append(d.Changes, AttributeChange{Kind: AttrDeletedWithTable, Table: ot.Name, Attribute: a.Name})
		}
	}
	return d
}

// compareTables diffs the attributes of a surviving table.
func compareTables(d *Delta, ot, nt *schema.Table) {
	for _, na := range nt.Attributes() {
		oa, existed := ot.Attribute(na.Name)
		if !existed {
			d.AttrsInjected++
			d.Changes = append(d.Changes, AttributeChange{Kind: AttrInjected, Table: nt.Name, Attribute: na.Name})
			continue
		}
		if oa.Type != na.Type {
			d.AttrsTypeChanged++
			d.Changes = append(d.Changes, AttributeChange{
				Kind: AttrTypeChanged, Table: nt.Name, Attribute: na.Name,
				OldType: oa.Type, NewType: na.Type,
			})
		}
		if ot.InPrimaryKey(na.Name) != nt.InPrimaryKey(na.Name) {
			d.AttrsPKChanged++
			d.Changes = append(d.Changes, AttributeChange{Kind: AttrPKChanged, Table: nt.Name, Attribute: na.Name})
		}
	}
	for _, oa := range ot.Attributes() {
		if _, survives := nt.Attribute(oa.Name); !survives {
			d.AttrsEjected++
			d.Changes = append(d.Changes, AttributeChange{Kind: AttrEjected, Table: nt.Name, Attribute: oa.Name})
		}
	}
}

// Sequence diffs a whole version list pairwise: versions[i] against
// versions[i+1]. A nil element is treated as an empty schema (a version
// whose DDL failed to parse entirely, or a deleted file). The result has
// len(versions)-1 deltas; an empty or single-version history yields nil.
func Sequence(versions []*schema.Schema) []*Delta {
	if len(versions) < 2 {
		return nil
	}
	deltas := make([]*Delta, 0, len(versions)-1)
	for i := 1; i < len(versions); i++ {
		deltas = append(deltas, Compare(versions[i-1], versions[i]))
	}
	return deltas
}

// TotalActivity sums the activity of a delta sequence — the lifetime Total
// Activity of a schema history.
func TotalActivity(deltas []*Delta) int {
	total := 0
	for _, d := range deltas {
		total += d.TotalActivity()
	}
	return total
}

// foldLower lower-cases a table name for counting keys, skipping the
// copy when the name is already lower-case ASCII.
func foldLower(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return strings.ToLower(name)
		}
	}
	return name
}

// TableChangeCounts aggregates, over a delta sequence, how many attribute-
// level changes each table attracted (keyed by lower-cased table name).
func TableChangeCounts(deltas []*Delta) map[string]int {
	counts := map[string]int{}
	for _, d := range deltas {
		for _, ch := range d.Changes {
			counts[foldLower(ch.Table)]++
		}
	}
	return counts
}

// Locality summarizes how concentrated change is across tables — prior
// work reports that 60-90% of changes hit 20% of the tables while ~40% of
// tables never change at all.
type Locality struct {
	// Tables is the number of tables ever seen (changed or supplied).
	Tables int
	// ChangedTables is the number of tables with at least one change.
	ChangedTables int
	// TopShare is the fraction of all changes carried by the most-changed
	// ceil(20%) of the changed tables. The cutoff counts changed tables
	// only: never-changed tables would otherwise inflate the cutoff and
	// saturate the share at 1.0 for sparsely-changed schemata.
	TopShare float64
	// UnchangedShare is the fraction of tables with zero changes.
	UnchangedShare float64
	// TotalChanges is the change volume across all tables.
	TotalChanges int
}

// MeasureLocality computes change locality over a delta sequence. allTables
// lists every table name that ever existed in the history (so tables that
// never changed are counted); change-bearing tables missing from the list
// are added automatically.
func MeasureLocality(deltas []*Delta, allTables []string) Locality {
	counts := TableChangeCounts(deltas)
	seen := map[string]bool{}
	for _, t := range allTables {
		seen[foldLower(t)] = true
	}
	for t := range counts {
		seen[t] = true
	}
	loc := Locality{Tables: len(seen)}
	if loc.Tables == 0 {
		return loc
	}
	volumes := make([]int, 0, len(counts))
	for _, n := range counts {
		loc.TotalChanges += n
		volumes = append(volumes, n)
		loc.ChangedTables++
	}
	loc.UnchangedShare = float64(loc.Tables-loc.ChangedTables) / float64(loc.Tables)
	if loc.TotalChanges == 0 {
		return loc
	}
	sort.Sort(sort.Reverse(sort.IntSlice(volumes)))
	top := (loc.ChangedTables + 4) / 5 // ceil(20%) of the changed tables
	sum := 0
	for i := 0; i < top && i < len(volumes); i++ {
		sum += volumes[i]
	}
	loc.TopShare = float64(sum) / float64(loc.TotalChanges)
	return loc
}
