package corpus

import (
	"math/rand"
)

// columnTypes is the pool of realistic SQL types the generator draws from.
var columnTypes = []string{
	"INT", "BIGINT", "SMALLINT", "VARCHAR(32)", "VARCHAR(64)", "VARCHAR(255)",
	"TEXT", "TIMESTAMP", "DATE", "BOOLEAN", "DECIMAL(10,2)", "DOUBLE PRECISION",
}

// genColumn is one column of the generator's schema model.
type genColumn struct {
	name string
	typ  string
}

// genTable is one table of the generator's schema model. heat weights the
// table's chance of attracting change: real histories concentrate 60-90%
// of their changes in ~20% of the tables while many tables never change,
// so tables are born hot (a few), warm, or cold.
type genTable struct {
	name string
	cols []genColumn
	heat float64
}

// schemaBuilder maintains the current synthetic schema and can apply an
// exact number of attribute-level change units, producing DDL text whose
// version-to-version diff (as computed by the real diff engine) equals the
// scheduled unit count.
type schemaBuilder struct {
	rng      *rand.Rand
	tables   []*genTable
	tableSeq int
	colSeq   int
	// cosmeticSeq counts comment-only edits; it changes the rendered text
	// without any logical schema change (an inactive schema commit).
	cosmeticSeq int
	// renderBuf is reused across renders; the returned bytes are only
	// valid until the next render call.
	renderBuf []byte
	// touchedTables and touchedCols are applyUnits' per-call touched sets
	// and candidates is pickUntouchedColumn's scratch, all reused across
	// calls.
	touchedTables map[*genTable]bool
	touchedCols   map[colKey]bool
	candidates    []colRef
}

// colKey identifies a column of the generator's schema model.
type colKey struct {
	t   *genTable
	col string
}

// colRef locates a column by table and position.
type colRef struct {
	t  *genTable
	ci int
}

func newSchemaBuilder(rng *rand.Rand) *schemaBuilder {
	return &schemaBuilder{rng: rng, touchedTables: map[*genTable]bool{}, touchedCols: map[colKey]bool{}}
}

// addTable creates a new table with exactly attrs columns and returns the
// number of change units this represents (attrs, all born with the table).
func (b *schemaBuilder) addTable(attrs int) int {
	if attrs < 1 {
		attrs = 1
	}
	b.tableSeq++
	name := appendPadInt(append(make([]byte, 0, 8), "tbl_"...), b.tableSeq, 3)
	t := &genTable{name: string(name), heat: b.sampleHeat()}
	t.cols = append(t.cols, genColumn{name: "id", typ: "INT"})
	for i := 1; i < attrs; i++ {
		t.cols = append(t.cols, b.newColumn())
	}
	b.tables = append(b.tables, t)
	return attrs
}

// sampleHeat draws a table's change affinity: ~20% hot, ~40% warm, ~40%
// cold (rarely touched).
func (b *schemaBuilder) sampleHeat() float64 {
	r := b.rng.Float64()
	switch {
	case r < 0.20:
		return 8
	case r < 0.60:
		return 1
	default:
		return 0.05
	}
}

// pickWeightedTable selects a table proportionally to its heat.
func (b *schemaBuilder) pickWeightedTable() *genTable {
	total := 0.0
	for _, t := range b.tables {
		total += t.heat
	}
	if total <= 0 {
		return b.tables[b.rng.Intn(len(b.tables))]
	}
	x := b.rng.Float64() * total
	for _, t := range b.tables {
		x -= t.heat
		if x < 0 {
			return t
		}
	}
	return b.tables[len(b.tables)-1]
}

func (b *schemaBuilder) newColumn() genColumn {
	b.colSeq++
	name := appendPadInt(append(make([]byte, 0, 9), "col_"...), b.colSeq, 4)
	return genColumn{
		name: string(name),
		typ:  columnTypes[b.rng.Intn(len(columnTypes))],
	}
}

// applyUnits mutates the schema by exactly `units` attribute-level change
// units, using a mix of injections, ejections, type changes, table
// creations and table drops. Operations within one call never overlap, so
// the committed version differs from the previous one by exactly `units`
// when diffed.
func (b *schemaBuilder) applyUnits(units int) {
	// Identities of tables/columns touched in this call; they are excluded
	// from destructive follow-ups so no unit cancels out.
	touchedTables, touchedCols := b.touchedTables, b.touchedCols
	clear(touchedTables)
	clear(touchedCols)

	for units > 0 {
		r := b.rng.Float64()
		switch {
		case units >= 3 && r < 0.12:
			// Create a table consuming up to `units` units. The new table
			// and all its columns are marked touched: any further change to
			// them this call would be absorbed into the born-with-table
			// count and distort the unit accounting.
			size := 2 + b.rng.Intn(4)
			if size > units {
				size = units
			}
			units -= b.addTable(size)
			created := b.tables[len(b.tables)-1]
			touchedTables[created] = true
			for _, c := range created.cols {
				touchedCols[colKey{created, c.name}] = true
			}
		case r < 0.20 && len(b.tables) > 1:
			// Drop an untouched table no larger than the remaining budget.
			if idx, ok := b.pickDroppableTable(units, touchedTables); ok {
				units -= len(b.tables[idx].cols)
				b.tables = append(b.tables[:idx], b.tables[idx+1:]...)
				continue
			}
			fallthrough
		case r < 0.40:
			// Type-change an untouched existing column.
			if t, ci, ok := b.pickUntouchedColumn(touchedCols); ok {
				old := t.cols[ci].typ
				for t.cols[ci].typ == old {
					t.cols[ci].typ = columnTypes[b.rng.Intn(len(columnTypes))]
				}
				touchedCols[colKey{t, t.cols[ci].name}] = true
				touchedTables[t] = true // dropping it later would erase this unit
				units--
				continue
			}
			fallthrough
		case r < 0.52:
			// Eject an untouched existing column (keep at least id).
			if t, ci, ok := b.pickUntouchedColumn(touchedCols); ok && len(t.cols) > 1 && t.cols[ci].name != "id" {
				touchedCols[colKey{t, t.cols[ci].name}] = true // name retired
				touchedTables[t] = true
				t.cols = append(t.cols[:ci], t.cols[ci+1:]...)
				units--
				continue
			}
			fallthrough
		default:
			// Inject a fresh column into a heat-weighted table.
			t := b.pickWeightedTable()
			col := b.newColumn()
			t.cols = append(t.cols, col)
			touchedCols[colKey{t, col.name}] = true
			touchedTables[t] = true
			units--
		}
	}
}

// pickDroppableTable finds an untouched table with at most maxSize columns.
func (b *schemaBuilder) pickDroppableTable(maxSize int, touched map[*genTable]bool) (int, bool) {
	var candidates []int
	for i, t := range b.tables {
		if !touched[t] && len(t.cols) <= maxSize {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 || len(b.tables) <= 1 {
		return 0, false
	}
	return candidates[b.rng.Intn(len(candidates))], true
}

// pickUntouchedColumn finds a random column not yet touched in this call.
func (b *schemaBuilder) pickUntouchedColumn(touched map[colKey]bool) (*genTable, int, bool) {
	candidates := b.candidates[:0]
	total := 0.0
	for _, t := range b.tables {
		for ci, c := range t.cols {
			if c.name != "id" && !touched[colKey{t, c.name}] {
				candidates = append(candidates, colRef{t, ci})
				total += t.heat
			}
		}
	}
	b.candidates = candidates
	if len(candidates) == 0 {
		return nil, 0, false
	}
	if total <= 0 {
		pick := candidates[b.rng.Intn(len(candidates))]
		return pick.t, pick.ci, true
	}
	x := b.rng.Float64() * total
	for _, c := range candidates {
		x -= c.t.heat
		if x < 0 {
			return c.t, c.ci, true
		}
	}
	pick := candidates[len(candidates)-1]
	return pick.t, pick.ci, true
}

// cosmeticEdit bumps the rendered header comment without logical change.
func (b *schemaBuilder) cosmeticEdit() { b.cosmeticSeq++ }

// render emits the schema as a single-file MySQL-flavoured DDL script.
func (b *schemaBuilder) render() string { return string(b.renderBytes()) }

// renderBytes emits the same script into a buffer reused across renders;
// the result is valid only until the next render and must be copied by
// callers that retain it (vcs.Stage copies on intake).
func (b *schemaBuilder) renderBytes() []byte {
	out := append(b.renderBuf[:0], "-- Schema definition (generated corpus project, revision note "...)
	out = appendPadInt(out, b.cosmeticSeq, 0)
	out = append(out, ")\nSET NAMES utf8;\n\n"...)
	for _, t := range b.tables {
		out = append(out, "CREATE TABLE `"...)
		out = append(out, t.name...)
		out = append(out, "` (\n"...)
		for _, c := range t.cols {
			out = append(out, "  `"...)
			out = append(out, c.name...)
			out = append(out, "` "...)
			out = append(out, c.typ...)
			if c.name == "id" {
				out = append(out, " NOT NULL"...)
			}
			out = append(out, ",\n"...)
		}
		out = append(out, "  PRIMARY KEY (`id`)\n) ENGINE=InnoDB DEFAULT CHARSET=utf8;\n\n"...)
	}
	b.renderBuf = out
	return out
}
