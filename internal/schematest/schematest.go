// Package schematest generates small random schemas for property-based
// tests. The same generator drives the schemadiff property suite and the
// cache codec round-trip tests, so both explore the same shape space:
// 0–6 tables, 1–8 typed attributes each, optional column flags and
// single- or multi-column primary keys. Dump renders a schema for tests
// that compare schemas built two different ways.
//
// Generation goes through DDL text and the real parser (RandomSchema is
// ParseAndBuildDialect of RandomDDL), so every generated schema is one the
// pipeline could actually encounter.
package schematest

import (
	"fmt"
	"math/rand"
	"strings"

	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

// attrTypes spans the type zoo the parser normalizes, including
// multi-word and parameterized types.
var attrTypes = []string{
	"INT", "BIGINT", "SMALLINT", "VARCHAR(32)", "VARCHAR(255)", "TEXT",
	"TIMESTAMP", "DATE", "DOUBLE PRECISION", "BOOLEAN", "DECIMAL(10,2)",
	"CHARACTER VARYING(64)",
}

// RandomDDL emits a random CREATE TABLE script. Table and attribute
// names are drawn from small pools so that two independently generated
// schemas overlap with high probability — the interesting regime for
// diffing (shared tables with injected/ejected/retyped attributes).
func RandomDDL(rng *rand.Rand) string {
	var b strings.Builder
	nTables := rng.Intn(7) // 0 tables is a valid, empty schema
	for t := 0; t < nTables; t++ {
		name := fmt.Sprintf("table_%d", rng.Intn(10))
		fmt.Fprintf(&b, "CREATE TABLE %s (\n", name)
		nAttrs := 1 + rng.Intn(8)
		attrs := make([]string, 0, nAttrs)
		seen := map[string]bool{}
		for a := 0; a < nAttrs; a++ {
			attr := fmt.Sprintf("col_%d", rng.Intn(16))
			if seen[attr] {
				continue
			}
			seen[attr] = true
			line := "  " + attr + " " + attrTypes[rng.Intn(len(attrTypes))]
			if rng.Intn(4) == 0 {
				line += " NOT NULL"
			}
			if rng.Intn(5) == 0 {
				line += " DEFAULT 0"
			}
			attrs = append(attrs, line)
		}
		// Optional primary key over a random prefix of the attributes.
		if rng.Intn(2) == 0 {
			nPK := 1 + rng.Intn(2)
			if nPK > len(attrs) {
				nPK = len(attrs)
			}
			cols := make([]string, 0, nPK)
			for _, line := range attrs[:nPK] {
				cols = append(cols, strings.Fields(line)[0])
			}
			attrs = append(attrs, "  PRIMARY KEY ("+strings.Join(cols, ", ")+")")
		}
		b.WriteString(strings.Join(attrs, ",\n"))
		b.WriteString("\n);\n")
	}
	return b.String()
}

// RandomSchema parses a RandomDDL script into a logical schema. The
// generator only emits well-formed DDL (a redefined table legally
// replaces the earlier one), so a diagnostic means the generator and
// parser disagree, which is a bug worth a loud stop.
func RandomSchema(rng *rand.Rand) *schema.Schema {
	src := RandomDDL(rng)
	s, rep := schema.ParseAndBuildDialect(src, sqlddl.Generic)
	if !rep.Clean() {
		panic(fmt.Sprintf("schematest: generated DDL rejected: %+v\n%s", rep, src))
	}
	return s
}

// Dump renders s table by table, in order: the table's name and primary
// key, then all five fields of each attribute in definition order. Two
// schemas with equal dumps are the same logical schema.
func Dump(s *schema.Schema) string {
	var b strings.Builder
	for _, t := range s.Tables() {
		fmt.Fprintf(&b, "%s pk=%q\n", t.Name, t.PrimaryKey())
		for _, a := range t.Attributes() {
			fmt.Fprintf(&b, "  %+v\n", *a)
		}
	}
	return b.String()
}
