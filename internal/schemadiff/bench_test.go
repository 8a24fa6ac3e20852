package schemadiff

import (
	"fmt"
	"strings"
	"testing"

	"coevo/internal/schema"
	"coevo/internal/sqlddl"
)

func benchSchemaOf(b *testing.B, tables, attrs, skew int) *schema.Schema {
	b.Helper()
	var sb strings.Builder
	for i := 0; i < tables; i++ {
		fmt.Fprintf(&sb, "CREATE TABLE t%d (", i+skew/2)
		for j := 0; j < attrs; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			ty := "INT"
			if (i+j+skew)%3 == 0 {
				ty = "VARCHAR(40)"
			}
			fmt.Fprintf(&sb, "c%d %s", j+skew%2, ty)
		}
		sb.WriteString(", PRIMARY KEY (c0));") // c0 may not exist with skew; fine for benches
	}
	s, _ := schema.ParseAndBuildDialect(sb.String(), sqlddl.Generic)
	return s
}

func BenchmarkCompare50Tables(b *testing.B) {
	old := benchSchemaOf(b, 50, 12, 0)
	new_ := benchSchemaOf(b, 50, 12, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compare(old, new_)
	}
}

func BenchmarkSequence50Versions(b *testing.B) {
	versions := make([]*schema.Schema, 50)
	for i := range versions {
		versions[i] = benchSchemaOf(b, 10, 8, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deltas := Sequence(versions)
		if len(deltas) != 49 {
			b.Fatal("bad sequence length")
		}
	}
}
