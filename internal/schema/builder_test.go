package schema_test

import (
	"testing"

	"coevo/internal/schema"
	"coevo/internal/schematest"
	"coevo/internal/sqlddl"
)

// TestBuilderCopiesSharedTableBeforeChange builds two versions of one DDL
// file through one Builder. Version 2 repeats version 1's CREATE TABLE,
// so both start from the same shared table, and then changes it. The
// change must land on a copy: version 1 reads as before, and version 2
// equals a fresh build. Changes with no logical effect copy nothing.
func TestBuilderCopiesSharedTableBeforeChange(t *testing.T) {
	const create = "CREATE TABLE a (x INT, y INT, PRIMARY KEY (x));"
	cases := []struct {
		name, change string
		// shared: version 2's table a is version 1's table.
		shared bool
	}{
		{"add column", "ALTER TABLE a ADD COLUMN z INT;", false},
		{"add primary key column", "ALTER TABLE a ADD COLUMN z INT PRIMARY KEY;", false},
		{"drop column", "ALTER TABLE a DROP COLUMN x;", false},
		{"modify column", "ALTER TABLE a MODIFY COLUMN y BIGINT NOT NULL;", false},
		{"change column", "ALTER TABLE a CHANGE COLUMN x w BIGINT;", false},
		{"rename column", "ALTER TABLE a RENAME COLUMN x TO w;", false},
		{"alter column type", "ALTER TABLE a ALTER COLUMN y TYPE VARCHAR(10);", false},
		{"alter column nullability", "ALTER TABLE a ALTER COLUMN y SET NOT NULL;", false},
		{"alter column default", "ALTER TABLE a ALTER COLUMN y SET DEFAULT 0;", false},
		{"add primary key", "ALTER TABLE a ADD PRIMARY KEY (x, y);", false},
		{"drop primary key", "ALTER TABLE a DROP PRIMARY KEY;", false},
		{"rename to", "ALTER TABLE a RENAME TO b;", false},
		{"rename table", "RENAME TABLE a TO b;", false},
		{"rename case only", "ALTER TABLE a RENAME TO A;", false},
		{"add unique constraint", "ALTER TABLE a ADD UNIQUE (y);", true},
		{"drop index", "ALTER TABLE a DROP INDEX a_y;", true},
		{"unknown action", "ALTER TABLE a ENGINE = InnoDB;", true},
		{"drop and recreate", "DROP TABLE a; " + create, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b schema.Builder
			v1, _ := b.ParseAndBuild(create, sqlddl.Generic)
			before := schematest.Dump(v1)
			t1, _ := v1.Table("a")

			src := create + "\n" + tc.change
			v2, rep := b.ParseAndBuild(src, sqlddl.Generic)
			if !rep.Clean() {
				t.Fatalf("version 2 does not build cleanly: %+v", rep)
			}
			if got := schematest.Dump(v1); got != before {
				t.Errorf("building version 2 changed version 1:\n got %s\nwant %s", got, before)
			}
			fresh, _ := schema.ParseAndBuildDialect(src, sqlddl.Generic)
			if got, want := schematest.Dump(v2), schematest.Dump(fresh); got != want {
				t.Errorf("version 2 differs from a fresh build:\n got %s\nwant %s", got, want)
			}
			if t2, _ := v2.Table("a"); (t2 == t1) != tc.shared {
				t.Errorf("version 2 shares version 1's table: %v, want %v", t2 == t1, tc.shared)
			}

			// Apply on a built schema copies the same way: the Builder
			// still hands out version 1's table unchanged.
			script, _ := sqlddl.ParseWithDiagnostics(tc.change, sqlddl.Generic)
			for _, stmt := range script.Statements {
				v1.Apply(stmt)
			}
			if got := schematest.Dump(v1); got != schematest.Dump(fresh) {
				t.Errorf("Apply on version 1 gave:\n got %s\nwant %s", got, schematest.Dump(fresh))
			}
			v3, _ := b.ParseAndBuild(create, sqlddl.Generic)
			if got := schematest.Dump(v3); got != before {
				t.Errorf("Apply on version 1 changed the Builder's table:\n got %s\nwant %s", got, before)
			}
		})
	}
}
