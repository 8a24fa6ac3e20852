package smo_test

import (
	"fmt"

	"coevo/internal/schema"
	"coevo/internal/smo"
	"coevo/internal/sqlddl"
)

// ExampleDerive turns a schema diff into an executable, invertible
// migration.
func ExampleDerive() {
	old, _ := schema.ParseAndBuildDialect("CREATE TABLE t (a INT, b VARCHAR(10));", sqlddl.Generic)
	target, _ := schema.ParseAndBuildDialect("CREATE TABLE t (a BIGINT, c TEXT);", sqlddl.Generic)

	seq := smo.Derive(old, target)
	fmt.Println(seq)
	fmt.Println("--")
	fmt.Println(seq.SQL())
	// Output:
	// RETYPE(t.a: INT -> BIGINT)
	// ADD(t.c: TEXT)
	// EJECT(t.b: VARCHAR(10))
	// --
	// ALTER TABLE t ALTER COLUMN a TYPE BIGINT;
	// ALTER TABLE t ADD COLUMN c TEXT;
	// ALTER TABLE t DROP COLUMN b;
}
