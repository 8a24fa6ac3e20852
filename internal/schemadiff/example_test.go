package schemadiff_test

import (
	"fmt"

	"coevo/internal/schema"
	"coevo/internal/schemadiff"
	"coevo/internal/sqlddl"
)

// ExampleCompare diffs two schema versions into the study's attribute-level
// change taxonomy.
func ExampleCompare() {
	v1, _ := schema.ParseAndBuildDialect("CREATE TABLE users (id INT, email TEXT);", sqlddl.Generic)
	v2, _ := schema.ParseAndBuildDialect(`
		CREATE TABLE users (id BIGINT, email TEXT, name TEXT);
		CREATE TABLE posts (id INT, body TEXT);`, sqlddl.Generic)

	delta := schemadiff.Compare(v1, v2)
	fmt.Println(delta)
	fmt.Println("total activity:", delta.TotalActivity())
	// Output:
	// 1 tables created, 2 attrs born, 1 attrs injected, 1 type changes
	// total activity: 4
}
