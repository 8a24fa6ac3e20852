package sqlddl_test

import (
	"fmt"

	"coevo/internal/sqlddl"
)

// ExampleParse shows the basic parse of a DDL script into typed
// statements.
func ExampleParse() {
	script, err := sqlddl.Parse(`
		CREATE TABLE users (
			id INT NOT NULL AUTO_INCREMENT,
			email VARCHAR(255) NOT NULL,
			PRIMARY KEY (id)
		);
		ALTER TABLE users ADD COLUMN created_at TIMESTAMP;`)
	if err != nil {
		panic(err)
	}
	for _, stmt := range script.Statements {
		switch st := stmt.(type) {
		case *sqlddl.CreateTable:
			fmt.Printf("create %s with %d columns\n", st.Name, len(st.Columns))
		case *sqlddl.AlterTable:
			fmt.Printf("alter %s with %d action(s)\n", st.Name, len(st.Actions))
		}
	}
	// Output:
	// create users with 2 columns
	// alter users with 1 action(s)
}

// ExampleParseWithDiagnostics shows how non-DDL statements are preserved
// and a malformed one is demoted instead of failing the parse — the
// tolerance the mining pipeline requires. Every problem survived comes
// back as a coded diagnostic (DDL-LEX-*, DDL-SYN-* or DDL-SEM-*).
func ExampleParseWithDiagnostics() {
	script, diags := sqlddl.ParseWithDiagnostics(`SET NAMES utf8;
INSERT INTO t VALUES (1);
CREATE TABLE t2 (x INT);
CREATE TABLE broken (a INT;`, sqlddl.MySQL)
	fmt.Printf("%d statements, %d tables, %+v\n",
		len(script.Statements), len(script.CreateTables()), script.Stats)
	for _, d := range diags {
		fmt.Println(d)
	}
	// Output:
	// 4 statements, 1 tables, {Attempted:4 Parsed:3 Recovered:1 Dropped:0}
	// 4:27: DDL-SYN-001 [syntax] expected ")", found EOF ""
}
