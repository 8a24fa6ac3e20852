package sqlddl

import (
	"fmt"
	"strings"
	"testing"
)

// benchSchema synthesizes a DDL script with n tables of 8 columns each,
// table constraints, and interleaved non-DDL noise, approximating a real
// dump.
func benchSchema(n int) string {
	var b strings.Builder
	b.WriteString("SET NAMES utf8;\n-- generated dump\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "CREATE TABLE `table_%03d` (\n", i)
		fmt.Fprintf(&b, "  `id` INT NOT NULL AUTO_INCREMENT,\n")
		fmt.Fprintf(&b, "  `name` VARCHAR(255) NOT NULL DEFAULT 'x',\n")
		fmt.Fprintf(&b, "  `price` DECIMAL(10,2) UNSIGNED,\n")
		fmt.Fprintf(&b, "  `created` TIMESTAMP DEFAULT CURRENT_TIMESTAMP,\n")
		fmt.Fprintf(&b, "  `status` ENUM('a','b','c'),\n")
		fmt.Fprintf(&b, "  `payload` TEXT,\n")
		fmt.Fprintf(&b, "  `owner_id` INT REFERENCES owners(id) ON DELETE CASCADE,\n")
		fmt.Fprintf(&b, "  `flags` BIGINT,\n")
		fmt.Fprintf(&b, "  PRIMARY KEY (`id`),\n")
		fmt.Fprintf(&b, "  UNIQUE KEY uniq_name (`name`),\n")
		fmt.Fprintf(&b, "  KEY idx_owner (`owner_id`)\n")
		fmt.Fprintf(&b, ") ENGINE=InnoDB DEFAULT CHARSET=utf8;\n")
		fmt.Fprintf(&b, "INSERT INTO `table_%03d` VALUES (1, 'seed; row', 9.99, NOW(), 'a', NULL, 1, 0);\n", i)
	}
	return b.String()
}

func BenchmarkParse20Tables(b *testing.B) {
	src := benchSchema(20)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseWithDiagnostics100Tables(b *testing.B) {
	src := benchSchema(100)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		script, _ := ParseWithDiagnostics(src, Generic)
		if len(script.CreateTables()) != 100 {
			b.Fatal("lost tables")
		}
	}
}

func BenchmarkParseAlterHeavy(b *testing.B) {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (a INT);\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "ALTER TABLE t ADD COLUMN c%d VARCHAR(%d) NOT NULL DEFAULT 'v';\n", i, i%40+1)
	}
	src := sb.String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}
