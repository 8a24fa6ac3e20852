package sqlddl

import "strings"

// Statement is the interface implemented by every parsed SQL statement.
type Statement interface {
	stmtNode()
	// Raw returns the original SQL text of the statement.
	Raw() string
	// StartLine returns the 1-based source line the statement starts on.
	StartLine() int
}

// stmtBase carries the original SQL text for every statement type.
type stmtBase struct {
	RawSQL string
	Line   int
}

func (s stmtBase) Raw() string { return s.RawSQL }

// StartLine returns the 1-based source line the statement starts on,
// letting downstream layers (schema application) anchor their own
// diagnostics to the statement.
func (s stmtBase) StartLine() int { return s.Line }

// TableName is a possibly schema-qualified table name.
type TableName struct {
	Schema string // optional qualifier ("public" in public.users)
	Name   string
}

// String renders the qualified name.
func (t TableName) String() string {
	if t.Schema != "" {
		return t.Schema + "." + t.Name
	}
	return t.Name
}

// Key returns the case-folded lookup key for the table. The study treats
// identifiers case-insensitively, as both MySQL (on the default file
// systems of FOSS projects) and unquoted Postgres identifiers fold case.
func (t TableName) Key() string {
	for i := 0; i < len(t.Name); i++ {
		c := t.Name[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return strings.ToLower(t.Name)
		}
	}
	return t.Name // already folded, no copy needed
}

// DataType is a parsed SQL data type, e.g. VARCHAR(255) or NUMERIC(10,2)
// UNSIGNED or TIMESTAMP WITH TIME ZONE.
type DataType struct {
	// Name is the upper-cased, space-normalized type name, possibly
	// multi-word ("DOUBLE PRECISION", "TIMESTAMP WITH TIME ZONE").
	Name string
	// Args holds the literal argument texts inside parentheses, e.g.
	// ["255"] or ["10", "2"] or enum values.
	Args []string
	// Unsigned and Zerofill are the MySQL numeric modifiers.
	Unsigned bool
	Zerofill bool
	// Array marks Postgres array types (INT[] or INT ARRAY).
	Array bool
}

// IsZero reports whether the type is unset.
func (d DataType) IsZero() bool { return d.Name == "" }

// String renders the type in canonical form. The common bare-name case
// (no arguments or modifiers) returns the name without allocating; any
// other renders into one buffer sized up front, one allocation.
func (d DataType) String() string {
	if len(d.Args) == 0 && !d.Unsigned && !d.Zerofill && !d.Array {
		return d.Name
	}
	n := len(d.Name)
	if len(d.Args) > 0 {
		n += len(d.Args) + 1 // the parentheses and the commas between arguments
		for _, a := range d.Args {
			n += len(a)
		}
	}
	if d.Unsigned {
		n += len(" UNSIGNED")
	}
	if d.Zerofill {
		n += len(" ZEROFILL")
	}
	if d.Array {
		n += len("[]")
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(d.Name)
	if len(d.Args) > 0 {
		b.WriteByte('(')
		for i, a := range d.Args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a)
		}
		b.WriteByte(')')
	}
	if d.Unsigned {
		b.WriteString(" UNSIGNED")
	}
	if d.Zerofill {
		b.WriteString(" ZEROFILL")
	}
	if d.Array {
		b.WriteString("[]")
	}
	return b.String()
}

// ColumnDef is one column definition inside CREATE TABLE or an ALTER
// action.
type ColumnDef struct {
	Name          string
	Type          DataType
	NotNull       bool
	Null          bool // explicit NULL was written
	Default       string
	HasDefault    bool
	AutoIncrement bool
	PrimaryKey    bool // inline PRIMARY KEY
	Unique        bool // inline UNIQUE
	References    *ForeignKeyRef
	Comment       string
}

// ForeignKeyRef is the REFERENCES part of an inline or table-level foreign
// key.
type ForeignKeyRef struct {
	Table   TableName
	Columns []string
	// OnDelete and OnUpdate hold the referential action keywords when
	// present (e.g. "CASCADE", "SET NULL").
	OnDelete string
	OnUpdate string
}

// TableConstraint is a table-level constraint inside CREATE TABLE or an
// ALTER TABLE ... ADD action.
type TableConstraint struct {
	Kind    ConstraintKind
	Name    string   // optional constraint/index name
	Columns []string // key columns (index expressions reduced to the column)
	Ref     *ForeignKeyRef
	Check   string // raw text of a CHECK body
}

// ConstraintKind enumerates the table-level constraint kinds.
type ConstraintKind int

// The supported constraint kinds.
const (
	ConstraintPrimaryKey ConstraintKind = iota
	ConstraintUnique
	ConstraintForeignKey
	ConstraintCheck
	ConstraintIndex // plain KEY/INDEX (MySQL), kept for completeness
)

// String names the constraint kind.
func (k ConstraintKind) String() string {
	switch k {
	case ConstraintPrimaryKey:
		return "PRIMARY KEY"
	case ConstraintUnique:
		return "UNIQUE"
	case ConstraintForeignKey:
		return "FOREIGN KEY"
	case ConstraintCheck:
		return "CHECK"
	case ConstraintIndex:
		return "INDEX"
	default:
		return "UNKNOWN"
	}
}

// CreateTable is a parsed CREATE TABLE statement.
type CreateTable struct {
	stmtBase
	Name        TableName
	IfNotExists bool
	Temporary   bool
	Columns     []ColumnDef
	Constraints []TableConstraint
	// AsSelect marks CREATE TABLE ... AS SELECT forms, whose column list
	// cannot be derived statically; the statement is retained with no
	// columns.
	AsSelect bool
}

func (*CreateTable) stmtNode() {}

// DropTable is a parsed DROP TABLE statement (possibly multi-table).
type DropTable struct {
	stmtBase
	Names    []TableName
	IfExists bool
}

func (*DropTable) stmtNode() {}

// RenameTable is MySQL's RENAME TABLE a TO b[, c TO d].
type RenameTable struct {
	stmtBase
	Renames []TableRename
}

// TableRename is one FROM→TO pair of a RenameTable.
type TableRename struct {
	From, To TableName
}

func (*RenameTable) stmtNode() {}

// AlterTable is a parsed ALTER TABLE with its action list.
type AlterTable struct {
	stmtBase
	Name     TableName
	IfExists bool
	Actions  []AlterAction
}

func (*AlterTable) stmtNode() {}

// AlterAction is one comma-separated action of an ALTER TABLE.
type AlterAction interface{ alterNode() }

// AddColumn adds a column (ALTER TABLE ... ADD [COLUMN] def).
type AddColumn struct {
	Column ColumnDef
	// IfNotExists is the Postgres ADD COLUMN IF NOT EXISTS form.
	IfNotExists bool
}

func (AddColumn) alterNode() {}

// DropColumn removes a column.
type DropColumn struct {
	Name     string
	IfExists bool
}

func (DropColumn) alterNode() {}

// ModifyColumn redefines a column in place (MySQL MODIFY COLUMN, or the
// merged effect of Postgres ALTER COLUMN ... TYPE).
type ModifyColumn struct {
	Column ColumnDef
}

func (ModifyColumn) alterNode() {}

// ChangeColumn renames and redefines a column (MySQL CHANGE COLUMN).
type ChangeColumn struct {
	OldName string
	Column  ColumnDef
}

func (ChangeColumn) alterNode() {}

// RenameColumn renames a column (standard RENAME COLUMN old TO new).
type RenameColumn struct {
	OldName, NewName string
}

func (RenameColumn) alterNode() {}

// AlterColumnType is Postgres ALTER COLUMN name TYPE type.
type AlterColumnType struct {
	Name string
	Type DataType
}

func (AlterColumnType) alterNode() {}

// AlterColumnNullability is Postgres ALTER COLUMN name SET/DROP NOT NULL.
type AlterColumnNullability struct {
	Name    string
	NotNull bool
}

func (AlterColumnNullability) alterNode() {}

// AlterColumnDefault is Postgres ALTER COLUMN name SET DEFAULT expr or DROP
// DEFAULT.
type AlterColumnDefault struct {
	Name    string
	Default string
	Drop    bool
}

func (AlterColumnDefault) alterNode() {}

// AddConstraint adds a table constraint.
type AddConstraint struct {
	Constraint TableConstraint
}

func (AddConstraint) alterNode() {}

// DropConstraint removes a named constraint, a primary key, a foreign key
// or an index, depending on Kind.
type DropConstraint struct {
	Kind ConstraintKind
	Name string // empty for DROP PRIMARY KEY
}

func (DropConstraint) alterNode() {}

// RenameTo renames the table (ALTER TABLE ... RENAME TO new).
type RenameTo struct {
	NewName TableName
}

func (RenameTo) alterNode() {}

// UnknownAction preserves an ALTER action the parser does not model
// (engine options, tablespace moves, trigger toggles, ...).
type UnknownAction struct {
	Text string
}

func (UnknownAction) alterNode() {}

// SkippedStatement preserves a whole statement outside the modeled DDL
// subset (INSERT, SET, CREATE INDEX, vendor directives, ...). Keyword is
// the upper-cased leading keyword, or "" for fragments.
type SkippedStatement struct {
	stmtBase
	Keyword string
}

func (*SkippedStatement) stmtNode() {}

// Script is a parsed SQL file.
type Script struct {
	Statements []Statement
	// Dialect is the dialect the script was parsed under (the resolved
	// dialect when Auto was requested).
	Dialect Dialect
	// Stats counts what happened to each statement of the parse.
	Stats ParseStats
}

// CreateTables returns the CREATE TABLE statements of the script, a
// convenience for the data set's "has at least one CREATE TABLE" filter.
func (s *Script) CreateTables() []*CreateTable {
	var out []*CreateTable
	for _, st := range s.Statements {
		if ct, ok := st.(*CreateTable); ok {
			out = append(out, ct)
		}
	}
	return out
}
