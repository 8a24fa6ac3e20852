// Package schema models the logical level of a relational schema — the
// level at which the study measures evolution: relations, their typed
// attributes, and primary keys. A Schema is built by applying the DDL
// statements of a parsed .sql file in order, the same reconstruction the
// original Hecate toolchain performs on every version of a project's DDL
// file.
package schema

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"coevo/internal/sqlddl"
)

// Attribute is one typed column of a table at the logical level.
type Attribute struct {
	Name string
	// Type is the canonical type text used for change detection, already
	// normalized across vendor synonyms (see NormalizeType).
	Type string
	// NotNull, HasDefault and AutoIncrement are retained for completeness;
	// they do not participate in the study's Activity measure.
	NotNull       bool
	HasDefault    bool
	AutoIncrement bool
}

// Table is one relation: an ordered attribute list plus its primary key.
//
// The schemas a Builder reconstructs share every table whose CREATE TABLE
// statement they have in common, so a table reached through a schema is
// read-only: change a schema only through Apply, which copies a shared
// table before its first change, or change a Clone.
type Table struct {
	Name       string
	attrs      []*Attribute
	attrIndex  map[string]int
	primaryKey []string // attribute keys (lower-cased names)
	// shared marks a table a Builder hands to every version that repeats
	// its CREATE TABLE statement; it is never changed in place.
	shared bool
}

// Attributes returns the attributes in definition order. Neither the
// slice nor the attributes may be mutated.
func (t *Table) Attributes() []*Attribute { return t.attrs }

// Attribute looks an attribute up by case-insensitive name.
func (t *Table) Attribute(name string) (*Attribute, bool) {
	i, ok := t.attrIndex[foldName(name)]
	if !ok {
		return nil, false
	}
	return t.attrs[i], true
}

// PrimaryKey returns the lower-cased names of the primary key attributes,
// in key order. Empty when the table has no primary key.
func (t *Table) PrimaryKey() []string { return t.primaryKey }

// InPrimaryKey reports whether the attribute participates in the primary
// key.
func (t *Table) InPrimaryKey(name string) bool {
	name = foldName(name)
	for _, k := range t.primaryKey {
		if k == name {
			return true
		}
	}
	return false
}

// addAttribute appends an attribute; it reports false when the name is
// already taken.
func (t *Table) addAttribute(a *Attribute) bool {
	key := foldName(a.Name)
	if _, ok := t.attrIndex[key]; ok {
		return false
	}
	t.attrIndex[key] = len(t.attrs)
	t.attrs = append(t.attrs, a)
	return true
}

// dropAttribute removes an attribute by name; it reports whether the
// attribute existed.
func (t *Table) dropAttribute(name string) bool {
	key := foldName(name)
	i, ok := t.attrIndex[key]
	if !ok {
		return false
	}
	t.attrs = append(t.attrs[:i], t.attrs[i+1:]...)
	delete(t.attrIndex, key)
	for k, idx := range t.attrIndex {
		if idx > i {
			t.attrIndex[k] = idx - 1
		}
	}
	// The attribute also leaves the primary key.
	t.primaryKey = removeString(t.primaryKey, key)
	return true
}

// renameAttribute renames old to new in place, preserving order and key
// membership. It reports false if old is missing or new already exists.
func (t *Table) renameAttribute(oldName, newName string) bool {
	oldKey, newKey := foldName(oldName), foldName(newName)
	i, ok := t.attrIndex[oldKey]
	if !ok {
		return false
	}
	if oldKey == newKey {
		t.attrs[i].Name = newName
		return true
	}
	if _, exists := t.attrIndex[newKey]; exists {
		return false
	}
	delete(t.attrIndex, oldKey)
	t.attrIndex[newKey] = i
	t.attrs[i].Name = newName
	for j, k := range t.primaryKey {
		if k == oldKey {
			t.primaryKey[j] = newKey
		}
	}
	return true
}

// clone returns a private deep copy of the table, its attributes in one
// block.
func (t *Table) clone() *Table {
	block := make([]Attribute, len(t.attrs))
	nt := &Table{
		Name:       t.Name,
		attrs:      make([]*Attribute, len(t.attrs)),
		attrIndex:  make(map[string]int, len(t.attrs)),
		primaryKey: append([]string(nil), t.primaryKey...),
	}
	for i, a := range t.attrs {
		block[i] = *a
		nt.attrs[i] = &block[i]
		nt.attrIndex[foldName(a.Name)] = i
	}
	return nt
}

// Schema is an ordered collection of tables, looked up case-insensitively.
type Schema struct {
	tables     []*Table
	tableIndex map[string]int
	// dialect selects vendor-specific type canonicalization while DDL is
	// applied. The zero value (Generic) reproduces the historical
	// normalization exactly.
	dialect sqlddl.Dialect
}

// New creates an empty schema.
func New() *Schema {
	return &Schema{tableIndex: make(map[string]int)}
}

// Tables returns the tables in creation order. The slice must not be
// mutated.
func (s *Schema) Tables() []*Table { return s.tables }

// Table looks a table up by case-insensitive, qualifier-free name.
func (s *Schema) Table(name string) (*Table, bool) {
	i, ok := s.tableIndex[foldName(name)]
	if !ok {
		return nil, false
	}
	return s.tables[i], true
}

// TableCount returns the number of tables.
func (s *Schema) TableCount() int { return len(s.tables) }

// AttributeCount returns the total attribute count across all tables — the
// "schema size" measure of the study.
func (s *Schema) AttributeCount() int {
	n := 0
	for _, t := range s.tables {
		n += len(t.attrs)
	}
	return n
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	ns := New()
	ns.dialect = s.dialect
	for _, t := range s.tables {
		ns.addTable(t.clone())
	}
	return ns
}

func (s *Schema) addTable(t *Table) bool {
	key := foldName(t.Name)
	if _, ok := s.tableIndex[key]; ok {
		return false
	}
	s.tableIndex[key] = len(s.tables)
	s.tables = append(s.tables, t)
	return true
}

func (s *Schema) dropTable(name string) bool {
	key := foldName(name)
	i, ok := s.tableIndex[key]
	if !ok {
		return false
	}
	s.tables = append(s.tables[:i], s.tables[i+1:]...)
	delete(s.tableIndex, key)
	for k, idx := range s.tableIndex {
		if idx > i {
			s.tableIndex[k] = idx - 1
		}
	}
	return true
}

func (s *Schema) renameTable(oldName, newName string) bool {
	oldKey, newKey := foldName(oldName), foldName(newName)
	i, ok := s.tableIndex[oldKey]
	if !ok {
		return false
	}
	if oldKey != newKey {
		if _, exists := s.tableIndex[newKey]; exists {
			return false
		}
		delete(s.tableIndex, oldKey)
		s.tableIndex[newKey] = i
	}
	s.own(i).Name = newName
	return true
}

// own returns table i ready for change, first replacing a shared table
// with a private copy.
func (s *Schema) own(i int) *Table {
	if s.tables[i].shared {
		s.tables[i] = s.tables[i].clone()
	}
	return s.tables[i]
}

// SortedTableNames returns the lower-cased table names in lexical order,
// convenient for deterministic iteration in diffs and reports.
func (s *Schema) SortedTableNames() []string {
	names := make([]string, 0, len(s.tables))
	for _, t := range s.tables {
		names = append(names, foldName(t.Name))
	}
	sort.Strings(names)
	return names
}

// foldName lower-cases a name for case-insensitive lookup. Names that
// are already lower-case ASCII — the overwhelmingly common case — are
// returned unchanged without allocating.
func foldName(name string) string {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= 0x80 || ('A' <= c && c <= 'Z') {
			return strings.ToLower(name)
		}
	}
	return name
}

func removeString(ss []string, s string) []string {
	for i, v := range ss {
		if v == s {
			return append(ss[:i], ss[i+1:]...)
		}
	}
	return ss
}

// typeSynonyms canonicalizes vendor type spellings so a rewrite between
// equivalent forms does not count as a data-type change.
var typeSynonyms = map[string]string{
	"INTEGER":           "INT",
	"INT4":              "INT",
	"INT8":              "BIGINT",
	"INT2":              "SMALLINT",
	"SERIAL4":           "SERIAL",
	"SERIAL8":           "BIGSERIAL",
	"BOOL":              "BOOLEAN",
	"CHARACTER VARYING": "VARCHAR",
	"CHAR VARYING":      "VARCHAR",
	"CHARACTER":         "CHAR",
	"DEC":               "DECIMAL",
	"NUMERIC":           "DECIMAL",
	"FLOAT8":            "DOUBLE PRECISION",
	"FLOAT4":            "REAL",
	"TIMESTAMPTZ":       "TIMESTAMP WITH TIME ZONE",
	"TIMETZ":            "TIME WITH TIME ZONE",
	"MIDDLEINT":         "MEDIUMINT",
}

// NormalizeType renders a parsed data type in the canonical comparison
// form used for the "attributes with a changed data type" counter.
func NormalizeType(dt sqlddl.DataType) string {
	name := dt.Name
	if canon, ok := typeSynonyms[name]; ok {
		name = canon
	}
	if len(dt.Args) == 0 && !dt.Unsigned && !dt.Zerofill && !dt.Array {
		return name // bare canonical name, no rendering needed
	}
	canon := sqlddl.DataType{
		Name:     name,
		Args:     dt.Args,
		Unsigned: dt.Unsigned,
		Zerofill: dt.Zerofill,
		Array:    dt.Array,
	}
	return canon.String()
}

// serialTypes are the Postgres auto-increment pseudo-types.
var serialTypes = map[string]bool{"SERIAL": true, "BIGSERIAL": true, "SMALLSERIAL": true}

// Errors surfaced while applying DDL to a schema. Application is
// best-effort by design; these are diagnostics, not failures.
var (
	ErrNoSuchTable   = errors.New("schema: no such table")
	ErrColumnExists  = errors.New("schema: column already exists")
	ErrNoSuchColumn  = errors.New("schema: no such column")
	ErrUnsupported   = errors.New("schema: unsupported statement effect")
	ErrNameCollision = errors.New("schema: rename target already exists")
)

// Apply mutates the schema by one parsed statement, returning diagnostics
// for effects that could not be applied (e.g. ALTER of a missing table —
// common in real histories where the DDL file is rewritten wholesale).
// Statements outside the DDL subset are ignored. A table the schema
// shares with another version is copied before Apply changes it.
func (s *Schema) Apply(stmt sqlddl.Statement) []error { return s.apply(stmt, nil) }

// apply is Apply with the Builder, nil for none, whose memo serves the
// tables CREATE TABLE statements declare.
func (s *Schema) apply(stmt sqlddl.Statement, b *Builder) []error {
	switch st := stmt.(type) {
	case *sqlddl.CreateTable:
		return s.applyCreate(st, b)
	case *sqlddl.DropTable:
		return s.applyDrop(st)
	case *sqlddl.RenameTable:
		return s.applyRename(st)
	case *sqlddl.AlterTable:
		return s.applyAlter(st)
	default:
		return nil
	}
}

func (s *Schema) applyCreate(ct *sqlddl.CreateTable, b *Builder) []error {
	if ct.Temporary {
		return nil // temporary tables are not part of the logical schema
	}
	if _, exists := s.Table(ct.Name.Name); exists {
		if ct.IfNotExists {
			return nil
		}
		// Histories frequently redefine a table in a rewritten file; the
		// later definition wins, which matches how the file's final state
		// would be restored into a database after a DROP.
		s.dropTable(ct.Name.Name)
	}
	var t *Table
	var errs []error
	if b != nil {
		t, errs = b.table(ct, s.dialect)
	} else {
		t, errs = buildTable(ct, s.dialect)
	}
	s.addTable(t)
	return errs
}

// buildTable builds the table a CREATE TABLE statement declares, with
// the apply errors of its column list. Both depend only on the
// statement's text and the dialect, never on the schema it joins.
func buildTable(ct *sqlddl.CreateTable, d sqlddl.Dialect) (*Table, []error) {
	n := len(ct.Columns)
	t := &Table{Name: ct.Name.Name, attrs: make([]*Attribute, 0, n), attrIndex: make(map[string]int, n)}
	block := make([]Attribute, n)
	var errs []error
	var pk []string
	for i := range ct.Columns {
		col := &ct.Columns[i]
		block[i] = attributeFromDef(col, d)
		if !t.addAttribute(&block[i]) {
			errs = append(errs, fmt.Errorf("%w: %s.%s", ErrColumnExists, ct.Name.Name, col.Name))
			continue
		}
		if col.PrimaryKey {
			pk = append(pk, foldName(col.Name))
		}
	}
	for _, c := range ct.Constraints {
		if c.Kind == sqlddl.ConstraintPrimaryKey {
			pk = pk[:0]
			for _, col := range c.Columns {
				pk = append(pk, foldName(col))
			}
		}
	}
	t.primaryKey = pk
	return t, errs
}

func attributeFromDef(col *sqlddl.ColumnDef, d sqlddl.Dialect) Attribute {
	return Attribute{
		Name:          col.Name,
		Type:          NormalizeTypeForDialect(col.Type, d),
		NotNull:       col.NotNull,
		HasDefault:    col.HasDefault,
		AutoIncrement: col.AutoIncrement || serialTypes[col.Type.Name],
	}
}

func (s *Schema) applyDrop(dt *sqlddl.DropTable) []error {
	var errs []error
	for _, name := range dt.Names {
		if !s.dropTable(name.Name) && !dt.IfExists {
			errs = append(errs, fmt.Errorf("%w: %s", ErrNoSuchTable, name.Name))
		}
	}
	return errs
}

func (s *Schema) applyRename(rt *sqlddl.RenameTable) []error {
	var errs []error
	for _, r := range rt.Renames {
		if !s.renameTable(r.From.Name, r.To.Name) {
			errs = append(errs, fmt.Errorf("%w: %s -> %s", ErrNoSuchTable, r.From.Name, r.To.Name))
		}
	}
	return errs
}

// applyAlter applies the actions in order to one table, which keeps its
// index i throughout. Each action reads the table from s.tables afresh,
// since an action that changes it goes through own (or renameTable),
// which may have replaced a shared table with a copy.
func (s *Schema) applyAlter(at *sqlddl.AlterTable) []error {
	i, ok := s.tableIndex[foldName(at.Name.Name)]
	if !ok {
		if at.IfExists {
			return nil
		}
		return []error{fmt.Errorf("%w: %s", ErrNoSuchTable, at.Name.Name)}
	}
	var errs []error
	for _, action := range at.Actions {
		t := s.tables[i]
		switch a := action.(type) {
		case sqlddl.AddColumn:
			t = s.own(i)
			attr := attributeFromDef(&a.Column, s.dialect)
			if !t.addAttribute(&attr) {
				if !a.IfNotExists {
					errs = append(errs, fmt.Errorf("%w: %s.%s", ErrColumnExists, t.Name, a.Column.Name))
				}
				continue
			}
			if a.Column.PrimaryKey {
				t.primaryKey = append(t.primaryKey, foldName(a.Column.Name))
			}
		case sqlddl.DropColumn:
			if !s.own(i).dropAttribute(a.Name) && !a.IfExists {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Name))
			}
		case sqlddl.ModifyColumn:
			attr, ok := s.own(i).Attribute(a.Column.Name)
			if !ok {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Column.Name))
				continue
			}
			*attr = attributeFromDef(&a.Column, s.dialect)
		case sqlddl.ChangeColumn:
			t = s.own(i)
			attr, ok := t.Attribute(a.OldName)
			if !ok {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.OldName))
				continue
			}
			newDef := attributeFromDef(&a.Column, s.dialect)
			if !t.renameAttribute(a.OldName, a.Column.Name) {
				errs = append(errs, fmt.Errorf("%w: %s.%s -> %s", ErrNameCollision, t.Name, a.OldName, a.Column.Name))
				continue
			}
			name := attr.Name
			*attr = newDef
			attr.Name = name
		case sqlddl.RenameColumn:
			if !s.own(i).renameAttribute(a.OldName, a.NewName) {
				errs = append(errs, fmt.Errorf("%w: %s.%s -> %s", ErrNoSuchColumn, t.Name, a.OldName, a.NewName))
			}
		case sqlddl.AlterColumnType:
			attr, ok := s.own(i).Attribute(a.Name)
			if !ok {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Name))
				continue
			}
			attr.Type = NormalizeTypeForDialect(a.Type, s.dialect)
		case sqlddl.AlterColumnNullability:
			attr, ok := s.own(i).Attribute(a.Name)
			if !ok {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Name))
				continue
			}
			attr.NotNull = a.NotNull
		case sqlddl.AlterColumnDefault:
			attr, ok := s.own(i).Attribute(a.Name)
			if !ok {
				errs = append(errs, fmt.Errorf("%w: %s.%s", ErrNoSuchColumn, t.Name, a.Name))
				continue
			}
			attr.HasDefault = !a.Drop
		case sqlddl.AddConstraint:
			if a.Constraint.Kind == sqlddl.ConstraintPrimaryKey {
				pk := make([]string, 0, len(a.Constraint.Columns))
				for _, c := range a.Constraint.Columns {
					pk = append(pk, foldName(c))
				}
				s.own(i).primaryKey = pk
			}
		case sqlddl.DropConstraint:
			if a.Kind == sqlddl.ConstraintPrimaryKey {
				s.own(i).primaryKey = nil
			}
		case sqlddl.RenameTo:
			if !s.renameTable(t.Name, a.NewName.Name) {
				errs = append(errs, fmt.Errorf("%w: %s -> %s", ErrNameCollision, t.Name, a.NewName.Name))
			}
		case sqlddl.UnknownAction:
			// Physical-level noise (engine, tablespace); no logical effect.
		default:
			errs = append(errs, fmt.Errorf("%w: %T", ErrUnsupported, action))
		}
	}
	return errs
}
