// Binary codec and cache adapter for the logical schema — the persistence
// format of the parse stage in the content-addressed result cache: a DDL
// version's raw bytes address the schema that parsing and building them
// produces, so a warm run reconstructs the schema without touching the
// parser at all.
package schema

import (
	"fmt"

	"coevo/internal/cache"
	"coevo/internal/sqlddl"
)

// ParseStage is the parse stage's cache version. Bump it whenever parsing
// or schema building changes observable output (new statement support,
// type-normalization changes, codec format changes) — old entries then
// simply miss and are recomputed. v2: the cached value carries the
// resolved dialect, parse stats and structured diagnostics instead of
// bare error strings, and the requested dialect participates in the key.
const ParseStage = "schema/parse/v2"

// EncodeBinary serializes the schema: tables in creation order, each with
// its attributes in definition order and its primary key. The result is
// owned by the caller; hot paths that only hash the encoding can avoid
// the copy with AppendBinary on a pooled encoder.
func EncodeBinary(s *Schema) []byte {
	e := cache.GetEnc()
	AppendBinary(e, s)
	out := e.Copy()
	cache.PutEnc(e)
	return out
}

// AppendBinary appends the schema's binary encoding to e.
func AppendBinary(e *cache.Enc, s *Schema) {
	e.Uvarint(uint64(len(s.tables)))
	for _, t := range s.tables {
		e.String(t.Name)
		e.Uvarint(uint64(len(t.attrs)))
		for _, a := range t.attrs {
			e.String(a.Name)
			e.String(a.Type)
			e.Bool(a.NotNull)
			e.Bool(a.HasDefault)
			e.Bool(a.AutoIncrement)
		}
		e.Uvarint(uint64(len(t.primaryKey)))
		for _, k := range t.primaryKey {
			e.String(k)
		}
	}
}

// DecodeBinary reconstructs a schema encoded by EncodeBinary.
func DecodeBinary(p []byte) (*Schema, error) {
	d := cache.NewDec(p)
	s := New()
	nTables := d.Uvarint()
	for i := uint64(0); i < nTables && !d.Failed(); i++ {
		t := NewTable(d.String())
		nAttrs := d.Uvarint()
		for j := uint64(0); j < nAttrs && !d.Failed(); j++ {
			a := &Attribute{
				Name:          d.String(),
				Type:          d.String(),
				NotNull:       d.Bool(),
				HasDefault:    d.Bool(),
				AutoIncrement: d.Bool(),
			}
			if !t.addAttribute(a) {
				return nil, fmt.Errorf("%w: duplicate attribute %s.%s", cache.ErrCodec, t.Name, a.Name)
			}
		}
		nPK := d.Uvarint()
		for j := uint64(0); j < nPK && !d.Failed(); j++ {
			t.primaryKey = append(t.primaryKey, d.String())
		}
		if !d.Failed() && !s.addTable(t) {
			return nil, fmt.Errorf("%w: duplicate table %s", cache.ErrCodec, t.Name)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// encodeParseValue frames a ParseAndBuildDialect result: the resolved
// dialect, the parse stats, each structured diagnostic, then the schema.
func encodeParseValue(s *Schema, rep ParseReport) []byte {
	e := cache.GetEnc()
	e.Uvarint(uint64(rep.Dialect))
	e.Uvarint(uint64(rep.Stats.Attempted))
	e.Uvarint(uint64(rep.Stats.Parsed))
	e.Uvarint(uint64(rep.Stats.Recovered))
	e.Uvarint(uint64(rep.Stats.Dropped))
	e.Uvarint(uint64(len(rep.Diags)))
	for _, diag := range rep.Diags {
		e.String(diag.Code)
		e.Uvarint(uint64(diag.Line))
		e.Uvarint(uint64(diag.Col))
		e.String(diag.Msg)
		e.String(diag.Snippet)
	}
	inner := cache.GetEnc()
	AppendBinary(inner, s)
	e.Blob(inner.Bytes())
	cache.PutEnc(inner)
	out := e.Copy()
	cache.PutEnc(e)
	return out
}

func decodeParseValue(p []byte) (*Schema, ParseReport, error) {
	d := cache.NewDec(p)
	var rep ParseReport
	rep.Dialect = sqlddl.Dialect(d.Uvarint())
	rep.Stats.Attempted = int(d.Uvarint())
	rep.Stats.Parsed = int(d.Uvarint())
	rep.Stats.Recovered = int(d.Uvarint())
	rep.Stats.Dropped = int(d.Uvarint())
	nDiags := d.Uvarint()
	for i := uint64(0); i < nDiags && !d.Failed(); i++ {
		diag := sqlddl.Diagnostic{
			Code: d.String(),
			Line: int(d.Uvarint()),
			Col:  int(d.Uvarint()),
			Msg:  d.String(),
		}
		diag.Snippet = d.String()
		diag.Category = sqlddl.CategoryOf(diag.Code)
		rep.Diags = append(rep.Diags, diag)
	}
	enc := d.BlobRef()
	if err := d.Err(); err != nil {
		return nil, ParseReport{}, err
	}
	s, err := DecodeBinary(enc)
	if err != nil {
		return nil, ParseReport{}, err
	}
	s.dialect = rep.Dialect
	return s, rep, nil
}

// ParseAndBuildCachedDialect is ParseAndBuildDialect memoized through c,
// keyed by the raw DDL bytes and the requested dialect under ParseStage.
// Auto keys on "auto": detection is a pure function of the bytes, so the
// cached entry resolves identically. A nil cache — or a corrupt or
// malformed entry — degrades to a plain ParseAndBuildDialect.
func ParseAndBuildCachedDialect(src []byte, dialect sqlddl.Dialect, c *cache.Cache) (*Schema, ParseReport) {
	if c == nil {
		return ParseAndBuildDialect(string(src), dialect)
	}
	key := cache.NewKey(ParseStage+"/"+dialect.String(), src)
	if v, ok := c.Get(key); ok {
		if s, rep, err := decodeParseValue(v); err == nil {
			return s, rep
		}
	}
	s, rep := ParseAndBuildDialect(string(src), dialect)
	c.Put(key, encodeParseValue(s, rep))
	return s, rep
}
