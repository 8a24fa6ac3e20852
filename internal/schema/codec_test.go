package schema_test

import (
	"math/rand"
	"reflect"
	"testing"

	"coevo/internal/cache"
	"coevo/internal/schema"
	"coevo/internal/schematest"
	"coevo/internal/sqlddl"
)

// schemasEqual compares two schemas structurally: table order, attribute
// order, every attribute field, and primary keys.
func schemasEqual(t *testing.T, a, b *schema.Schema) {
	t.Helper()
	at, bt := a.Tables(), b.Tables()
	if len(at) != len(bt) {
		t.Fatalf("table count %d != %d", len(at), len(bt))
	}
	for i := range at {
		if at[i].Name != bt[i].Name {
			t.Fatalf("table %d name %q != %q", i, at[i].Name, bt[i].Name)
		}
		aa, ba := at[i].Attributes(), bt[i].Attributes()
		if len(aa) != len(ba) {
			t.Fatalf("%s: attr count %d != %d", at[i].Name, len(aa), len(ba))
		}
		for j := range aa {
			if *aa[j] != *ba[j] {
				t.Fatalf("%s: attr %d: %+v != %+v", at[i].Name, j, *aa[j], *ba[j])
			}
		}
		if !reflect.DeepEqual(at[i].PrimaryKey(), bt[i].PrimaryKey()) {
			t.Fatalf("%s: pk %v != %v", at[i].Name, at[i].PrimaryKey(), bt[i].PrimaryKey())
		}
	}
}

// TestBinaryCodecRoundTrip: DecodeBinary(EncodeBinary(s)) reproduces the
// schema structurally, across the generator's whole shape space.
func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		s := schematest.RandomSchema(rng)
		enc := schema.EncodeBinary(s)
		got, err := schema.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		schemasEqual(t, s, got)
		// Encoding is deterministic: re-encoding the decoded schema
		// yields the same bytes (this is what the diff-stage key relies
		// on).
		if string(schema.EncodeBinary(got)) != string(enc) {
			t.Fatal("re-encode differs")
		}
	}
}

// TestDecodeBinaryRejectsGarbage: malformed values error instead of
// producing a half-built schema.
func TestDecodeBinaryRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		{0xFF, 0xFF, 0xFF}, // bad varint soup
		[]byte("not a schema at all"),
	} {
		if _, err := schema.DecodeBinary(raw); err == nil {
			t.Errorf("garbage %q accepted", raw)
		}
	}
	// Truncated valid encodings must error too.
	s := schematest.RandomSchema(rand.New(rand.NewSource(12)))
	enc := schema.EncodeBinary(s)
	if len(enc) > 2 {
		if _, err := schema.DecodeBinary(enc[:len(enc)/2]); err == nil {
			t.Error("truncated encoding accepted")
		}
	}
}

// TestParseAndBuildCachedMatchesPlain: the cached parse returns the same
// schema and the same parse report on miss and on hit.
func TestParseAndBuildCachedMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := cache.NewMemory()
	srcs := []string{
		"", "   ", "CREATE TABLE t (a INT);",
		"CREATE TABLE t (a INT); DROP TABLE missing;", // build diagnostic
		"CREATE TABLE t (a INT,;",                     // parse diagnostic
	}
	for i := 0; i < 100; i++ {
		srcs = append(srcs, schematest.RandomDDL(rng))
	}
	for _, src := range srcs {
		want, wantRep := schema.ParseAndBuildDialect(src, sqlddl.Generic)
		for round := 0; round < 2; round++ { // miss, then hit
			got, gotRep := schema.ParseAndBuildCachedDialect([]byte(src), sqlddl.Generic, c)
			schemasEqual(t, want, got)
			if !reflect.DeepEqual(gotRep, wantRep) {
				t.Fatalf("round %d: report diverged for %q:\n got %+v\nwant %+v", round, src, gotRep, wantRep)
			}
		}
	}
	if s := c.Stats(); s.Hits == 0 {
		t.Errorf("warm rounds never hit: %s", s)
	}
}

// TestParseAndBuildCachedNilCache: a nil cache degrades to the plain path.
func TestParseAndBuildCachedNilCache(t *testing.T) {
	src := "CREATE TABLE t (a INT);"
	want, _ := schema.ParseAndBuildDialect(src, sqlddl.Generic)
	got, rep := schema.ParseAndBuildCachedDialect([]byte(src), sqlddl.Generic, nil)
	if !rep.Clean() {
		t.Fatalf("report = %+v, want clean", rep)
	}
	schemasEqual(t, want, got)
}
