package cache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func TestNilCacheIsAlwaysMissNoOp(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(NewHasher("s").Bytes(nil).Sum()); ok {
		t.Error("nil cache hit")
	}
	c.Put(NewHasher("s").Bytes(nil).Sum(), []byte("x")) // must not panic
	v, err := c.GetOrCompute(NewHasher("s").Bytes(nil).Sum(), func() ([]byte, error) { return []byte("y"), nil })
	if err != nil || string(v) != "y" {
		t.Errorf("GetOrCompute on nil cache: %q, %v", v, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Errorf("nil stats = %+v", s)
	}
	if err := c.Clear(); err != nil {
		t.Errorf("nil Clear: %v", err)
	}
	if rep, err := c.Verify(); err != nil || rep != (VerifyReport{}) {
		t.Errorf("nil Verify: %+v, %v", rep, err)
	}
	if c.Dir() != "" {
		t.Error("nil Dir should be empty")
	}
}

func TestMemoryRoundTrip(t *testing.T) {
	c := NewMemory()
	k1 := NewHasher("stage/v1").Bytes([]byte("input")).Sum()
	k2 := NewHasher("stage/v2").Bytes([]byte("input")).Sum() // same input, bumped stage
	if k1 == k2 {
		t.Fatal("stage bump must change the key")
	}
	c.Put(k1, []byte("value-1"))
	if v, ok := c.Get(k1); !ok || string(v) != "value-1" {
		t.Fatalf("get after put: %q, %v", v, ok)
	}
	if _, ok := c.Get(k2); ok {
		t.Fatal("bumped stage must miss")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.MemoryHits != 1 || s.Puts != 1 {
		t.Errorf("stats = %s", s)
	}
}

func TestDiskPersistenceAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	key := NewHasher("stage/v1").Bytes([]byte("payload-input")).Sum()

	c1, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key, []byte("persisted"))

	// A second instance (fresh memory layer) must hit via disk.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c2.Get(key)
	if !ok || string(v) != "persisted" {
		t.Fatalf("disk get: %q, %v", v, ok)
	}
	if s := c2.Stats(); s.DiskHits != 1 || s.BytesRead != int64(len("persisted")) {
		t.Errorf("stats = %s", s)
	}
	// The disk hit was promoted to memory: a third get is a memory hit.
	if _, ok := c2.Get(key); !ok {
		t.Fatal("promoted get missed")
	}
	if s := c2.Stats(); s.MemoryHits != 1 {
		t.Errorf("promotion missing: %s", s)
	}
}

func TestCorruptEntrySelfHeals(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MemoryBytes: -1}) // disk-only: no mem masking
	if err != nil {
		t.Fatal(err)
	}
	key := NewHasher("stage/v1").Bytes([]byte("in")).Sum()
	c.Put(key, []byte("good value"))

	path := c.disk.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // flip a payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := c.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if s := c.Stats(); s.Corrupt != 1 || s.Misses != 1 {
		t.Errorf("stats = %s", s)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Error("corrupt entry not removed")
	}
	// Recompute path: the next put+get works normally.
	c.Put(key, []byte("good value"))
	if v, ok := c.Get(key); !ok || string(v) != "good value" {
		t.Fatalf("healed get: %q, %v", v, ok)
	}
}

func TestTruncatedAndForeignEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir, MemoryBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]Key, 3)
	for i := range keys {
		keys[i] = NewHasher("stage/v1").Bytes([]byte{byte(i)}).Sum()
		c.Put(keys[i], bytes.Repeat([]byte{byte(i)}, 10+i))
	}
	// Truncate one entry mid-payload.
	raw, _ := os.ReadFile(c.disk.path(keys[0]))
	os.WriteFile(c.disk.path(keys[0]), raw[:len(raw)-3], 0o644)
	// Drop a foreign file into a shard.
	foreign := filepath.Join(dir, keys[1].String()[:2], "README")
	os.WriteFile(foreign, []byte("not an entry"), 0o644)

	rep, err := c.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Entries != 2 || rep.Corrupt != 1 || rep.Foreign != 1 {
		t.Errorf("verify = %+v", rep)
	}
	if rep.Bytes != 11+12 {
		t.Errorf("verify bytes = %d", rep.Bytes)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Error("foreign file must be left alone")
	}
	size, err := c.Size()
	if err != nil || size.Entries != 2 || size.Bytes != 11+12 {
		t.Errorf("size = %+v, %v", size, err)
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		c.Put(NewHasher("s").Bytes([]byte{byte(i)}).Sum(), []byte("v"))
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, ok := c.Get(NewHasher("s").Bytes([]byte{byte(i)}).Sum()); ok {
			t.Fatal("entry survived Clear")
		}
	}
	if _, err := os.Stat(dir); err != nil {
		t.Error("root must survive Clear")
	}
}

func TestLRUEviction(t *testing.T) {
	l := newLRUStore(100, 1000)
	var keys []Key
	for i := 0; i < 20; i++ {
		k := NewHasher("s").Bytes([]byte{byte(i)}).Sum()
		keys = append(keys, k)
		l.put(k, bytes.Repeat([]byte{byte(i)}, 10)) // 10 bytes each, cap 100
	}
	if l.len() > 10 {
		t.Errorf("byte bound exceeded: %d entries", l.len())
	}
	if _, ok := l.get(keys[0]); ok {
		t.Error("oldest entry should be evicted")
	}
	if _, ok := l.get(keys[19]); !ok {
		t.Error("newest entry should survive")
	}

	// get refreshes recency: touch an old survivor, add more, it stays.
	if _, ok := l.get(keys[10]); !ok {
		t.Fatal("expected survivor")
	}
	for i := 20; i < 28; i++ {
		l.put(NewHasher("s").Bytes([]byte{byte(i)}).Sum(), bytes.Repeat([]byte{0}, 10))
	}
	if _, ok := l.get(keys[10]); !ok {
		t.Error("recently-used entry evicted")
	}

	// Entry-count bound.
	l2 := newLRUStore(1<<20, 5)
	for i := 0; i < 10; i++ {
		l2.put(NewHasher("s").Bytes([]byte{byte(i)}).Sum(), []byte("v"))
	}
	if l2.len() != 5 {
		t.Errorf("entry bound: len = %d", l2.len())
	}

	// Oversized value: rejected outright, store stays intact.
	l3 := newLRUStore(10, 10)
	l3.put(NewHasher("s").Bytes([]byte("small")).Sum(), []byte("ok"))
	l3.put(NewHasher("s").Bytes([]byte("big")).Sum(), bytes.Repeat([]byte{0}, 11))
	if _, ok := l3.get(NewHasher("s").Bytes([]byte("big")).Sum()); ok {
		t.Error("oversized value stored")
	}
	if _, ok := l3.get(NewHasher("s").Bytes([]byte("small")).Sum()); !ok {
		t.Error("small value lost to oversized put")
	}
}

func TestGetOrCompute(t *testing.T) {
	c := NewMemory()
	key := NewHasher("s").Bytes([]byte("k")).Sum()
	calls := 0
	compute := func() ([]byte, error) { calls++; return []byte("computed"), nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute(key, compute)
		if err != nil || string(v) != "computed" {
			t.Fatalf("GetOrCompute: %q, %v", v, err)
		}
	}
	if calls != 1 {
		t.Errorf("compute ran %d times", calls)
	}
	// Errors pass through and nothing is stored.
	ekey := NewHasher("s").Bytes([]byte("err")).Sum()
	wantErr := fmt.Errorf("compute failed")
	if _, err := c.GetOrCompute(ekey, func() ([]byte, error) { return nil, wantErr }); err != wantErr {
		t.Errorf("error not passed through: %v", err)
	}
	if _, ok := c.Get(ekey); ok {
		t.Error("failed computation cached")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, err := New(Options{Dir: t.TempDir(), MemoryBytes: 1 << 10, MemoryEntries: 16})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := NewHasher("s").Bytes([]byte{byte(i % 32)}).Sum()
				want := bytes.Repeat([]byte{byte(i % 32)}, 8)
				c.Put(key, want)
				if v, ok := c.Get(key); ok && !bytes.Equal(v, want) {
					t.Errorf("goroutine %d: wrong value for key %d", g, i%32)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestHasherFraming(t *testing.T) {
	// Adjacent fields must not be confusable by shifting bytes.
	a := NewHasher("s").Bytes([]byte("ab")).Bytes([]byte("c")).Sum()
	b := NewHasher("s").Bytes([]byte("a")).Bytes([]byte("bc")).Sum()
	if a == b {
		t.Error("byte-field framing collision")
	}
	if NewHasher("s").Int(1).Sum() == NewHasher("s").Int(2).Sum() {
		t.Error("int fields collide")
	}
	if NewHasher("s").Bool(true).Sum() == NewHasher("s").Bool(false).Sum() {
		t.Error("bool fields collide")
	}
	if NewHasher("a").Sum() == NewHasher("b").Sum() {
		t.Error("stage strings collide")
	}
	now := time.Now()
	if NewHasher("s").Time(now).Sum() != NewHasher("s").Time(now.UTC()).Sum() {
		t.Error("Time must be timezone-independent")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	ts := time.Date(2016, time.March, 10, 12, 30, 0, 987654321, time.UTC)
	var e Enc
	e.Uvarint(300)
	e.Int(-42)
	e.Bool(true)
	e.Blob([]byte("blob bytes"))
	e.String("a string")
	e.Float(3.5)
	e.Time(ts)
	e.Blob(nil)

	d := NewDec(e.Bytes())
	if v := d.Uvarint(); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if v := d.Int(); v != -42 {
		t.Errorf("Int = %d", v)
	}
	if !d.Bool() {
		t.Error("Bool = false")
	}
	if v := d.Blob(); string(v) != "blob bytes" {
		t.Errorf("Blob = %q", v)
	}
	if v := d.String(); v != "a string" {
		t.Errorf("String = %q", v)
	}
	if v := d.Float(); v != 3.5 {
		t.Errorf("Float = %v", v)
	}
	if v := d.Time(); !v.Equal(ts) {
		t.Errorf("Time = %v", v)
	}
	if v := d.Blob(); len(v) != 0 {
		t.Errorf("empty Blob = %q", v)
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

func TestCodecFailures(t *testing.T) {
	// Trailing bytes fail Err.
	var e Enc
	e.Int(1)
	d := NewDec(append(e.Bytes(), 0xFF))
	d.Int()
	if d.Err() == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncated blob fails and stays failed (sticky error).
	var e2 Enc
	e2.Blob([]byte("0123456789"))
	d2 := NewDec(e2.Bytes()[:4])
	if v := d2.Blob(); v != nil {
		t.Errorf("truncated blob = %q", v)
	}
	if d2.Err() == nil {
		t.Error("truncated blob accepted")
	}
	if v := d2.Int(); v != 0 {
		t.Errorf("read after failure = %d", v)
	}
	// A bad bool byte fails.
	d3 := NewDec([]byte{7})
	d3.Bool()
	if d3.Err() == nil {
		t.Error("bad bool byte accepted")
	}
}

func TestStatsString(t *testing.T) {
	c := NewMemory()
	key := NewHasher("s").Bytes([]byte("k")).Sum()
	c.Get(key)
	c.Put(key, []byte("v"))
	c.Get(key)
	s := c.Stats()
	if s.HitRate() != 0.5 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
	if s.String() == "" {
		t.Error("empty Stats.String")
	}
}
