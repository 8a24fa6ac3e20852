package cache

import (
	"bytes"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coevo/internal/obs"
)

func tierKey(s string) Key {
	return NewHasher("tier-test").String(s).Sum()
}

// TestTieredCacheRemoteFallthrough covers the tier contract end to end:
// the remote is consulted only after the local layers miss, a remote hit
// is backfilled locally, and every Put writes through.
func TestTieredCacheRemoteFallthrough(t *testing.T) {
	origin := NewMemory()
	srv := httptest.NewServer(http.StripPrefix("/cache", TierHandler(origin)))
	defer srv.Close()

	local := NewMemory()
	tier := NewHTTPTier(srv.URL + "/cache")
	local.SetRemote(tier)

	key, val := tierKey("k1"), []byte("the value")
	origin.Put(key, val)

	// First lookup: local layers miss, the remote serves, the value is
	// backfilled into the local memory layer.
	got, ok := local.Get(key)
	if !ok || !bytes.Equal(got, val) {
		t.Fatalf("remote-tier Get = %q, %v", got, ok)
	}
	s := local.Stats()
	if s.RemoteHits != 1 || s.MemoryMisses != 1 || s.MemoryHits != 0 {
		t.Fatalf("after remote hit: %+v", s)
	}
	if s.RemoteBytesRead != int64(len(val)) {
		t.Fatalf("RemoteBytesRead = %d, want %d", s.RemoteBytesRead, len(val))
	}

	// Second lookup: served by the backfilled memory layer, no new
	// remote traffic.
	if _, ok := local.Get(key); !ok {
		t.Fatal("backfilled value missing")
	}
	s = local.Stats()
	if s.MemoryHits != 1 || s.RemoteHits != 1 {
		t.Fatalf("after backfill: %+v", s)
	}

	// A miss everywhere counts the remote miss and the overall miss.
	if _, ok := local.Get(tierKey("absent")); ok {
		t.Fatal("absent key should miss")
	}
	s = local.Stats()
	if s.RemoteMisses != 1 || s.Misses != 1 {
		t.Fatalf("after full miss: %+v", s)
	}

	// Put writes through to the origin.
	k2, v2 := tierKey("k2"), []byte("written through")
	local.Put(k2, v2)
	if got, ok := origin.Get(k2); !ok || !bytes.Equal(got, v2) {
		t.Fatalf("origin after write-through Get = %q, %v", got, ok)
	}
	if s := local.Stats(); s.RemoteBytesWritten != int64(len(v2)) {
		t.Fatalf("RemoteBytesWritten = %d, want %d", s.RemoteBytesWritten, len(v2))
	}
	if errs := tier.Errors(); errs != 0 {
		t.Fatalf("tier errors = %d, want 0", errs)
	}
}

// TestHTTPTierFailuresDegradeToMiss: a broken or absent remote can make
// a run slower, never break it.
func TestHTTPTierFailuresDegradeToMiss(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer srv.Close()
	tier := NewHTTPTier(srv.URL)
	if _, ok, _ := tier.Get(tierKey("x")); ok {
		t.Fatal("500 should read as a miss")
	}
	tier.Put(tierKey("x"), []byte("v"))
	if errs := tier.Errors(); errs != 2 {
		t.Fatalf("tier errors = %d, want 2", errs)
	}

	// A dead endpoint behaves the same way.
	srv.Close()
	dead := NewHTTPTier(srv.URL)
	if _, ok, _ := dead.Get(tierKey("x")); ok {
		t.Fatal("transport error should read as a miss")
	}
	if errs := dead.Errors(); errs == 0 {
		t.Fatal("transport error should be counted")
	}
}

// TestTierHandlerProtocol pins the server side: hex-keyed GET/PUT, 404
// misses, 400 malformed keys and unverified PUT bodies, 405 other
// methods, 413 oversize values, and every value served with its digest.
func TestTierHandlerProtocol(t *testing.T) {
	c := NewMemory()
	h := TierHandler(c)
	key := tierKey("p")

	do := func(method, path string, body []byte, digest string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if digest != "" {
			req.Header.Set(digestHeader, digest)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}

	if rec := do(http.MethodGet, "/cache/"+key.String(), nil, ""); rec.Code != http.StatusNotFound {
		t.Fatalf("GET absent = %d, want 404", rec.Code)
	}
	for _, digest := range []string{"", valueDigest([]byte("w"))} {
		if rec := do(http.MethodPut, "/cache/"+key.String(), []byte("v"), digest); rec.Code != http.StatusBadRequest {
			t.Fatalf("PUT with digest %q = %d, want 400", digest, rec.Code)
		}
	}
	if _, ok := c.Get(key); ok {
		t.Fatal("an unverified PUT was stored")
	}
	if rec := do(http.MethodPut, "/cache/"+key.String(), []byte("v"), valueDigest([]byte("v"))); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT = %d, want 204", rec.Code)
	}
	rec := do(http.MethodGet, "/cache/"+key.String(), nil, "")
	if rec.Code != http.StatusOK || rec.Body.String() != "v" {
		t.Fatalf("GET = %d %q, want 200 \"v\"", rec.Code, rec.Body.String())
	}
	if got, want := rec.Header().Get(digestHeader), valueDigest([]byte("v")); got != want {
		t.Fatalf("GET %s = %q, want %q", digestHeader, got, want)
	}
	if rec := do(http.MethodGet, "/cache/not-hex", nil, ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed key = %d, want 400", rec.Code)
	}
	if rec := do(http.MethodDelete, "/cache/"+key.String(), nil, ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE = %d, want 405", rec.Code)
	}
}

// tamper serves h with f applied to the header and body of every GET
// response that carries a value: a value changed in transit.
func tamper(h http.Handler, f func(http.Header, []byte)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if r.Method == http.MethodGet && len(body) > 0 {
			f(rec.Header(), body)
		}
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// TestRemoteValuesAreVerified: a remote value whose digest is wrong (one
// body byte flipped in transit) or missing is a counted miss. It is never
// served and never backfilled into memory or onto disk, so the next
// lookup asks the tier again.
func TestRemoteValuesAreVerified(t *testing.T) {
	origin := NewMemory()
	key := tierKey("k")
	origin.Put(key, []byte("a measure bundle"))
	for name, f := range map[string]func(http.Header, []byte){
		"flipped byte":   func(_ http.Header, body []byte) { body[len(body)-1] ^= 0x01 },
		"missing digest": func(h http.Header, _ []byte) { h.Del(digestHeader) },
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(tamper(TierHandler(origin), f))
			defer srv.Close()
			local, err := New(Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			tier := NewHTTPTier(srv.URL)
			local.SetRemote(tier)
			for i := 1; i <= 2; i++ {
				if v, ok := local.Get(key); ok {
					t.Fatalf("lookup %d served an unverified value %q", i, v)
				}
			}
			s := local.Stats()
			if s.RemoteCorrupt != 2 || s.RemoteMisses != 2 || s.Misses != 2 || s.Hits != 0 || s.RemoteHits != 0 {
				t.Errorf("stats after two rejected values: %+v", s)
			}
			if size, err := local.Size(); err != nil || size.Entries != 0 {
				t.Errorf("disk store after rejected values = %+v, %v; want empty", size, err)
			}
			if errs := tier.Errors(); errs != 0 {
				t.Errorf("tier errors = %d, want 0: a corrupt value is not a transport error", errs)
			}
		})
	}
}

// TestCacheTierMetricsExposition: the per-tier series expose with the
// bounded tier label set, conformant values, and stable output.
func TestCacheTierMetricsExposition(t *testing.T) {
	origin := NewMemory()
	srv := httptest.NewServer(TierHandler(origin))
	defer srv.Close()

	c := NewMemory()
	c.SetRemote(NewHTTPTier(srv.URL))
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	key, val := tierKey("m"), []byte("metric value")
	origin.Put(key, val)
	c.Get(key)             // memory miss, remote hit
	c.Get(key)             // memory hit
	c.Get(tierKey("gone")) // memory miss, remote miss
	c.Put(tierKey("w"), val)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE coevo_cache_tier_hits_total counter",
		`coevo_cache_tier_hits_total{tier="memory"} 1`,
		`coevo_cache_tier_hits_total{tier="disk"} 0`,
		`coevo_cache_tier_hits_total{tier="remote"} 1`,
		"# TYPE coevo_cache_tier_misses_total counter",
		`coevo_cache_tier_misses_total{tier="memory"} 2`,
		`coevo_cache_tier_misses_total{tier="remote"} 1`,
		fmt.Sprintf(`coevo_cache_tier_read_bytes_total{tier="remote"} %d`, len(val)),
		fmt.Sprintf(`coevo_cache_tier_written_bytes_total{tier="remote"} %d`, len(val)),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family even with three labelled series.
	if n := strings.Count(out, "# TYPE coevo_cache_tier_hits_total counter"); n != 1 {
		t.Errorf("TYPE emitted %d times for the tier hits family", n)
	}
	// Deterministic exposition.
	var buf2 bytes.Buffer
	if err := reg.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Error("exposition is not stable across calls")
	}
}
