// Tiered caching: the local layered store (LRU front, disk behind it)
// can be backed by a remote tier — in the sharded study, an HTTP tier
// served by the coordinator — so worker processes dedup parse/diff/
// measure work across machine and process boundaries. The remote tier
// sits strictly behind the local layers: a lookup consults it only
// after both local layers miss, a remote hit is backfilled locally, and
// every Put writes through, so the coordinator's store converges to the
// union of what every shard computed. A remote value crosses the network
// with its sha256, and one that arrives without it or does not match it
// is a miss: it is never served and never backfilled.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"
)

// Tier is a secondary cache layer consulted after the local layers
// miss. Implementations must be safe for concurrent use and must treat
// every failure as a miss/no-op: a tier can make a run faster, never
// break it.
type Tier interface {
	// Name labels the tier in metrics and logs (e.g. "remote").
	Name() string
	// Get returns the value stored under key, or ok=false. corrupt
	// reports a value the tier received but could not verify; it is a
	// miss, never served.
	Get(key Key) (value []byte, ok, corrupt bool)
	// Put stores value under key, best-effort.
	Put(key Key, value []byte)
}

// SetRemote attaches (or, with nil, detaches) a remote tier behind the
// local layers. Safe for concurrent use with Get/Put and safe on a nil
// *Cache.
func (c *Cache) SetRemote(t Tier) {
	if c == nil {
		return
	}
	c.remote.Store(&t)
}

// remoteTier returns the attached remote tier, if any.
func (c *Cache) remoteTier() Tier {
	if p := c.remote.Load(); p != nil {
		return *p
	}
	return nil
}

// maxRemoteValue bounds a single remote-tier value transfer. Measure
// bundles are a few KiB; anything near this bound indicates a confused
// peer, and an unbounded read would let one poisoned response exhaust
// memory.
const maxRemoteValue = 64 << 20

// digestHeader carries a value's hex sha256 over the remote cache
// protocol, in both directions: the transport is outside every local
// checksum, so each side verifies what it receives before keeping it.
const digestHeader = "Coevo-Value-Sha256"

// valueDigest is the digestHeader value for v.
func valueDigest(v []byte) string {
	sum := sha256.Sum256(v)
	return hex.EncodeToString(sum[:])
}

// HTTPTier is the client side of the remote cache protocol: values live
// at <base>/<hex-key>, GET reads (200 hit / 404 miss), PUT writes, and
// every value travels with its digestHeader. Any transport or protocol
// error degrades to a miss and is counted, never surfaced — the pipeline
// recomputes and carries on.
type HTTPTier struct {
	base   string
	client *http.Client

	errors atomic.Int64
}

// NewHTTPTier points a tier client at base — the coordinator's cache
// route, e.g. "http://127.0.0.1:7070/cache", no trailing slash needed.
func NewHTTPTier(base string) *HTTPTier {
	return &HTTPTier{
		base:   strings.TrimRight(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

// Name implements Tier.
func (t *HTTPTier) Name() string { return "remote" }

// Errors reports how many remote operations failed (and degraded to
// misses/no-ops).
func (t *HTTPTier) Errors() int64 { return t.errors.Load() }

// Get implements Tier. A value whose digestHeader is missing or does not
// match its bytes comes back corrupt.
func (t *HTTPTier) Get(key Key) (value []byte, ok, corrupt bool) {
	resp, err := t.client.Get(t.base + "/" + key.String())
	if err != nil {
		t.errors.Add(1)
		return nil, false, false
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, false
	}
	if resp.StatusCode != http.StatusOK {
		t.errors.Add(1)
		return nil, false, false
	}
	v, err := io.ReadAll(io.LimitReader(resp.Body, maxRemoteValue+1))
	if err != nil || len(v) > maxRemoteValue {
		t.errors.Add(1)
		return nil, false, false
	}
	if resp.Header.Get(digestHeader) != valueDigest(v) {
		return nil, false, true
	}
	return v, true, false
}

// Put implements Tier.
func (t *HTTPTier) Put(key Key, value []byte) {
	req, err := http.NewRequest(http.MethodPut, t.base+"/"+key.String(), bytes.NewReader(value))
	if err != nil {
		t.errors.Add(1)
		return
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(digestHeader, valueDigest(value))
	resp, err := t.client.Do(req)
	if err != nil {
		t.errors.Add(1)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNoContent {
		t.errors.Add(1)
	}
}

// TierHandler serves c over the remote cache protocol — the server side
// of HTTPTier, mounted by the shard coordinator at /cache. The handler
// never lists or enumerates: a peer can only read values whose
// content-addressed key it already holds. It sends every value with its
// digestHeader and stores a PUT only when the body matches the one it
// came with (400 otherwise).
func TierHandler(c *Cache) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key, err := parseTierKey(r.URL.Path)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			v, ok := c.Get(key)
			if !ok {
				http.Error(w, "miss", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Header().Set(digestHeader, valueDigest(v))
			w.Write(v)
		case http.MethodPut, http.MethodPost:
			v, err := io.ReadAll(io.LimitReader(r.Body, maxRemoteValue+1))
			if err != nil {
				http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
				return
			}
			if len(v) > maxRemoteValue {
				http.Error(w, "value too large", http.StatusRequestEntityTooLarge)
				return
			}
			if r.Header.Get(digestHeader) != valueDigest(v) {
				http.Error(w, "missing or wrong "+digestHeader, http.StatusBadRequest)
				return
			}
			c.Put(key, v)
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
}

// parseTierKey extracts the content address from a request path whose
// last segment must be the 64-hex-digit key.
func parseTierKey(path string) (Key, error) {
	seg := path
	if i := strings.LastIndexByte(seg, '/'); i >= 0 {
		seg = seg[i+1:]
	}
	raw, err := hex.DecodeString(seg)
	if err != nil || len(raw) != len(Key{}) {
		return Key{}, fmt.Errorf("cache: malformed key %q", seg)
	}
	var key Key
	copy(key[:], raw)
	return key, nil
}
