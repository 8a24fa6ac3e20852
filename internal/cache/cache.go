// Package cache is a persistent, content-addressed result cache for the
// study pipeline. Entries are keyed by the sha256 of a stage-version
// string plus the stage's input bytes, so a value can only ever be
// observed for the exact inputs that produced it — correctness by
// construction: changing either the input content or the implementation
// version yields a different key, never a stale hit.
//
// The cache is layered: a concurrent, byte-bounded in-memory LRU front
// absorbs the hot path, and an optional on-disk store (sharded fanout
// directories, atomic rename writes) persists results across runs. Disk
// entries carry a checksum; a corrupt entry (torn write, bit rot, manual
// tampering) is detected on read, deleted, and reported as a miss, so the
// pipeline transparently self-heals by recomputing.
//
// All methods are safe for concurrent use, and safe on a nil *Cache
// (every operation degrades to a miss/no-op), so pipeline code can thread
// an optional cache without branching.
package cache

import (
	"fmt"
	"log/slog"
	"sync/atomic"

	"coevo/internal/obs"
)

// Options configures a cache.
type Options struct {
	// Dir is the root of the on-disk store; empty means memory-only.
	Dir string
	// MemoryBytes bounds the in-memory LRU payload volume (default 64 MiB;
	// negative disables the memory layer).
	MemoryBytes int64
	// MemoryEntries bounds the in-memory LRU entry count (default 8192).
	MemoryEntries int
	// Obs, when non-nil, registers the cache's counters in the unified
	// metrics registry (sampled at exposition time, no double bookkeeping)
	// and logs self-healing and degradation events through its logger.
	Obs *obs.Observer
}

// Cache is a layered content-addressed store. The zero value is not
// usable; construct with New or NewMemory. A nil *Cache is a valid
// always-miss cache.
type Cache struct {
	mem  *lruStore
	disk *diskStore
	log  *slog.Logger

	// remote, when set, is the tier consulted after both local layers
	// miss (see tier.go). Stored behind an atomic pointer so it can be
	// attached while lookups are in flight.
	remote atomic.Pointer[Tier]

	hits, misses      atomic.Int64
	memHits, diskHits atomic.Int64
	remoteHits        atomic.Int64
	puts, corrupt     atomic.Int64
	bytesRead         atomic.Int64
	bytesWritten      atomic.Int64
	// per-tier fall-throughs: lookups that consulted the tier and missed.
	memMisses, diskMisses, remoteMisses atomic.Int64
	remoteBytesRead, remoteBytesWritten atomic.Int64
}

// New builds a cache from opts, creating the disk store's root directory
// when one is configured.
func New(opts Options) (*Cache, error) {
	c := &Cache{log: opts.Obs.Logger()}
	if opts.MemoryBytes >= 0 {
		maxBytes := opts.MemoryBytes
		if maxBytes == 0 {
			maxBytes = 64 << 20
		}
		maxEntries := opts.MemoryEntries
		if maxEntries <= 0 {
			maxEntries = 8192
		}
		c.mem = newLRUStore(maxBytes, maxEntries)
	}
	if opts.Dir != "" {
		d, err := newDiskStore(opts.Dir)
		if err != nil {
			return nil, fmt.Errorf("cache: %w", err)
		}
		c.disk = d
	}
	c.RegisterMetrics(opts.Obs.Metrics())
	c.log.Debug("cache: opened", "dir", opts.Dir, "memory", c.mem != nil)
	return c, nil
}

// RegisterMetrics exposes the cache's counters in the unified registry
// through sampled callbacks, so exposition always reads the live values
// without a second set of books. Safe on a nil registry and on a nil
// *Cache (all-zero series), so the metrics report keeps a stable schema
// whether or not a run is cached. New calls it itself when Options.Obs is
// set; re-registration replaces the callbacks and is harmless.
func (c *Cache) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	sample := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(c.Stats())) }
	}
	reg.CounterFunc("coevo_cache_hits_total", "Cache lookups served from any layer.",
		sample(func(s Stats) int64 { return s.Hits }))
	reg.CounterFunc("coevo_cache_misses_total", "Cache lookups that found nothing.",
		sample(func(s Stats) int64 { return s.Misses }))
	reg.CounterFunc("coevo_cache_memory_hits_total", "Cache hits served by the in-memory LRU front.",
		sample(func(s Stats) int64 { return s.MemoryHits }))
	reg.CounterFunc("coevo_cache_disk_hits_total", "Cache hits served by the on-disk store.",
		sample(func(s Stats) int64 { return s.DiskHits }))
	reg.CounterFunc("coevo_cache_puts_total", "Values stored in the cache.",
		sample(func(s Stats) int64 { return s.Puts }))
	reg.CounterFunc("coevo_cache_corrupt_total", "Corrupt disk entries healed (deleted) on read.",
		sample(func(s Stats) int64 { return s.Corrupt }))
	reg.CounterFunc("coevo_cache_read_bytes_total", "Payload bytes read from the disk store.",
		sample(func(s Stats) int64 { return s.BytesRead }))
	reg.CounterFunc("coevo_cache_written_bytes_total", "Payload bytes written to the disk store.",
		sample(func(s Stats) int64 { return s.BytesWritten }))

	// Per-tier series: one hits/misses pair per tier under a shared
	// metric name, the exposition shape dashboards aggregate across. The
	// tier label set is fixed (memory, disk, remote), so cardinality is
	// bounded by construction.
	tier := func(name string, pick func(Stats) int64) {
		reg.CounterFunc(name, "Cache lookups by tier outcome.", sample(pick))
	}
	tier(obs.Label("coevo_cache_tier_hits_total", "tier", "memory"),
		func(s Stats) int64 { return s.MemoryHits })
	tier(obs.Label("coevo_cache_tier_hits_total", "tier", "disk"),
		func(s Stats) int64 { return s.DiskHits })
	tier(obs.Label("coevo_cache_tier_hits_total", "tier", "remote"),
		func(s Stats) int64 { return s.RemoteHits })
	tier(obs.Label("coevo_cache_tier_misses_total", "tier", "memory"),
		func(s Stats) int64 { return s.MemoryMisses })
	tier(obs.Label("coevo_cache_tier_misses_total", "tier", "disk"),
		func(s Stats) int64 { return s.DiskMisses })
	tier(obs.Label("coevo_cache_tier_misses_total", "tier", "remote"),
		func(s Stats) int64 { return s.RemoteMisses })
	reg.CounterFunc(obs.Label("coevo_cache_tier_read_bytes_total", "tier", "remote"),
		"Value bytes fetched from the remote tier.",
		sample(func(s Stats) int64 { return s.RemoteBytesRead }))
	reg.CounterFunc(obs.Label("coevo_cache_tier_written_bytes_total", "tier", "remote"),
		"Value bytes written through to the remote tier.",
		sample(func(s Stats) int64 { return s.RemoteBytesWritten }))
}

// NewMemory returns a memory-only cache with default bounds.
func NewMemory() *Cache {
	c, _ := New(Options{})
	return c
}

// Dir returns the disk store root, or "" for a memory-only (or nil) cache.
func (c *Cache) Dir() string {
	if c == nil || c.disk == nil {
		return ""
	}
	return c.disk.root
}

// Get looks a key up, front layer first. A disk hit is promoted into the
// memory layer; a remote-tier hit is backfilled into both local layers,
// so a value crosses the network at most once per process. The returned
// slice must not be mutated.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	if c.mem != nil {
		if v, ok := c.mem.get(key); ok {
			c.hits.Add(1)
			c.memHits.Add(1)
			return v, true
		}
		c.memMisses.Add(1)
	}
	if c.disk != nil {
		v, ok, corrupt := c.disk.get(key)
		if corrupt {
			c.corrupt.Add(1)
			c.log.Warn("cache: corrupt disk entry healed", "key", key.String())
		}
		if ok {
			c.hits.Add(1)
			c.diskHits.Add(1)
			c.bytesRead.Add(int64(len(v)))
			if c.mem != nil {
				c.mem.put(key, v)
			}
			return v, true
		}
		c.diskMisses.Add(1)
	}
	if t := c.remoteTier(); t != nil {
		if v, ok := t.Get(key); ok {
			c.hits.Add(1)
			c.remoteHits.Add(1)
			c.remoteBytesRead.Add(int64(len(v)))
			if c.mem != nil {
				c.mem.put(key, v)
			}
			if c.disk != nil {
				if err := c.disk.put(key, v); err == nil {
					c.bytesWritten.Add(int64(len(v)))
				}
			}
			return v, true
		}
		c.remoteMisses.Add(1)
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores value under key in every configured layer (write-through).
// The value must not be mutated afterwards. Disk write failures are
// swallowed: a cache that cannot persist degrades to memory-only for the
// affected entry rather than failing the pipeline.
func (c *Cache) Put(key Key, value []byte) {
	if c == nil {
		return
	}
	c.puts.Add(1)
	if c.mem != nil {
		c.mem.put(key, value)
	}
	if c.disk != nil {
		if err := c.disk.put(key, value); err == nil {
			c.bytesWritten.Add(int64(len(value)))
		} else {
			c.log.Warn("cache: disk write failed, entry degrades to memory-only",
				"key", key.String(), "err", err)
		}
	}
	if t := c.remoteTier(); t != nil {
		t.Put(key, value)
		c.remoteBytesWritten.Add(int64(len(value)))
	}
}

// GetOrCompute returns the cached value for key, computing and storing it
// on a miss. A compute error is returned verbatim and nothing is stored,
// so failed computations are retried on the next call.
func (c *Cache) GetOrCompute(key Key, compute func() ([]byte, error)) ([]byte, error) {
	if v, ok := c.Get(key); ok {
		return v, nil
	}
	v, err := compute()
	if err != nil {
		return nil, err
	}
	c.Put(key, v)
	return v, nil
}

// Stats is a point-in-time snapshot of the cache's counters.
type Stats struct {
	Hits         int64 // Get calls served from any layer
	Misses       int64 // Get calls that found nothing
	MemoryHits   int64 // hits served by the LRU front
	DiskHits     int64 // hits served by the disk store
	RemoteHits   int64 // hits served by the remote tier
	Puts         int64 // stored values
	Corrupt      int64 // corrupt disk entries healed (deleted) on read
	BytesRead    int64 // payload bytes read from disk
	BytesWritten int64 // payload bytes written to disk

	// Per-tier fall-throughs: lookups that consulted the tier and missed
	// (zero for a tier that is not configured, since it is never asked).
	MemoryMisses int64
	DiskMisses   int64
	RemoteMisses int64
	// Remote-tier transfer volume (network bytes, as opposed to the disk
	// BytesRead/BytesWritten above).
	RemoteBytesRead    int64
	RemoteBytesWritten int64
}

// HitRate returns hits/(hits+misses), or 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the snapshot as a single line. Remote-tier counters
// appear only when a remote tier saw traffic, so untiered runs keep
// their familiar shape.
func (s Stats) String() string {
	line := fmt.Sprintf("%d hits (%d mem, %d disk), %d misses (%.0f%% hit rate), %d puts, %d corrupt healed, %d B read, %d B written",
		s.Hits, s.MemoryHits, s.DiskHits, s.Misses, 100*s.HitRate(), s.Puts, s.Corrupt, s.BytesRead, s.BytesWritten)
	if s.RemoteHits+s.RemoteMisses+s.RemoteBytesRead+s.RemoteBytesWritten > 0 {
		line += fmt.Sprintf(", remote: %d hits, %d misses, %d B in, %d B out",
			s.RemoteHits, s.RemoteMisses, s.RemoteBytesRead, s.RemoteBytesWritten)
	}
	return line
}

// Stats snapshots the counters. Safe on nil (all-zero).
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		MemoryHits:         c.memHits.Load(),
		DiskHits:           c.diskHits.Load(),
		RemoteHits:         c.remoteHits.Load(),
		Puts:               c.puts.Load(),
		Corrupt:            c.corrupt.Load(),
		BytesRead:          c.bytesRead.Load(),
		BytesWritten:       c.bytesWritten.Load(),
		MemoryMisses:       c.memMisses.Load(),
		DiskMisses:         c.diskMisses.Load(),
		RemoteMisses:       c.remoteMisses.Load(),
		RemoteBytesRead:    c.remoteBytesRead.Load(),
		RemoteBytesWritten: c.remoteBytesWritten.Load(),
	}
}

// Clear drops every entry from every layer.
func (c *Cache) Clear() error {
	if c == nil {
		return nil
	}
	if c.mem != nil {
		c.mem.clear()
	}
	if c.disk != nil {
		return c.disk.clear()
	}
	return nil
}

// SizeReport summarizes a disk store's footprint.
type SizeReport struct {
	Entries int   // entry files present
	Bytes   int64 // payload bytes (file sizes minus framing)
}

// Size walks the disk store without reading entry payloads and reports
// its footprint. A memory-only (or nil) cache reports zero.
func (c *Cache) Size() (SizeReport, error) {
	if c == nil || c.disk == nil {
		return SizeReport{}, nil
	}
	return c.disk.size()
}

// VerifyReport summarizes a disk-store integrity walk.
type VerifyReport struct {
	Entries int   // intact entries
	Bytes   int64 // payload bytes of intact entries
	Corrupt int   // corrupt entries found (and removed)
	Foreign int   // unrelated files found in the store (left alone)
}

// Verify walks the disk store, checks every entry's framing and checksum,
// and removes the corrupt ones (the pipeline would recompute them on the
// next run anyway). A memory-only cache verifies vacuously.
func (c *Cache) Verify() (VerifyReport, error) {
	if c == nil || c.disk == nil {
		return VerifyReport{}, nil
	}
	rep, err := c.disk.verify()
	c.corrupt.Add(int64(rep.Corrupt))
	return rep, err
}
