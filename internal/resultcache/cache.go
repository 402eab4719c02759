// Package resultcache is the engine's semantic result cache: a
// sharded, memory-accounted LRU of materialized whole query results.
// It holds no intermediate sub-plan outputs; near-duplicate queries
// that differ in literals share a compiled plan through the plan
// cache, not a cached subtree.
//
// The cache itself is content-agnostic — it maps opaque string keys to
// opaque payloads with a caller-declared byte footprint. Correctness
// lives entirely in the keys: callers key entries on (plan
// fingerprint, bound parameter values, plan-affecting config, pinned
// table-version IDs), so a hit is provably equivalent to re-executing
// the same plan against the same storage snapshot. Any write bumps the
// copy-on-write version ID of the written table, which changes every
// key that could observe it — stale entries become unreachable the
// instant a write publishes, with no TTL and no lock between readers
// and writers. InvalidateTables is therefore pure garbage collection
// (reclaiming unreachable entries eagerly), never a correctness
// mechanism.
//
// Three extra facilities support the engine's traffic patterns:
//
//   - Single-flight execution (Do): N concurrent identical queries
//     admit one executor; the other N-1 block on the leader and share
//     its result, relieving the admission queue under near-duplicate
//     load.
//   - Pinning: a streaming cursor serving rows out of a cached entry
//     pins it, so eviction and invalidation release the entry's bytes
//     only after the last reader unpins (the payload itself is
//     immutable and GC-safe either way; pinning keeps the accounting
//     honest while the bytes are genuinely referenced).
//   - A per-table reverse index, so eager GC after a write touches
//     only the written table's entries.
package resultcache

import (
	"context"
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// shardCount is a power of two; per-shard mutexes keep concurrent
// lookups from convoying on one lock.
const shardCount = 16

// Config sizes a cache. Zero fields take defaults in New.
type Config struct {
	// MaxBytes caps the summed declared footprint of all entries
	// (default 32 MiB).
	MaxBytes int64
	// MaxEntries caps the entry count (default 4096).
	MaxEntries int64
	// MaxEntryBytes caps a single entry; larger results are not
	// admitted (default MaxBytes/8). Oversize rejections are counted,
	// not errors.
	MaxEntryBytes int64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Shared        uint64 // single-flight waiters served by a leader's run
	Inserts       uint64
	Rejected      uint64 // Put refused: payload over MaxEntryBytes
	Evictions     uint64
	Invalidations uint64
	Entries       int64
	Bytes         int64
}

// Entry is one cached payload. Val and Cols-style payload internals
// are immutable by convention: every reader shares the same backing
// data.
type Entry struct {
	key    string
	shard  *shard
	tables []string

	// Val is the caller's payload.
	Val any

	bytes int64
	refs  int  // pin count, guarded by shard.mu
	dead  bool // removed from the map while pinned; bytes release on last Unpin

	prev, next *Entry // shard LRU list (nil links when dead)
}

// Cache is the sharded LRU plus the single-flight table.
type Cache struct {
	maxEntries    int64
	maxBytes      int64
	maxEntryBytes int64
	seed          maphash.Seed
	shards        [shardCount]shard

	fmu     sync.Mutex
	flights map[string]*flight

	hits          atomic.Uint64
	misses        atomic.Uint64
	shared        atomic.Uint64
	inserts       atomic.Uint64
	rejected      atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	entries       atomic.Int64
	bytes         atomic.Int64
}

type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry
	// tableIdx maps a table name to this shard's entries keyed on a
	// version of that table — the reverse index behind InvalidateTables.
	tableIdx map[string]map[*Entry]struct{}
	// head is most recently used, tail least.
	head, tail *Entry
}

type flight struct {
	done chan struct{}
	val  any
	err  error
}

// New creates a cache with the given caps (zero fields defaulted).
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 32 << 20
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 4096
	}
	if cfg.MaxEntryBytes <= 0 {
		cfg.MaxEntryBytes = cfg.MaxBytes / 8
	}
	c := &Cache{
		maxEntries:    cfg.MaxEntries,
		maxBytes:      cfg.MaxBytes,
		maxEntryBytes: cfg.MaxEntryBytes,
		seed:          maphash.MakeSeed(),
		flights:       make(map[string]*flight),
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*Entry)
		c.shards[i].tableIdx = make(map[string]map[*Entry]struct{})
	}
	return c
}

func (c *Cache) shardOf(key string) *shard {
	return &c.shards[maphash.String(c.seed, key)&(shardCount-1)]
}

// lookup returns the payload for key, touching LRU recency. It does
// not count a hit or miss; Do records those.
func (c *Cache) lookup(key string) (any, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil, false
	}
	s.touch(e)
	return e.Val, true
}

// Contains reports whether key is cached without touching recency or
// counters — the preview used by EXPLAIN.
func (c *Cache) Contains(key string) bool {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[key] != nil
}

// Pin returns the entry for key with its pin count raised; the caller
// must Unpin exactly once. A pinned entry's bytes stay accounted even
// if it is evicted or invalidated while pinned.
func (c *Cache) Pin(key string) (*Entry, bool) {
	s := c.shardOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.entries[key]
	if e == nil {
		return nil, false
	}
	e.refs++
	s.touch(e)
	return e, true
}

// Unpin drops one pin. If the entry was evicted or invalidated while
// pinned, the last Unpin releases its accounted bytes.
func (c *Cache) Unpin(e *Entry) {
	s := e.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	e.refs--
	if e.refs == 0 && e.dead {
		c.entries.Add(-1)
		c.bytes.Add(-e.bytes)
	}
}

// CountHit and CountMiss record lookup outcomes decided outside Do
// (the streaming path pins entries itself).
func (c *Cache) CountHit()  { c.hits.Add(1) }
func (c *Cache) CountMiss() { c.misses.Add(1) }

// Put admits a payload under key, replacing any existing entry.
// tables lists the table names whose version IDs participate in key
// (the reverse index for eager invalidation). Returns false if the
// payload exceeds the single-entry cap.
func (c *Cache) Put(key string, tables []string, val any, bytes int64) bool {
	if bytes > c.maxEntryBytes {
		c.rejected.Add(1)
		return false
	}
	s := c.shardOf(key)
	s.mu.Lock()
	if old := s.entries[key]; old != nil {
		s.drop(c, old)
	}
	e := &Entry{key: key, shard: s, tables: tables, Val: val, bytes: bytes}
	s.entries[key] = e
	for _, t := range tables {
		idx := s.tableIdx[t]
		if idx == nil {
			idx = make(map[*Entry]struct{})
			s.tableIdx[t] = idx
		}
		idx[e] = struct{}{}
	}
	s.insert(e)
	s.mu.Unlock()
	c.entries.Add(1)
	c.bytes.Add(bytes)
	c.inserts.Add(1)
	c.evictFrom(s)
	return true
}

// drop unlinks an entry from the map, LRU list, and reverse index,
// releasing its bytes now or (if pinned) on last Unpin. Callers hold
// s.mu and count the eviction/invalidation themselves.
func (s *shard) drop(c *Cache, e *Entry) {
	delete(s.entries, e.key)
	s.unlink(e)
	for _, t := range e.tables {
		if idx := s.tableIdx[t]; idx != nil {
			delete(idx, e)
			if len(idx) == 0 {
				delete(s.tableIdx, t)
			}
		}
	}
	if e.refs > 0 {
		e.dead = true
		return
	}
	c.entries.Add(-1)
	c.bytes.Add(-e.bytes)
}

// evictFrom pops least-recently-used entries from the shard until the
// cache-wide caps hold. Working a single shard keeps the critical
// section local; other shards converge as they take their own inserts.
func (c *Cache) evictFrom(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for (c.entries.Load() > c.maxEntries || c.bytes.Load() > c.maxBytes) && s.tail != nil {
		e := s.tail
		s.drop(c, e)
		c.evictions.Add(1)
	}
}

// InvalidateTables eagerly drops every entry keyed on a version of any
// of the named tables. This is garbage collection, not correctness:
// the write that prompted it already minted new version IDs, so the
// dropped entries could never be looked up again.
func (c *Cache) InvalidateTables(names ...string) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, name := range names {
			for e := range s.tableIdx[name] {
				s.drop(c, e)
				c.invalidations.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// Purge drops every entry (pinned entries release on last Unpin).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for _, e := range s.entries {
			s.drop(c, e)
			c.invalidations.Add(1)
		}
		s.mu.Unlock()
	}
}

// Do is the single-flight whole-result path. It first consults the
// cache; on a miss, the first caller for key becomes the leader and
// runs fn, while concurrent callers for the same key block until the
// leader finishes and share its payload. On leader failure each waiter
// retries the lookup once and otherwise runs fn itself (the leader's
// error could be budget- or fault-specific to its own run). fn returns
// the payload and its byte footprint; a successful leader admits it
// via Put before waiters wake.
//
// The returned Source tells the caller how the payload was obtained:
// SrcHit (cache), SrcShared (leader's run, this caller waited), or
// SrcMiss (this caller executed fn). Counters are recorded here;
// callers must not double-count.
func (c *Cache) Do(ctx context.Context, key string, tables []string, fn func() (any, int64, error)) (any, Source, error) {
	if v, ok := c.lookup(key); ok {
		c.hits.Add(1)
		return v, SrcHit, nil
	}

	c.fmu.Lock()
	if f := c.flights[key]; f != nil {
		c.fmu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, SrcMiss, ctx.Err()
		}
		if f.err == nil {
			c.shared.Add(1)
			return f.val, SrcShared, nil
		}
		// Leader failed. Its error may be specific to its run (its own
		// budget, fault injection, cancellation) — retry the cache once,
		// then execute independently without becoming a new leader.
		if v, ok := c.lookup(key); ok {
			c.hits.Add(1)
			return v, SrcHit, nil
		}
		c.misses.Add(1)
		val, bytes, err := fn()
		if err == nil {
			c.Put(key, tables, val, bytes)
		}
		return val, SrcMiss, err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()

	c.misses.Add(1)
	defer func() {
		c.fmu.Lock()
		delete(c.flights, key)
		c.fmu.Unlock()
		close(f.done)
	}()
	val, bytes, err := fn()
	if err == nil {
		c.Put(key, tables, val, bytes)
	}
	f.val, f.err = val, err
	return val, SrcMiss, err
}

// Source classifies how Do obtained its payload.
type Source int

const (
	// SrcMiss: this caller executed the query itself.
	SrcMiss Source = iota
	// SrcHit: served from the cache.
	SrcHit
	// SrcShared: served from a concurrent leader's execution.
	SrcShared
)

// CacheStats snapshots the counters.
func (c *Cache) CacheStats() Stats {
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Shared:        c.shared.Load(),
		Inserts:       c.inserts.Load(),
		Rejected:      c.rejected.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       c.entries.Load(),
		Bytes:         c.bytes.Load(),
	}
}

// shard list helpers; callers hold s.mu.

func (s *shard) insert(e *Entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) touch(e *Entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.insert(e)
}
