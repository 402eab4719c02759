package orthoq

// Semantic result cache integration: whole-result reuse with
// single-flight deduplication, layered over the plan cache. The plan
// cache saves compilation; the result cache saves execution. See
// internal/resultcache for the cache itself and DESIGN.md §14 for the
// keying argument.

import (
	"context"
	"sort"
	"strings"
	"time"

	"orthoq/internal/algebra"
	"orthoq/internal/resultcache"
	"orthoq/internal/sql/types"
)

// ResultCacheConfig configures the semantic result cache consulted by
// Query/QueryCfg/Stmt.Run/QueryStream. The zero value disables it —
// result caching changes when execution happens (a warm repeat returns
// without running the plan), so embedders opt in explicitly; servers
// enable it by default for wire traffic.
//
// The cache stores whole query results only: each cacheable miss
// admits exactly one entry.
//
// A cached result is returned only when the plan fingerprint, the
// plan-affecting config, every bound parameter value, and the pinned
// version ID of every referenced table all match — a hit is provably
// equivalent to re-executing against the same snapshot. Any write to a
// referenced table mints new version IDs, making stale entries
// unreachable immediately (no TTL). Results served from the cache
// share row storage with every other consumer; query results are
// read-only.
type ResultCacheConfig struct {
	// Enabled turns the cache on for runs under this Config. All runs
	// on one DB handle share a single cache instance (first enabling
	// Config sizes it; later sizing fields are ignored).
	Enabled bool
	// MaxBytes caps the summed approximate footprint of cached results
	// (0 = default 32 MiB).
	MaxBytes int64
	// MaxEntries caps cached results (0 = default 4096).
	MaxEntries int64
	// MaxEntryBytes caps a single result; larger results run uncached
	// every time (0 = default MaxBytes/8).
	MaxEntryBytes int64
}

// resultCache returns the DB's result cache, creating it from cfg's
// sizing on first use.
func (db *DB) resultCache(cfg ResultCacheConfig) *resultcache.Cache {
	db.rcMu.Lock()
	defer db.rcMu.Unlock()
	if db.rcache == nil {
		db.rcache = resultcache.New(resultcache.Config{
			MaxBytes:      cfg.MaxBytes,
			MaxEntries:    cfg.MaxEntries,
			MaxEntryBytes: cfg.MaxEntryBytes,
		})
	}
	return db.rcache
}

// ResultCacheStats reports result-cache effectiveness counters: hits,
// misses, single-flight shared executions, inserts, rejections,
// evictions, invalidations, and the live entry/byte gauges. Zero value
// when no run has enabled the cache.
func (db *DB) ResultCacheStats() resultcache.Stats {
	db.rcMu.Lock()
	c := db.rcache
	db.rcMu.Unlock()
	if c == nil {
		return resultcache.Stats{}
	}
	return c.CacheStats()
}

// withResultCache arms a run's options with the result cache when cfg
// enables it. The store snapshot is pinned here — before compilation —
// so the versions the key names are exactly the versions execution
// reads: key time and read time cannot straddle a concurrent publish.
func (db *DB) withResultCache(cfg Config, opts runOpts) runOpts {
	if !cfg.ResultCache.Enabled {
		return opts
	}
	opts.rcache = db.resultCache(cfg.ResultCache)
	opts.rcCfgKey = cfg.planKey()
	if opts.snap == nil {
		opts.snap = db.store.Snapshot()
	}
	return opts
}

// invalidateResultCache eagerly drops cached results keyed on the
// named table. Garbage collection only: the write already minted new
// version IDs, so the dropped entries could never be served again.
func (db *DB) invalidateResultCache(table string) {
	db.rcMu.Lock()
	c := db.rcache
	db.rcMu.Unlock()
	if c != nil {
		c.InvalidateTables(strings.ToLower(table))
	}
}

// purgeResultCache drops everything — Analyze republishes every table
// with fresh version IDs, so the whole cache just became unreachable.
func (db *DB) purgeResultCache() {
	db.rcMu.Lock()
	c := db.rcache
	db.rcMu.Unlock()
	if c != nil {
		c.Purge()
	}
}

// datumKey renders one value for a cache key, kind-tagged so values of
// different types never alias ("1" vs 1).
func datumKey(b *strings.Builder, d types.Datum) {
	if d.IsNull() {
		b.WriteString("null")
		return
	}
	b.WriteString(d.Kind().String())
	b.WriteByte(':')
	b.WriteString(d.String())
}

// resultKey builds the whole-result cache key for a prepared plan
// bound to params, reading versions from the pre-pinned snapshot. It
// returns the lowercased referenced tables (the invalidation reverse
// index) and ok=false when the plan is not safely cacheable.
func resultKey(p *prepared, params []types.Datum, opts runOpts) (string, []string, bool) {
	if opts.snap == nil {
		return "", nil, false
	}
	var b strings.Builder
	b.WriteString("q1\x00")
	b.WriteString(p.fingerprint)
	b.WriteByte('\x00')
	b.WriteString(opts.rcCfgKey)
	b.WriteString("\x00p:")
	for _, d := range params {
		datumKey(&b, d)
		b.WriteByte(';')
	}
	seen := map[string]struct{}{}
	algebra.VisitRel(p.plan, func(r algebra.Rel) bool {
		if g, ok := r.(*algebra.Get); ok {
			seen[strings.ToLower(g.Table)] = struct{}{}
		}
		return true
	})
	tables := make([]string, 0, len(seen))
	for name := range seen {
		tables = append(tables, name)
	}
	sort.Strings(tables)
	for _, name := range tables {
		v, ok := opts.snap.Table(name)
		if !ok {
			return "", nil, false
		}
		b.WriteString("\x00tv:")
		b.WriteString(name)
		b.WriteByte('=')
		writeUint(&b, v.ID())
	}
	return b.String(), tables, true
}

func writeUint(b *strings.Builder, v uint64) {
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	b.Write(buf[i:])
}

// approxRowsBytes estimates a materialized result's footprint for
// cache accounting: slice/header overhead per row and datum plus
// string payloads.
func approxRowsBytes(data []Row) int64 {
	n := int64(256)
	for _, row := range data {
		n += int64(24 + 40*len(row))
		for _, d := range row {
			if !d.IsNull() && d.Kind() == types.String {
				n += int64(len(d.Str()))
			}
		}
	}
	return n
}

// runCached is the result-cache wrapper around prepared.run: serve a
// provably-equivalent cached result when one exists, otherwise execute
// under single-flight so concurrent identical queries admit one
// executor. With the cache disarmed it is exactly prepared.run.
func (p *prepared) runCached(db *DB, params []types.Datum, cacheStatus string, opts runOpts) (*Rows, error) {
	if opts.rcache == nil {
		return p.run(db, params, cacheStatus, opts)
	}
	key, tables, ok := resultKey(p, params, opts)
	if !ok {
		return p.run(db, params, cacheStatus, opts)
	}
	start := time.Now()
	goCtx := opts.ctx
	if goCtx == nil {
		goCtx = context.Background()
	}
	v, src, err := opts.rcache.Do(goCtx, key, tables, func() (any, int64, error) {
		rows, err := p.run(db, params, cacheStatus, opts)
		if err != nil {
			return nil, 0, err
		}
		return rows, approxRowsBytes(rows.Data), nil
	})
	if err != nil {
		return nil, err
	}
	cached := v.(*Rows)
	if src == resultcache.SrcMiss {
		// This caller executed; run already noted metrics and the log.
		return cached, nil
	}
	// Hit or shared: copy the result header (payload rows are shared,
	// immutable) and note a run of our own — the request happened even
	// though execution did not.
	elapsed := time.Since(start)
	r := *cached
	r.Cache = "result"
	r.Elapsed = elapsed
	r.PeakMemBytes, r.Spills, r.Workers, r.Morsels = 0, 0, 0, 0
	r.spans = nil
	db.noteRun(p, "result", elapsed, int64(len(r.Data)), nil, 0, 0, 0, 0, opts)
	return &r, nil
}

// resultCacheStatus previews — without executing, counting, or
// touching recency — whether the result cache currently holds this
// plan's result. Best-effort: the preview compiles without
// parameterization, so a parameterized cached entry for the same text
// may not be found. Returns "off" when caching is disabled, else
// "hit", "miss", or "uncacheable".
func (db *DB) resultCacheStatus(md *algebra.Metadata, plan algebra.Rel, cfg Config) string {
	if !cfg.ResultCache.Enabled {
		return "off"
	}
	db.rcMu.Lock()
	c := db.rcache
	db.rcMu.Unlock()
	if c == nil {
		return "miss"
	}
	p := &prepared{md: md, plan: plan, fingerprint: planFingerprint(md, plan)}
	opts := runOpts{rcCfgKey: cfg.planKey(), snap: db.store.Snapshot()}
	key, _, ok := resultKey(p, nil, opts)
	if !ok {
		return "uncacheable"
	}
	if c.Contains(key) {
		return "hit"
	}
	return "miss"
}
