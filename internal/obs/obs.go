// Package obs is the engine's observability layer: a lock-cheap
// metrics registry (atomic counters and histograms updated on every
// query), per-query operator span trees built from execution traces,
// and structured JSONL query-log records. The package is a leaf —
// stdlib only — so the executor, optimizer, and public API can all
// depend on it without cycles.
//
// Design rule (mirrors the governance knobs of the lifecycle PR):
// observability state is run state, never plan identity. Nothing in
// this package may leak into plan-cache keys; a cached plan is shared
// by traced and untraced runs alike.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Error classes for query-log records and failure counters. The
// classification itself happens in the orthoq layer (obs cannot import
// the executor's sentinel errors without a cycle).
const (
	ClassTimeout   = "timeout"
	ClassCanceled  = "canceled"
	ClassRowBudget = "row_budget"
	ClassMemBudget = "mem_budget"
	ClassInternal  = "internal"
	ClassOther     = "error"
)

// Metrics is an engine-wide registry of atomic counters. One instance
// lives on each DB handle; every query execution path updates it with
// a handful of atomic adds (no locks, no allocation), so the registry
// costs nothing measurable even on sub-millisecond queries.
type Metrics struct {
	// Queries counts executions started (success and failure, all
	// entry points: Query*, Stmt.Run*, QueryStream*, QueryAnalyze).
	Queries atomic.Uint64
	// Failures counts executions that returned an error, further
	// classified by the taxonomy counters below.
	Failures        atomic.Uint64
	Timeouts        atomic.Uint64
	Cancels         atomic.Uint64
	RowBudgetHits   atomic.Uint64
	MemBudgetHits   atomic.Uint64
	PanicsContained atomic.Uint64
	OtherErrors     atomic.Uint64

	// RowsReturned totals result rows across successful queries.
	RowsReturned atomic.Uint64
	// ExecNanos totals pure execution wall time (compile excluded).
	ExecNanos atomic.Uint64
	// Spills totals spill partition files written.
	Spills atomic.Uint64
	// PeakMemMax is the largest single-query peak of accounted
	// operator memory observed (a high-water gauge, not a sum).
	PeakMemMax atomic.Int64
	// WorkersSpawned and MorselsDispatched total the morsel-driven
	// parallel execution activity.
	WorkersSpawned    atomic.Uint64
	MorselsDispatched atomic.Uint64

	// Durations is a histogram of query execution times.
	Durations Histogram
}

// RecordRun folds one finished execution into the registry: duration,
// rows, spill/parallelism activity, and the error classification
// (errClass "" means success).
func (m *Metrics) RecordRun(d time.Duration, rows int64, errClass string) {
	m.Queries.Add(1)
	m.ExecNanos.Add(uint64(d))
	m.Durations.Observe(d)
	if errClass == "" {
		if rows > 0 {
			m.RowsReturned.Add(uint64(rows))
		}
		return
	}
	m.Failures.Add(1)
	switch errClass {
	case ClassTimeout:
		m.Timeouts.Add(1)
	case ClassCanceled:
		m.Cancels.Add(1)
	case ClassRowBudget:
		m.RowBudgetHits.Add(1)
	case ClassMemBudget:
		m.MemBudgetHits.Add(1)
	case ClassInternal:
		m.PanicsContained.Add(1)
	default:
		m.OtherErrors.Add(1)
	}
}

// NotePeakMem raises the peak-memory high-water gauge.
func (m *Metrics) NotePeakMem(peak int64) {
	for {
		cur := m.PeakMemMax.Load()
		if peak <= cur || m.PeakMemMax.CompareAndSwap(cur, peak) {
			return
		}
	}
}

// Snapshot is a point-in-time copy of the registry, safe to marshal
// and compare. CacheHits/CacheMisses/CacheBypasses/CacheEvictions are
// filled by the DB layer from the plan cache's own counters.
type Snapshot struct {
	Queries         uint64 `json:"queries"`
	Failures        uint64 `json:"failures"`
	Timeouts        uint64 `json:"timeouts"`
	Cancels         uint64 `json:"cancels"`
	RowBudgetHits   uint64 `json:"row_budget_hits"`
	MemBudgetHits   uint64 `json:"mem_budget_hits"`
	PanicsContained uint64 `json:"panics_contained"`
	OtherErrors     uint64 `json:"other_errors"`

	RowsReturned uint64        `json:"rows_returned"`
	ExecTime     time.Duration `json:"exec_ns"`
	Spills       uint64        `json:"spills"`
	PeakMemMax   int64         `json:"peak_mem_max"`

	WorkersSpawned    uint64 `json:"workers_spawned"`
	MorselsDispatched uint64 `json:"morsels_dispatched"`

	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheBypasses  uint64 `json:"cache_bypasses"`
	CacheEvictions uint64 `json:"cache_evictions"`

	Durations HistogramSnapshot `json:"durations"`

	// Server holds server-mode counters (sessions, admission control,
	// the global memory pool, cursor reaping). Nil for embedded use;
	// filled by the server layer's metrics snapshot.
	Server *ServerSnapshot `json:"server,omitempty"`

	// ResultCache holds semantic result-cache counters. Nil until a run
	// enables the cache; filled by the DB layer from the cache's own
	// counters.
	ResultCache *ResultCacheSnapshot `json:"result_cache,omitempty"`

	// WAL holds durability counters (log appends, fsyncs, group
	// commits, checkpoints, recovery replay). Nil for purely in-memory
	// handles; filled by the DB layer when the database was opened with
	// a data directory.
	WAL *WALSnapshot `json:"wal,omitempty"`
}

// ResultCacheSnapshot is the point-in-time copy of the semantic result
// cache's effectiveness counters. Shared counts single-flight waiters
// served by a concurrent leader's execution.
type ResultCacheSnapshot struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Shared        uint64 `json:"shared"`
	Inserts       uint64 `json:"inserts"`
	Rejected      uint64 `json:"rejected"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int64  `json:"entries"`
	Bytes         int64  `json:"bytes"`
}

// Snapshot copies the registry. Counters are read individually (not as
// one atomic unit): totals may be skewed by concurrently finishing
// queries, which is fine for monitoring.
func (m *Metrics) Snapshot() Snapshot {
	return Snapshot{
		Queries:           m.Queries.Load(),
		Failures:          m.Failures.Load(),
		Timeouts:          m.Timeouts.Load(),
		Cancels:           m.Cancels.Load(),
		RowBudgetHits:     m.RowBudgetHits.Load(),
		MemBudgetHits:     m.MemBudgetHits.Load(),
		PanicsContained:   m.PanicsContained.Load(),
		OtherErrors:       m.OtherErrors.Load(),
		RowsReturned:      m.RowsReturned.Load(),
		ExecTime:          time.Duration(m.ExecNanos.Load()),
		Spills:            m.Spills.Load(),
		PeakMemMax:        m.PeakMemMax.Load(),
		WorkersSpawned:    m.WorkersSpawned.Load(),
		MorselsDispatched: m.MorselsDispatched.Load(),
		Durations:         m.Durations.Snapshot(),
	}
}

// histBuckets is the bucket count of the duration histogram: bucket i
// holds durations in [2^i, 2^(i+1)) microseconds, with the last bucket
// open-ended (~1.2 hours and beyond is all the same bucket).
const histBuckets = 32

// Histogram is a lock-free power-of-two histogram of durations with
// microsecond resolution. Observe is two atomic adds.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64 // microseconds
	n      atomic.Uint64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	b := bits.Len64(uint64(us)) // 0 for 0µs, else floor(log2)+1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.counts[b].Add(1)
	h.sum.Add(uint64(us))
	h.n.Add(1)
}

// HistogramSnapshot is a point-in-time histogram copy.
type HistogramSnapshot struct {
	// Counts[i] holds observations with floor(log2(µs))+1 == i (index
	// 0 is sub-microsecond).
	Counts [histBuckets]uint64 `json:"counts"`
	// SumMicros is the sum of all observations in microseconds.
	SumMicros uint64 `json:"sum_us"`
	// N is the observation count.
	N uint64 `json:"n"`
}

// Snapshot copies the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.SumMicros = h.sum.Load()
	s.N = h.n.Load()
	return s
}

// Mean returns the average observed duration (0 when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.N == 0 {
		return 0
	}
	return time.Duration(s.SumMicros/s.N) * time.Microsecond
}
