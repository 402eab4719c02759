package obs

import (
	"encoding/json"
	"io"
	"time"
)

// QueryRecord is one structured query-log entry, written as a single
// JSON line. Every completed execution — success or failure — emits
// one record when a query log is configured, so the log doubles as a
// slow-query log (filter on duration_us) and an error log (filter on
// error_class).
type QueryRecord struct {
	// Time is the completion time, RFC3339 with nanoseconds.
	Time string `json:"ts"`
	// Fingerprint identifies the plan (FNV-64a over the plan text) —
	// the same identifier used in contained-panic reports and pprof
	// labels, so log lines, bug reports, and profiles join on it.
	Fingerprint string `json:"fingerprint"`
	// Cache is how the caches served the query: "hit", "miss", or
	// "bypass" from the plan cache, "result" when the semantic result
	// cache returned the materialized result without executing (or
	// shared a concurrent identical execution via single-flight), or ""
	// for paths that consult no cache.
	Cache string `json:"cache,omitempty"`
	// Session labels the record with the server session that ran the
	// query (empty for embedded/library use).
	Session string `json:"session,omitempty"`
	// QueuedUS is the time the query waited in the server's admission
	// queue before execution, in microseconds (0 = admitted
	// immediately or embedded use).
	QueuedUS int64 `json:"queued_us,omitempty"`
	// Rules lists the rewrite rules that produced the plan —
	// normalization identities and cost-based transformations, in
	// firing order, deduplicated.
	Rules []string `json:"rules,omitempty"`
	// PlansExplored and CapHit are the search effort of the compile
	// that produced the plan (cache hits repeat them): plans explored,
	// and whether the search stopped at its step cap.
	PlansExplored int  `json:"plans_explored,omitempty"`
	CapHit        bool `json:"cap_hit,omitempty"`
	// DurationUS is the pure execution wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Rows is the result row count (0 on failure).
	Rows int64 `json:"rows"`
	// PeakMemBytes is the high-water mark of accounted operator memory.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
	// Spills counts spill partition files written.
	Spills int64 `json:"spills,omitempty"`
	// Workers and Morsels report morsel-driven parallel activity.
	Workers int64 `json:"workers,omitempty"`
	Morsels int64 `json:"morsels,omitempty"`
	// ErrorClass classifies a failure (Class* constants); empty on
	// success.
	ErrorClass string `json:"error_class,omitempty"`
	// Error is the failure message; empty on success.
	Error string `json:"error,omitempty"`
}

// Now stamps the record's completion time.
func (r *QueryRecord) Now() {
	r.Time = time.Now().Format(time.RFC3339Nano)
}

// Append marshals the record and writes it to w as one line with a
// trailing newline, in a single Write call. Callers sharing a writer
// across goroutines must serialize calls (the DB layer holds one lock
// per handle); the single-Write discipline keeps lines intact even
// for writers that are only per-call atomic, like os.File.
func (r *QueryRecord) Append(w io.Writer) error {
	buf, err := json.Marshal(r)
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
