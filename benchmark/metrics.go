package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// Metric declares one reported figure: its name, unit, which direction
// is better, and — for a per-layer metric — the end-to-end metric and
// workload it is expected to move.
type Metric struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move ("" for end-to-end metrics).
	Moves string
}

// Workload names.
const (
	wlCold  = "tpch_cold"
	wlWarm  = "tpch_warm"
	wlServe = "serve_mixed"
)

// workloadWhy records why each workload exists; BENCHMARK.json carries
// the same sentences.
var workloads = []struct{ Name, Why string }{
	{wlCold, "opt workload: 12 TPC-H queries compiled from scratch each time (plan cache off), so optimizer search dominates"},
	{wlWarm, "exec workload: same corpus with a warmed plan cache and result cache off, so execution does the work and opt none"},
	{wlServe, "2 wire sessions on a durable server: Zipf lookups, per-month order aggregates, Q6/Q17 variants and 10% inserts"},
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 30

// tpchQueries is the corpus in reporting order.
var tpchQueries = []string{"Q1", "Q2", "Q4", "Q6", "Q11", "Q15", "Q16", "Q17", "Q18", "Q20", "Q21", "Q22"}

// opKinds are the operator span names exec.self_ms is summed over.
var opKinds = []string{"Get", "Select", "Project", "Join", "Apply", "GroupBy", "SegmentApply",
	"SegmentRef", "Max1Row", "UnionAll", "Difference", "Values", "Sort", "Top", "RowNumber"}

// serveKinds are the serve_mixed read kinds (the fifth kind, insert, is
// the write).
var serveKinds = []string{"point", "agg", "q17", "q6"}

// endToEnd lists the metrics every untraced run prints, on every
// workload. An operation is one query (tpch_*) or one wire request
// (serve_mixed); a kind is one corpus query or one mix entry.
var endToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.1},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "op_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics every traced run prints, on every
// workload; a metric the workload's traced run does not measure reads
// 0. Lower is better unless the metric is a hit ratio or a commit group
// size.
func perLayer() []Metric {
	const (
		coldGeo  = "op_geomean_ms on tpch_cold"
		coldAll  = "ops_per_s and op_geomean_ms on tpch_cold"
		warmAll  = "ops_per_s and op_geomean_ms on tpch_warm"
		warmGeo  = "op_geomean_ms on tpch_warm"
		serveThr = "ops_per_s and op_geomean_ms on serve_mixed"
		serveGeo = "op_geomean_ms on serve_mixed"
		serveRC  = "op_geomean_ms, op_p95_ms and heap_live_mb on serve_mixed"
		serveWAL = "op_p95_ms and op_geomean_ms (insert kind) on serve_mixed"
	)
	ms := []Metric{
		{Name: "parser.parse_us", Unit: "us", Moves: coldGeo},
		{Name: "algebrize.build_us", Unit: "us", Moves: coldGeo},
		{Name: "core.normalize_us", Unit: "us", Moves: coldGeo},
		{Name: "core.rules_fired", Unit: "count", Moves: coldGeo},
		{Name: "opt.optimize_ms", Unit: "ms", Moves: coldAll},
		{Name: "opt.plans_explored", Unit: "count", Moves: coldAll},
		{Name: "opt.step_cap_hits", Unit: "count", Moves: coldAll},
		{Name: "opt.alloc_mb", Unit: "MB", Moves: coldAll},
	}
	for _, q := range tpchQueries {
		ms = append(ms,
			Metric{Name: "opt.optimize_ms." + q, Unit: "ms", Moves: coldAll},
			Metric{Name: "opt.plans_explored." + q, Unit: "count", Moves: coldAll},
			Metric{Name: "opt.plan_cost." + q, Unit: "cost", Moves: "plan quality; exec time on tpch_warm"})
	}
	ms = append(ms,
		Metric{Name: "exec.run_ms", Unit: "ms", Moves: warmAll},
		Metric{Name: "exec.rows_per_result_row", Unit: "ratio", Moves: warmAll},
		Metric{Name: "exec.alloc_mb", Unit: "MB", Moves: warmAll})
	for _, q := range tpchQueries {
		ms = append(ms, Metric{Name: "exec.run_ms." + q, Unit: "ms", Moves: warmAll})
	}
	for _, op := range opKinds {
		ms = append(ms, Metric{Name: "exec.self_ms." + op, Unit: "ms", Moves: warmAll})
	}
	ms = append(ms,
		Metric{Name: "plancache.lookup_us", Unit: "us", Moves: warmGeo},
		Metric{Name: "plancache.hit_ratio", Unit: "ratio", Moves: warmGeo + "; " + serveGeo},
		Metric{Name: "plancache.compiles", Unit: "count", Moves: serveGeo},
		Metric{Name: "server.overhead_us", Unit: "us", Moves: serveThr},
		Metric{Name: "server.queued_us", Unit: "us", Moves: serveThr},
		Metric{Name: "server.admission_queued", Unit: "count", Moves: serveThr})
	for _, k := range serveKinds {
		ms = append(ms, Metric{Name: "server.read_p50_ms." + k, Unit: "ms", Moves: serveThr})
	}
	ms = append(ms,
		Metric{Name: "server.read_p99_ms", Unit: "ms", Moves: "op_p95_ms on serve_mixed"},
		Metric{Name: "server.write_p50_ms", Unit: "ms", Moves: serveWAL},
		Metric{Name: "server.write_p99_ms", Unit: "ms", Moves: serveWAL},
		Metric{Name: "resultcache.hit_ratio", Unit: "ratio", Moves: serveRC},
		Metric{Name: "resultcache.invalidations", Unit: "count", Moves: serveRC},
		Metric{Name: "resultcache.bytes", Unit: "bytes", Moves: serveRC},
		Metric{Name: "wal.fsyncs_per_write", Unit: "ratio", Moves: serveWAL},
		Metric{Name: "wal.group_size", Unit: "records", Moves: serveWAL},
		Metric{Name: "wal.bytes_per_user_byte", Unit: "ratio", Moves: serveWAL},
		Metric{Name: "wal.checkpoints", Unit: "count", Moves: serveWAL},
		Metric{Name: "wal.checkpoint_bytes", Unit: "bytes", Moves: serveWAL},
		Metric{Name: "trace.overhead_ratio", Unit: "ratio", Moves: "none: traced time over untraced time"})
	for i := range ms {
		switch ms[i].Name {
		case "plancache.hit_ratio", "resultcache.hit_ratio", "wal.group_size":
			ms[i].Better = "higher"
		default:
			ms[i].Better = "lower"
		}
	}
	return ms
}

// Result is the benchmark's final output line.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one measured figure with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report holds what a workload run measured, keyed by metric name.
type report struct {
	attempted, failed int64
	// problems lists wrong answers and cross-check failures; any entry
	// makes the run incorrect.
	problems []string
	// failedBy counts failures by the operation kind that starts each
	// failure message ("Q6", "agg", ...).
	failedBy map[string]int64
	values   map[string]float64
}

func newReport() *report {
	return &report{values: map[string]float64{}, failedBy: map[string]int64{}}
}

// fail records a failed or wrong operation; the message starts with the
// operation kind and a colon.
func (r *report) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	kind, _, _ := strings.Cut(msg, ":")
	r.failedBy[kind]++
	r.problem("%s", msg)
}

// problem records a correctness problem that is not itself an operation
// (a cross-check mismatch).
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// result selects the declared metrics from the report: every
// end-to-end metric when untraced, every per-layer metric when traced.
// A metric the run did not set reads 0.
func (r *report) result(traced bool) Result {
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	out := Result{
		Correct:   r.failed == 0 && len(r.problems) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]MetricValue, len(defs)),
	}
	for _, m := range defs {
		out.Metrics[m.Name] = MetricValue{Value: r.values[m.Name], Unit: m.Unit}
	}
	return out
}

func writeResult(w io.Writer, res Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// heapLiveMB forces a collection and returns the live heap in MB.
func heapLiveMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}
