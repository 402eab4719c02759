package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"orthoq"
	"orthoq/internal/obs"
	"orthoq/internal/server"
	"orthoq/internal/tpch"
)

// The durability settings serve_mixed runs under; the run prints them.
const (
	serveSync            = "interval"
	serveCheckpointBytes = 256 << 10
	// insertPrice is every inserted order's o_totalprice, so a
	// month's order sum follows from its order count.
	insertPrice = 1000.0
	// zipfS skews key draws: a few customers, and the latest months,
	// take most of the traffic.
	zipfS = 1.1
)

// aggMonths are the first days of the months the agg kind reports on,
// latest first: every full month of generated order dates.
var aggMonths = func() []string {
	var ms []string
	for y := 1997; y >= 1992; y-- {
		for m := 12; m >= 1; m-- {
			ms = append(ms, fmt.Sprintf("%d-%02d-01", y, m))
		}
	}
	return ms
}()

var (
	q17Brands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#14", "Brand#15", "Brand#21", "Brand#22", "Brand#23", "Brand#24", "Brand#25", "Brand#31", "Brand#32", "Brand#33", "Brand#34", "Brand#35", "Brand#41", "Brand#42", "Brand#43", "Brand#44", "Brand#45", "Brand#51", "Brand#52", "Brand#53", "Brand#54", "Brand#55"}
	q17Containers = []string{"MED BOX", "SM CASE", "LG PACK", "JUMBO JAR", "WRAP BAG"}
	q6Years       = []string{"1993", "1994", "1995", "1996", "1997"}
	q6Discounts   = []string{"0.03", "0.04", "0.05", "0.06", "0.07"}
)

func pointSQL(key int64) string {
	return fmt.Sprintf("select c_name, c_acctbal from customer where c_custkey = %d", key)
}

// aggSQL is a month's order count and revenue. It filters on
// o_orderdate, which no index covers, so it reads the orders table by
// scan (see README.md, "Known engine defect", for why not by o_custkey).
func aggSQL(month int) string {
	m := aggMonths[month]
	return fmt.Sprintf("select count(*), sum(o_totalprice) from orders where o_orderdate >= date '%s' and o_orderdate < date '%s' + interval '1' month", m, m)
}

func q17SQL(brand, container string) string {
	return strings.NewReplacer("Brand#23", brand, "MED BOX", container).Replace(tpch.Queries["Q17"])
}

// q6SQL varies Q6's year and centres its discount band on disc.
func q6SQL(year, disc string) string {
	var d float64
	fmt.Sscan(disc, &d)
	return strings.NewReplacer("1994-01-01", year+"-01-01",
		"0.05", fmt.Sprintf("%.2f", d-0.01), "0.07", fmt.Sprintf("%.2f", d+0.01)).Replace(tpch.Queries["Q6"])
}

// serveRef holds serve_mixed's reference answers, computed at set-up on
// an in-memory copy of the data under the reference configuration.
type serveRef struct {
	custKeys []int64
	point    map[int64]bag
	// Orders per aggMonths entry before any insert.
	baseCount []int64
	baseSum   []float64
	variants  map[string]bag // Q17 and Q6 variant text -> answer
}

func buildServeRef(o options) (*serveRef, error) {
	db, err := orthoq.OpenTPCH(o.sf, o.dataSeed)
	if err != nil {
		return nil, err
	}
	ref := &serveRef{point: map[int64]bag{}, baseCount: make([]int64, len(aggMonths)),
		baseSum: make([]float64, len(aggMonths)), variants: map[string]bag{}}
	rows, err := db.QueryCfg("select c_custkey, c_name, c_acctbal from customer order by c_custkey", referenceConfig())
	if err != nil {
		return nil, err
	}
	for _, r := range rows.Data {
		k := r[0].Int()
		ref.custKeys = append(ref.custKeys, k)
		ref.point[k] = rowsBag([]orthoq.Row{r[1:]})
	}
	for m := range aggMonths {
		b, err := reference(db, aggSQL(m))
		if err != nil {
			return nil, err
		}
		if len(b) != 1 || len(b[0]) != 2 || !b[0][0].isNum {
			return nil, fmt.Errorf("month %s: malformed reference %v", aggMonths[m], b)
		}
		ref.baseCount[m] = int64(b[0][0].num)
		ref.baseSum[m] = b[0][1].num
	}
	var texts []string
	for _, b := range q17Brands {
		for _, c := range q17Containers {
			texts = append(texts, q17SQL(b, c))
		}
	}
	for _, y := range q6Years {
		for _, d := range q6Discounts {
			texts = append(texts, q6SQL(y, d))
		}
	}
	for _, t := range texts {
		if ref.variants[t], err = reference(db, t); err != nil {
			return nil, err
		}
	}
	if o.corruptReference {
		k := ref.custKeys[0]
		ref.point[k] = corrupt(ref.point[k])
	}
	return ref, nil
}

// serveEnv is the durable database behind an in-process wire server.
type serveEnv struct {
	dir string
	db  *orthoq.DB
}

func openServeDB(o options) (*serveEnv, error) {
	dir, err := os.MkdirTemp(o.workDir, "serve-")
	if err != nil {
		return nil, err
	}
	db, err := orthoq.OpenDurableTPCH(o.sf, o.dataSeed, orthoq.DurableConfig{
		DataDir: dir, SyncPolicy: serveSync, CheckpointBytes: serveCheckpointBytes})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &serveEnv{dir: dir, db: db}, nil
}

func (e *serveEnv) close() error {
	err := e.db.Close()
	if rerr := os.RemoveAll(e.dir); err == nil {
		err = rerr
	}
	return err
}

// wireServer is a server.Server behind a loopback HTTP listener.
type wireServer struct {
	srv *server.Server
	ts  *httptest.Server
}

func startServer(db *orthoq.DB, queryLog io.Writer) (*wireServer, error) {
	srv := server.New(db, server.Config{QueryLog: queryLog})
	ts := httptest.NewServer(srv.Handler())
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		ts.Close()
		srv.Close()
		return nil, err
	}
	return &wireServer{srv: srv, ts: ts}, nil
}

func (w *wireServer) close() {
	w.ts.Close()
	w.srv.Close()
}

// opRecord is one completed wire request.
type opRecord struct {
	kind    string
	session string
	latency time.Duration
	end     time.Duration // since the phase started
}

// serveTraffic is the shared state of one traffic phase.
type serveTraffic struct {
	ref *serveRef
	// issued counts inserts sent per aggMonths entry, by every session.
	issued []atomic.Int64
	// nextOrder hands out unique o_orderkey values.
	nextOrder *atomic.Int64
	userBytes atomic.Int64
}

// phase drives serveSessions closed-loop sessions against ws for budget
// and returns every completed operation.
func (tr *serveTraffic) phase(ws *wireServer, seed int64, budget time.Duration,
	rep *report) ([]opRecord, time.Duration) {
	results := make([]sessionResult, serveSessions())
	var wg sync.WaitGroup
	start := time.Now()
	for s := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{http: ws.ts.Client(), base: ws.ts.URL}
			rng := rand.New(rand.NewSource(seed*1000 + int64(s)))
			results[s] = tr.session(c, rng, start, budget)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	var ops []opRecord
	for _, r := range results {
		ops = append(ops, r.ops...)
		rep.attempted += int64(len(r.ops)) + r.errors
		for kind, n := range r.failed {
			rep.failed += n
			rep.failedBy[kind] += n
		}
		for _, m := range r.msgs {
			rep.problem("%s", m)
		}
	}
	return ops, elapsed
}

// sessionResult is what one session's loop brings back.
type sessionResult struct {
	ops []opRecord
	// errors counts requests that failed outright; they have no
	// opRecord.
	errors int64
	// failed counts failed requests and wrong answers by kind.
	failed map[string]int64
	// msgs keeps the first few failure messages.
	msgs []string
}

func (r *sessionResult) fail(kind, format string, args ...any) {
	r.failed[kind]++
	if len(r.msgs) < 20 {
		r.msgs = append(r.msgs, kind+": "+fmt.Sprintf(format, args...))
	}
}

// session is one wire client's closed loop.
func (tr *serveTraffic) session(c *client, rng *rand.Rand, start time.Time, budget time.Duration) sessionResult {
	r := sessionResult{failed: map[string]int64{}}
	sid, err := c.openSession()
	if err != nil {
		r.errors++
		r.fail("session", "%v", err)
		return r
	}
	defer c.closeSession(sid)
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(tr.ref.custKeys)-1))
	monthZipf := rand.NewZipf(rng, zipfS, 1, uint64(len(aggMonths)-1))
	own := make([]int64, len(aggMonths)) // this session's acknowledged inserts per month
	for time.Since(start) < budget {
		key := tr.ref.custKeys[zipf.Uint64()]
		month := int(monthZipf.Uint64())
		var kind, sql string
		switch u := rng.Intn(100); {
		case u < 50:
			kind, sql = "point", pointSQL(key)
		case u < 70:
			kind, sql = "agg", aggSQL(month)
		case u < 80:
			kind, sql = "q17", q17SQL(q17Brands[rng.Intn(len(q17Brands))], q17Containers[rng.Intn(len(q17Containers))])
		case u < 90:
			kind, sql = "q6", q6SQL(q6Years[rng.Intn(len(q6Years))], q6Discounts[rng.Intn(len(q6Discounts))])
		default:
			kind = "insert"
		}
		t := time.Now()
		var got bag
		if kind == "insert" {
			date := aggMonths[month][:8] + "15"
			row := []any{tr.nextOrder.Add(1), key, "O", insertPrice, date, "3-MEDIUM", "Clerk#000000001", 0, "serve_mixed"}
			tr.issued[month].Add(1)
			var n int
			n, err = c.insert(sid, row)
			if err == nil {
				own[month]++
				tr.userBytes.Add(int64(n))
			}
		} else {
			got, err = c.query(sid, sql)
		}
		d := time.Since(t)
		if err != nil {
			r.errors++
			r.fail(kind, "%v", err)
			continue
		}
		r.ops = append(r.ops, opRecord{kind: kind, session: sid, latency: d, end: time.Since(start)})
		if msg := tr.check(kind, sql, key, month, got, own[month]); msg != "" {
			r.fail(kind, "wrong answer: %s", msg)
		}
	}
	return r
}

// check verifies one read against the reference. Order counts race
// with inserts: a month's count lies between its base count plus this
// session's acknowledged inserts and its base count plus every insert
// issued so far.
func (tr *serveTraffic) check(kind, sql string, key int64, month int, got bag, own int64) string {
	switch kind {
	case "point":
		return diff(got, tr.ref.point[key])
	case "agg":
		if len(got) != 1 || len(got[0]) != 2 || !got[0][0].isNum {
			return fmt.Sprintf("malformed result %v", got)
		}
		base := tr.ref.baseCount[month]
		n := int64(got[0][0].num)
		if lo, hi := base+own, base+tr.issued[month].Load(); n < lo || n > hi {
			return fmt.Sprintf("month %s: %d orders, want %d..%d", aggMonths[month], n, lo, hi)
		}
		want := tr.ref.baseSum[month] + float64(n-base)*insertPrice
		if sum := got[0][1]; n > 0 && (sum.null || !near(sum.num, want)) {
			return fmt.Sprintf("month %s: order sum %s, want %v", aggMonths[month], rowString(got[0]), want)
		}
	case "q17", "q6":
		return diff(got, tr.ref.variants[sql])
	}
	return ""
}

// client speaks the server's HTTP/JSON wire protocol.
type client struct {
	http *http.Client
	base string
}

func (c *client) post(path string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return nil, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return resp, nil
}

func (c *client) openSession() (string, error) {
	resp, err := c.post("/session", struct{}{})
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct{ Session string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", fmt.Errorf("session: %w", err)
	}
	return out.Session, nil
}

func (c *client) closeSession(sid string) {
	req, err := http.NewRequest(http.MethodDelete, c.base+"/session/"+sid, nil)
	if err != nil {
		return
	}
	if resp, err := c.http.Do(req); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
}

// query runs sql in the session and decodes the JSONL result.
func (c *client) query(sid, sql string) (bag, error) {
	resp, err := c.post("/query", map[string]string{"session": sid, "sql": sql})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	var out bag
	for {
		var line struct {
			Row  []any `json:"row"`
			Done bool  `json:"done"`
		}
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("query result: %w", err)
		}
		if line.Done {
			return out, nil
		}
		if line.Row == nil {
			continue // the columns header
		}
		row := make([]cell, len(line.Row))
		for i, v := range line.Row {
			if row[i], err = jsonCell(v); err != nil {
				return nil, err
			}
		}
		out = append(out, row)
	}
}

// insert adds one orders row and returns its encoded size in bytes.
func (c *client) insert(sid string, row []any) (int, error) {
	rowJSON, err := json.Marshal(row)
	if err != nil {
		return 0, err
	}
	resp, err := c.post("/exec", map[string]any{"session": sid,
		"insert": map[string]any{"table": "orders", "rows": []json.RawMessage{rowJSON}}})
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var out struct{ Inserted int }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Inserted != 1 {
		return 0, fmt.Errorf("insert: got %d rows, err %v", out.Inserted, err)
	}
	return len(rowJSON), nil
}

// runServe runs serve_mixed.
func runServe(o options, stdout io.Writer) (*report, error) {
	rep := newReport()
	fmt.Fprintf(stdout, "serve_mixed: sync=%s checkpoint_bytes=%d sessions=%d\n",
		serveSync, serveCheckpointBytes, serveSessions())
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	// Set up setupReps times and keep the first database and server:
	// the engine publishes the first handle's counters process-wide,
	// which keeps it reachable anyway.
	var times []float64
	var env *serveEnv
	var ws *wireServer
	for i := 0; i < o.setupReps; i++ {
		runtime.GC()
		t := time.Now()
		e, err := openServeDB(o)
		if err != nil {
			return nil, err
		}
		w, err := startServer(e.db, nil)
		if err != nil {
			e.close()
			return nil, err
		}
		times = append(times, time.Since(t).Seconds())
		if i == 0 {
			env, ws = e, w
			defer env.close()
			defer ws.close()
			continue
		}
		w.close()
		if err := e.close(); err != nil {
			return nil, err
		}
	}
	rep.values["setup_s"] = median(times)

	ref, err := buildServeRef(o)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	tr := &serveTraffic{ref: ref, nextOrder: new(atomic.Int64),
		issued: make([]atomic.Int64, len(aggMonths))}
	tr.nextOrder.Store(100_000_000)
	budget := time.Duration(o.seconds * float64(time.Second))

	if !o.traced {
		ops, elapsed := tr.phase(ws, o.seed, budget, rep)
		serveEndToEnd(stdout, ops, elapsed, rep)
		rep.values["heap_live_mb"] = heapLiveMB()
		return rep, nil
	}

	// Traced run: half the budget on the untraced server, half on a
	// second server over the same database that writes the query log.
	opsA, elapsedA := tr.phase(ws, o.seed, budget/2, rep)
	logPath := filepath.Join(env.dir, "query.log")
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	wsB, err := startServer(env.db, logf)
	if err != nil {
		return nil, err
	}
	before := env.db.Metrics()
	user0 := tr.userBytes.Load()
	opsB, elapsedB := tr.phase(wsB, o.seed+1, budget/2, rep)
	after := wsB.srv.Metrics()
	wsB.close()
	if len(opsA) > 0 && len(opsB) > 0 {
		rep.values["trace.overhead_ratio"] = (elapsedB.Seconds() / float64(len(opsB))) /
			(elapsedA.Seconds() / float64(len(opsA)))
	}
	if err := logf.Sync(); err != nil {
		return nil, err
	}
	recs, err := readQueryLog(logPath)
	if err != nil {
		return nil, err
	}
	serveLayers(opsB, recs, before, after, tr.userBytes.Load()-user0, rep)
	return rep, nil
}

// serveSessions is the client count: two, never more than the CPUs.
func serveSessions() int { return min(2, runtime.NumCPU()) }

// serveEndToEnd computes the end-to-end metrics of one phase and prints
// the sample count behind each.
func serveEndToEnd(stdout io.Writer, ops []opRecord, elapsed time.Duration, rep *report) {
	if len(ops) == 0 {
		return
	}
	var all []float64
	byKind := map[string][]float64{}
	for _, op := range ops {
		all = append(all, op.latency.Seconds()*1e3)
		byKind[op.kind] = append(byKind[op.kind], op.latency.Seconds()*1e3)
	}
	var medians []float64
	fmt.Fprintf(stdout, "samples: ops=%d", len(ops))
	for _, k := range append(append([]string(nil), serveKinds...), "insert") {
		xs := byKind[k]
		fmt.Fprintf(stdout, " %s=%d(p50 %.3g ms, p99 %.3g ms)", k, len(xs), median(xs), quantile(xs, 0.99))
		if len(xs) > 0 {
			medians = append(medians, median(xs))
		}
	}
	fmt.Fprintln(stdout)
	rep.values["ops_per_s"] = windowRate(ops, elapsed)
	rep.values["op_geomean_ms"] = geomean(medians)
	rep.values["op_p95_ms"] = quantile(all, 0.95)
	rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
}

// windowRate is the median completion rate over one-second windows (a
// tenth of the phase when it is shorter than ten seconds); a median
// over windows keeps a checkpoint stall from swinging the figure.
func windowRate(ops []opRecord, elapsed time.Duration) float64 {
	w := time.Second
	if elapsed < 10*time.Second {
		w = elapsed / 10
	}
	n := int(elapsed / w)
	counts := make([]float64, n)
	for _, op := range ops {
		if i := int(op.end / w); i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

func readQueryLog(path string) ([]obs.QueryRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []obs.QueryRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r obs.QueryRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("query log: %w", err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// serveLayers computes serve_mixed's per-layer metrics from the traced
// phase: client-side latencies, the query log, and counter deltas.
func serveLayers(ops []opRecord, recs []obs.QueryRecord, before, after orthoq.MetricsSnapshot,
	userBytes int64, rep *report) {
	// Match log records to reads: each session is closed loop, so its
	// records appear in its request order.
	bySession := map[string][]obs.QueryRecord{}
	var queued float64
	for _, r := range recs {
		bySession[r.Session] = append(bySession[r.Session], r)
		queued += float64(r.QueuedUS)
	}
	next := map[string]int{}
	var overhead []float64
	byKind := map[string][]float64{}
	for _, op := range ops {
		byKind[op.kind] = append(byKind[op.kind], op.latency.Seconds()*1e3)
		if op.kind == "insert" {
			continue
		}
		i := next[op.session]
		next[op.session]++
		if i < len(bySession[op.session]) {
			overhead = append(overhead, float64(op.latency.Microseconds()-bySession[op.session][i].DurationUS))
		}
	}
	for s, rs := range bySession {
		if next[s] != len(rs) {
			rep.problem("session %s: %d query-log records for %d reads", s, len(rs), next[s])
		}
	}
	rep.values["server.overhead_us"] = median(overhead)
	if len(recs) > 0 {
		rep.values["server.queued_us"] = queued / float64(len(recs))
	}
	if after.Server != nil {
		rep.values["server.admission_queued"] = float64(after.Server.QueriesQueued)
	}
	var reads []float64
	for _, k := range serveKinds {
		rep.values["server.read_p50_ms."+k] = median(byKind[k])
		reads = append(reads, byKind[k]...)
	}
	rep.values["server.read_p99_ms"] = quantile(reads, 0.99)
	rep.values["server.write_p50_ms"] = median(byKind["insert"])
	rep.values["server.write_p99_ms"] = quantile(byKind["insert"], 0.99)

	hits := after.CacheHits - before.CacheHits
	compiles := (after.CacheMisses - before.CacheMisses) + (after.CacheBypasses - before.CacheBypasses)
	if n := hits + compiles; n > 0 {
		rep.values["plancache.hit_ratio"] = float64(hits) / float64(n)
	}
	rep.values["plancache.compiles"] = float64(compiles)
	if a, b := after.ResultCache, before.ResultCache; a != nil {
		if b == nil {
			b = &obs.ResultCacheSnapshot{}
		}
		h, m := a.Hits-b.Hits, a.Misses-b.Misses
		if h+m > 0 {
			rep.values["resultcache.hit_ratio"] = float64(h) / float64(h+m)
		}
		rep.values["resultcache.invalidations"] = float64(a.Invalidations - b.Invalidations)
		rep.values["resultcache.bytes"] = float64(a.Bytes)
	}
	if a, b := after.WAL, before.WAL; a != nil && b != nil {
		if n := len(byKind["insert"]); n > 0 {
			rep.values["wal.fsyncs_per_write"] = float64(a.Fsyncs-b.Fsyncs) / float64(n)
		}
		if g := a.GroupCommits - b.GroupCommits; g > 0 {
			rep.values["wal.group_size"] = float64(a.GroupCommitRecords-b.GroupCommitRecords) / float64(g)
		}
		if userBytes > 0 {
			rep.values["wal.bytes_per_user_byte"] = float64(a.Bytes-b.Bytes) / float64(userBytes)
		}
		rep.values["wal.checkpoints"] = float64(a.Checkpoints - b.Checkpoints)
		rep.values["wal.checkpoint_bytes"] = float64(a.CheckpointBytes - b.CheckpointBytes)
	}
}
