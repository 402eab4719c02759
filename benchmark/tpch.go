package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"orthoq"
	"orthoq/internal/obs"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// tpchEnv is an opened TPC-H database with its reference answers.
type tpchEnv struct {
	store *storage.Store
	db    *orthoq.DB
	ref   map[string]bag
}

// openTPCH opens the database setupReps times and reports the median
// open time. It keeps the first database: the engine publishes the
// first handle's counters process-wide, which keeps that handle
// reachable, so the later ones are the ones left to the collector.
// OpenTPCH is Generate plus Open; the benchmark calls the two itself to
// keep the store for the traced pipeline.
func openTPCH(o options, rep *report) (*tpchEnv, error) {
	var times []float64
	env := &tpchEnv{}
	for i := 0; i < o.setupReps; i++ {
		runtime.GC()
		t := time.Now()
		st, err := tpch.Generate(o.sf, o.dataSeed)
		if err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
		db := orthoq.Open(st)
		times = append(times, time.Since(t).Seconds())
		if i == 0 {
			env.store, env.db = st, db
		}
	}
	rep.values["setup_s"] = median(times)

	env.ref = make(map[string]bag, len(tpchQueries))
	for _, q := range tpchQueries {
		b, err := reference(env.db, tpch.Queries[q])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q, err)
		}
		env.ref[q] = b
	}
	if o.corruptReference {
		env.ref["Q6"] = corrupt(env.ref["Q6"])
	}
	return env, nil
}

// passes calls pass(order) with a seeded shuffle of the corpus until
// the budget is spent, always at least once; a pass starts only if one
// more pass of the last pass's length still fits.
func passes(rng *rand.Rand, budget time.Duration, pass func(order []string) time.Duration) {
	start := time.Now()
	var last time.Duration
	for n := 0; n == 0 || time.Since(start)+last <= budget; n++ {
		order := append([]string(nil), tpchQueries...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		last = pass(order)
	}
}

// queryPasses measures the corpus through DB.QueryCfg, as a user runs
// it, for budget. It returns each pass's summed query time and each
// query's latencies, in seconds; oracle checks are outside the timing.
func queryPasses(env *tpchEnv, cfg orthoq.Config, rng *rand.Rand, budget time.Duration,
	rep *report) (passTimes []float64, lat map[string][]float64) {
	lat = make(map[string][]float64, len(tpchQueries))
	passes(rng, budget, func(order []string) time.Duration {
		var sum time.Duration
		for _, q := range order {
			t := time.Now()
			rows, err := env.db.QueryCfg(tpch.Queries[q], cfg)
			d := time.Since(t)
			sum += d
			rep.attempted++
			if err != nil {
				rep.fail("%s: %v", q, err)
			} else if msg := diff(rowsBag(rows.Data), env.ref[q]); msg != "" {
				rep.fail("%s: wrong answer: %s", q, msg)
			}
			lat[q] = append(lat[q], d.Seconds())
		}
		passTimes = append(passTimes, sum.Seconds())
		return sum
	})
	return passTimes, lat
}

// runTPCH runs tpch_cold or tpch_warm.
func runTPCH(o options, stdout io.Writer) (*report, error) {
	rep := newReport()
	env, err := openTPCH(o, rep)
	if err != nil {
		return nil, err
	}
	cfg := orthoq.DefaultConfig()
	cfg.PlanCache.Disabled = o.workload == wlCold
	rng := rand.New(rand.NewSource(o.seed))
	if o.workload == wlWarm {
		// Fill the plan cache; the result cache stays off (the default).
		for _, q := range tpchQueries {
			if _, err := env.db.QueryCfg(tpch.Queries[q], cfg); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", q, err)
			}
		}
	}
	cs0 := env.db.CacheStats()
	runtime.GC()
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		passTimes, lat := queryPasses(env, cfg, rng, budget, rep)
		fmt.Fprintf(stdout, "pass_s: %.4g\n", passTimes)
		var all, medians []float64
		for _, q := range tpchQueries {
			all = append(all, lat[q]...)
			medians = append(medians, median(lat[q]))
		}
		rep.values["ops_per_s"] = float64(len(tpchQueries)) / median(passTimes)
		rep.values["op_geomean_ms"] = geomean(medians) * 1e3
		rep.values["op_p95_ms"] = quantile(all, 0.95) * 1e3
		rep.values["ok_ratio"] = float64(rep.attempted-rep.failed) / float64(rep.attempted)
		rep.values["heap_live_mb"] = heapLiveMB()
		return rep, nil
	}

	// Traced run: half the budget untraced through DB.QueryCfg, half
	// layer by layer, so the ratio of the two is the tracing overhead.
	untraced, _ := queryPasses(env, cfg, rng, budget/2, rep)
	tracedPasses, err := layerPasses(env, cfg, o.workload == wlWarm, rng, budget/2, rep)
	if err != nil {
		return nil, err
	}
	rep.values["trace.overhead_ratio"] = median(tracedPasses) / median(untraced)
	// Plan-cache counters over the measured phases, after set-up's
	// reference queries and the warm-up.
	cs := env.db.CacheStats()
	hits := cs.Hits - cs0.Hits
	compiles := cs.Misses - cs0.Misses + cs.Bypasses - cs0.Bypasses
	if n := hits + compiles; n > 0 {
		rep.values["plancache.hit_ratio"] = float64(hits) / float64(n)
	}
	rep.values["plancache.compiles"] = float64(compiles)
	return rep, nil
}

// crossCheck compares the pipeline's plan and rows with what DB.QueryCfg
// runs under the same configuration.
func crossCheck(env *tpchEnv, q string, cfg orthoq.Config, c *compiled, lr *layerRun, rep *report) {
	rows, err := env.db.QueryCfg(tpch.Queries[q], cfg)
	if err != nil {
		rep.problem("%s: cross-check query: %v", q, err)
		return
	}
	if rows.Plan != c.render {
		rep.problem("%s: pipeline plan differs from Rows.Plan:\n%s\nvs\n%s", q, c.render, rows.Plan)
	}
	if msg := diff(rowsBag(lr.rows), rowsBag(rows.Data).sorted()); msg != "" {
		rep.problem("%s: pipeline rows differ from DB.QueryCfg: %s", q, msg)
	}
}

// layerPasses is the traced half of a TPC-H run: every query goes
// through the pipeline, cold (compile every time) or warm (compile once,
// then plan-cache lookup and execution). It records the per-layer
// metrics and returns each pass's traced time in seconds.
func layerPasses(env *tpchEnv, cfg orthoq.Config, warm bool, rng *rand.Rand, budget time.Duration,
	rep *report) ([]float64, error) {
	p := newPipeline(env.store)
	cached := map[string]*compiled{}
	if warm {
		// Warm-up compile, outside the passes: on tpch_warm the
		// optimizer does no work while measuring.
		for _, q := range tpchQueries {
			lr := &layerRun{}
			c, err := p.compile(tpch.Queries[q], cfg, true, lr)
			if err != nil {
				return nil, fmt.Errorf("%s: compile: %w", q, err)
			}
			cached[q] = c
			rep.values["opt.plan_cost."+q] = lr.cost
		}
	}
	renders := map[string]string{}
	explored := map[string]int{}
	perQuery := map[string][]float64{} // metric name -> one value per pass
	var passTimes []float64
	var sums []map[string]float64 // per-pass totals
	passes(rng, budget, func(order []string) time.Duration {
		s := map[string]float64{}
		var passTime time.Duration
		for _, q := range order {
			lr := &layerRun{}
			t := time.Now()
			c, err := layerQuery(p, cfg, tpch.Queries[q], cached[q], lr)
			passTime += time.Since(t) // instrumentation included
			rep.attempted++
			if err != nil {
				rep.fail("%s: pipeline: %v", q, err)
				continue
			}
			if msg := diff(rowsBag(lr.rows), env.ref[q]); msg != "" {
				rep.fail("%s: pipeline wrong answer: %s", q, msg)
			}
			if prev, ok := renders[q]; !ok {
				renders[q], explored[q] = c.render, lr.explored
				crossCheck(env, q, cfg, c, lr, rep)
			} else if prev != c.render || explored[q] != lr.explored {
				rep.problem("%s: plan or search effort changed between passes", q)
			}
			s["parser.parse_us"] += lr.parse.Seconds() * 1e6
			s["algebrize.build_us"] += lr.build.Seconds() * 1e6
			s["core.normalize_us"] += lr.normalize.Seconds() * 1e6
			s["plancache.lookup_us"] += lr.lookup.Seconds() * 1e6
			s["core.rules_fired"] += float64(lr.rulesFired)
			s["opt.optimize_ms"] += lr.optimize.Seconds() * 1e3
			s["opt.plans_explored"] += float64(lr.explored)
			if !warm && lr.explored >= defaultMaxSteps {
				s["opt.step_cap_hits"]++
			}
			s["opt.alloc_mb"] += float64(lr.optAlloc) / 1e6
			s["exec.run_ms"] += lr.exec.Seconds() * 1e3
			s["exec.alloc_mb"] += float64(lr.execAlloc) / 1e6
			s["result_rows"] += float64(len(lr.rows))
			lr.spans.Walk(func(sp *obs.Span) {
				s["exec.self_ms."+sp.Op] += sp.Self.Seconds() * 1e3
				s["operator_rows"] += float64(sp.Rows)
			})
			perQuery["opt.optimize_ms."+q] = append(perQuery["opt.optimize_ms."+q], lr.optimize.Seconds()*1e3)
			perQuery["exec.run_ms."+q] = append(perQuery["exec.run_ms."+q], lr.exec.Seconds()*1e3)
			if !warm {
				rep.values["opt.plans_explored."+q] = float64(lr.explored)
				rep.values["opt.plan_cost."+q] = lr.cost
			}
		}
		passTimes = append(passTimes, passTime.Seconds())
		sums = append(sums, s)
		return passTime
	})

	// Totals are per pass, medians over passes; the per-call layer
	// times are means per query.
	perCall := map[string]bool{"parser.parse_us": true, "algebrize.build_us": true,
		"core.normalize_us": true, "plancache.lookup_us": true}
	for k := range sums[0] {
		var xs []float64
		for _, s := range sums {
			v := s[k]
			if perCall[k] {
				v /= float64(len(tpchQueries))
			}
			xs = append(xs, v)
		}
		rep.values[k] = median(xs)
	}
	if rep.values["result_rows"] > 0 {
		rep.values["exec.rows_per_result_row"] = rep.values["operator_rows"] / rep.values["result_rows"]
	}
	for k, xs := range perQuery {
		rep.values[k] = median(xs)
	}
	return passTimes, nil
}

// layerQuery runs one query through the pipeline: cold compiles it,
// warm (cached non-nil) looks up the cached plan. Both execute traced.
func layerQuery(p *pipeline, cfg orthoq.Config, sql string, cached *compiled, lr *layerRun) (*compiled, error) {
	if cached != nil {
		params, err := p.lookup(sql, cached, lr)
		if err != nil {
			return nil, err
		}
		return cached, p.run(cached, params, lr)
	}
	c, err := p.compile(sql, cfg, false, lr)
	if err != nil {
		return nil, err
	}
	return c, p.run(c, nil, lr)
}
