package main

import (
	"fmt"
	"runtime"
	"time"

	"orthoq"
	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/exec"
	"orthoq/internal/obs"
	"orthoq/internal/opt"
	"orthoq/internal/plancache"
	"orthoq/internal/sql/parser"
	"orthoq/internal/sql/types"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
)

// pipeline drives one query through the engine's layers one public
// function at a time — the calls DB.prepareAST and the plan cache make
// — so each layer can be timed on its own. It mirrors DefaultConfig;
// the traced run's cross-check proves the plans it builds are the ones
// DB.QueryCfg runs.
type pipeline struct {
	store *storage.Store
	stats *stats.Collection
}

func newPipeline(store *storage.Store) *pipeline {
	return &pipeline{store: store, stats: stats.Collect(store)}
}

// layerRun is one query's trip through the layers: the time and
// allocation of each call, plus what the call reported.
type layerRun struct {
	parse, build, normalize, optimize, lookup, exec time.Duration
	optAlloc, execAlloc                             uint64
	rulesFired, explored                            int
	cost                                            float64
	spans                                           *obs.Span
	rows                                            []types.Row
}

// compiled is a plan built by the pipeline, with the plan-cache lookup
// keys the warm path re-derives on every request.
type compiled struct {
	md      *algebra.Metadata
	plan    algebra.Rel
	outCols []algebra.ColID
	render  string
	// Plan-cache identity (parameterized plans only).
	shape     string
	positions []plancache.PosInfo
	vkey      string
	descs     []plancache.Descriptor
	bkey      string
	params    []types.Datum
}

// normOptions mirrors Config.normOptions for DefaultConfig.
func normOptions(cfg orthoq.Config) core.Options {
	return core.Options{
		RemoveClass2:   cfg.RemoveClass2,
		KeepCorrelated: !cfg.Decorrelate,
		KeepOuterJoins: !cfg.SimplifyOuterJoins,
	}
}

// optConfig mirrors Config.optConfig for DefaultConfig.
func optConfig(cfg orthoq.Config) opt.Config {
	return opt.Config{
		Norm:                     normOptions(cfg),
		DisableGroupByReorder:    !cfg.GroupByReorder,
		DisableLocalAgg:          !cfg.LocalAgg,
		DisableSegmentApply:      !cfg.SegmentApply,
		DisableJoinReorder:       !cfg.JoinReorder,
		DisableCorrelatedReintro: !cfg.CorrelatedReintro,
		DisableOrderOpt:          cfg.DisableSortElim,
		MaxSteps:                 cfg.MaxSteps,
	}
}

// defaultMaxSteps is the optimizer's step cap when Config.MaxSteps is 0.
const defaultMaxSteps = 1200

func allocated() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// compile runs parse, (optionally) parameterize, algebrize, normalize
// and optimize, timing each into lr.
func (p *pipeline) compile(sql string, cfg orthoq.Config, parameterize bool, lr *layerRun) (*compiled, error) {
	c := &compiled{}
	var lits []plancache.Lit
	if parameterize {
		var err error
		if c.shape, lits, err = plancache.Fingerprint(sql); err != nil {
			return nil, err
		}
	}
	t := time.Now()
	q, err := parser.Parse(sql)
	lr.parse = time.Since(t)
	if err != nil {
		return nil, err
	}
	var pz *plancache.Parameterized
	if parameterize {
		pz = plancache.Parameterize(q)
		if !pz.OK || !plancache.Aligned(pz, lits) {
			return nil, fmt.Errorf("query is not cacheable")
		}
		c.positions, c.params = pz.Positions, pz.Params
	}

	c.md = algebra.NewMetadata()
	t = time.Now()
	res, err := algebrize.BuildWithParams(p.store.Catalog, c.md, q, c.params)
	lr.build = time.Since(t)
	if err != nil {
		return nil, err
	}
	c.outCols = res.OutCols

	nopts := normOptions(cfg)
	nopts.Record = func(string) { lr.rulesFired++ }
	t = time.Now()
	rel, err := core.Normalize(c.md, res.Rel, nopts)
	var seeds []algebra.Rel
	if err == nil && cfg.CorrelatedReintro && cfg.Decorrelate {
		// The correlated formulation is an extra optimizer seed (paper
		// §4); like DB.prepareAST, drop it when it fails to normalize.
		keep := normOptions(cfg)
		keep.KeepCorrelated = true
		if seed, serr := core.Normalize(c.md, res.Rel, keep); serr == nil {
			seeds = append(seeds, seed)
		}
	}
	lr.normalize = time.Since(t)
	if err != nil {
		return nil, err
	}

	c.plan = rel
	if cfg.CostBased {
		o := &opt.Optimizer{Md: c.md, Cat: p.store.Catalog, Stats: p.stats, Config: optConfig(cfg)}
		a := allocated()
		t = time.Now()
		r := o.Optimize(rel, seeds...)
		lr.optimize = time.Since(t)
		lr.optAlloc = allocated() - a
		c.plan, lr.explored, lr.cost = r.Plan, r.Explored, r.Cost
	}
	c.render = algebra.FormatRel(c.md, c.plan)
	if parameterize {
		c.descs = plancache.Descriptors(c.md, p.stats, c.plan)
		c.vkey = plancache.VariantKey(pz.Positions, pz.Texts, pz.Params)
		c.bkey = plancache.BucketKey(c.descs, p.stats, c.params)
	}
	return c, nil
}

// lookup re-derives a cached plan's identity from the query text, as a
// plan-cache hit does: fingerprint, bind the literals, bucket the
// bound values. It returns the bound parameters.
func (p *pipeline) lookup(sql string, c *compiled, lr *layerRun) ([]types.Datum, error) {
	t := time.Now()
	shape, lits, err := plancache.Fingerprint(sql)
	if err != nil {
		return nil, err
	}
	params, vkey, ok := plancache.Bind(c.positions, lits)
	if !ok {
		return nil, fmt.Errorf("literals do not bind")
	}
	bkey := plancache.BucketKey(c.descs, p.stats, params)
	lr.lookup = time.Since(t)
	if shape != c.shape || vkey != c.vkey || bkey != c.bkey {
		return nil, fmt.Errorf("plan-cache identity changed between compile and lookup")
	}
	return params, nil
}

// run executes a compiled plan with operator tracing on.
func (p *pipeline) run(c *compiled, params []types.Datum, lr *layerRun) error {
	ctx := exec.NewContext(p.store, c.md)
	ctx.Stats = p.stats
	ctx.Params = params
	ctx.EnableTrace()
	a := allocated()
	t := time.Now()
	res, err := exec.Run(ctx, c.plan, c.outCols)
	lr.exec = time.Since(t)
	lr.execAlloc = allocated() - a
	if err != nil {
		return err
	}
	lr.rows = res.Rows
	lr.spans = ctx.Spans(c.plan)
	return nil
}
