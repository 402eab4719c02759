package opt

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"orthoq/internal/algebra"
	"orthoq/internal/algebrize"
	"orthoq/internal/core"
	"orthoq/internal/sql/parser"
	"orthoq/internal/stats"
	"orthoq/internal/storage"
	"orthoq/internal/tpch"
)

// Search-invariance golden: the chosen plan, explored count, cost bit
// pattern and rule path of every TPC-H query under the default
// optimizer settings, at the benchmark's data (SF 0.01, seed 1). Any
// change to the search data structures must reproduce it exactly;
// regenerate with `go test ./internal/opt -run TestSearchGolden -update`
// only for a change that is meant to alter plans.

var updateGolden = flag.Bool("update", false, "rewrite testdata/tpch_search.golden")

const searchGoldenPath = "testdata/tpch_search.golden"

var (
	benchStoreOnce sync.Once
	benchStore     *storage.Store
	benchStats     *stats.Collection
)

// benchTPCH returns the benchmark's TPC-H store and its statistics,
// generated once per test binary.
func benchTPCH(t testing.TB) (*storage.Store, *stats.Collection) {
	t.Helper()
	benchStoreOnce.Do(func() {
		st, err := tpch.Generate(0.01, 1)
		if err != nil {
			panic(err)
		}
		benchStore, benchStats = st, stats.Collect(st)
	})
	return benchStore, benchStats
}

// tpchNames lists the TPC-H corpus in query-number order.
func tpchNames() []string {
	names := make([]string, 0, len(tpch.Queries))
	for n := range tpch.Queries {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, _ := strconv.Atoi(names[i][1:])
		b, _ := strconv.Atoi(names[j][1:])
		return a < b
	})
	return names
}

// prepSeeded mirrors DB.prepareAST under DefaultConfig: normalize the
// algebrized query, then normalize it again keeping correlation to get
// the extra correlated seed (in that order, so column IDs match).
func prepSeeded(t testing.TB, st *storage.Store, sql string) (*algebra.Metadata, algebra.Rel, []algebra.Rel) {
	t.Helper()
	q, err := parser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	md := algebra.NewMetadata()
	res, err := algebrize.Build(st.Catalog, md, q)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := core.Normalize(md, res.Rel, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var seeds []algebra.Rel
	if seed, err := core.Normalize(md, res.Rel, core.Options{KeepCorrelated: true}); err == nil {
		seeds = append(seeds, seed)
	}
	return md, rel, seeds
}

// searchRecord renders one query's search outcome for the golden.
func searchRecord(name string, md *algebra.Metadata, r *Result) string {
	return fmt.Sprintf("== %s explored=%d cost=%#016x (%g)\nrules: %s\n%s",
		name, r.Explored, math.Float64bits(r.Cost), r.Cost,
		strings.Join(r.Rules, " "), algebra.FormatRel(md, r.Plan))
}

func TestSearchGolden(t *testing.T) {
	st, sc := benchTPCH(t)
	var b strings.Builder
	for _, name := range tpchNames() {
		md, rel, seeds := prepSeeded(t, st, tpch.Queries[name])
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		b.WriteString(searchRecord(name, md, o.Optimize(rel, seeds...)))
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(searchGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(searchGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("search outcome differs from %s at line %d:\n got: %s\nwant: %s",
					searchGoldenPath, i+1, g, w)
			}
		}
	}
}

// TestSearchShadowTPCH runs the TPC-H corpus with the shadow check on:
// at every push, interned class IDs must agree with FormatRel
// equality.
func TestSearchShadowTPCH(t *testing.T) {
	st, sc := benchTPCH(t)
	defer SetShadowCheck(func(msg string) { t.Error(msg) })()
	for _, name := range tpchNames() {
		md, rel, seeds := prepSeeded(t, st, tpch.Queries[name])
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
		o.Optimize(rel, seeds...)
	}
}

// TestSearchCapHit pins Result.CapHit: it is set only when the search
// stops at MaxSteps with plans left on the frontier. Q2 hits the
// default cap; Q6's frontier is empty after its one step, so it does
// not even under MaxSteps 1.
func TestSearchCapHit(t *testing.T) {
	st, sc := benchTPCH(t)
	for _, tc := range []struct {
		query    string
		maxSteps int
		explored int
		capHit   bool
	}{
		{"Q2", 0, 1200, true},
		{"Q2", 1, 1, true},
		{"Q6", 0, 1, false},
		{"Q6", 1, 1, false},
	} {
		md, rel, seeds := prepSeeded(t, st, tpch.Queries[tc.query])
		o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc, Config: Config{MaxSteps: tc.maxSteps}}
		r := o.Optimize(rel, seeds...)
		if r.Explored != tc.explored || r.CapHit != tc.capHit {
			t.Errorf("%s MaxSteps=%d: explored=%d capHit=%v, want %d %v",
				tc.query, tc.maxSteps, r.Explored, r.CapHit, tc.explored, tc.capHit)
		}
	}
}

// BenchmarkOptimizeTPCH times one cold Optimize per TPC-H query under
// the default settings (the tpch_cold benchmark's optimizer work):
//
//	go test ./internal/opt -run '^$' -bench OptimizeTPCH -benchmem
func BenchmarkOptimizeTPCH(b *testing.B) {
	st, sc := benchTPCH(b)
	for _, name := range tpchNames() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				md, rel, seeds := prepSeeded(b, st, tpch.Queries[name])
				o := &Optimizer{Md: md, Cat: st.Catalog, Stats: sc}
				b.StartTimer()
				o.Optimize(rel, seeds...)
			}
		})
	}
}

// TestSeenSetNewlineFallback covers the duplicate filter's switch to
// text keys: once a plan whose rendering holds an embedded newline is
// pushed, plans compare by FormatRel text, including the ones admitted
// by class ID before the switch.
func TestSeenSetNewlineFallback(t *testing.T) {
	m := newMemo(algebra.NewMetadata())
	s := seenSet{ids: map[int32]bool{}}
	get := func(table string) *node { return m.node(&algebra.Get{Table: table}) }
	steps := []struct {
		table string
		admit bool
	}{
		{"t", true},
		{"t", false}, // equal rendering, by class ID
		{"u", true},
		{"x\ny", true}, // switches to text keys
		{"t", false},   // admitted before the switch, found by text
		{"x\ny", false},
		{"v", true},
		{"v", false},
	}
	for i, st := range steps {
		if got := s.admit(m, get(st.table)); got != st.admit {
			t.Fatalf("step %d (%q): admit = %v, want %v", i, st.table, got, st.admit)
		}
	}
	if s.texts == nil {
		t.Fatal("newline rendering did not switch to text keys")
	}
}
