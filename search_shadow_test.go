package orthoq

import (
	"testing"

	"orthoq/internal/opt"
)

// TestSearchShadowCorpus compiles every TPC-H query and every rule
// witness with the optimizer's shadow check on: at every frontier
// push, two plans must get the same interned class ID exactly when
// algebra.FormatRel renders them equally, so the memo's duplicate
// detection is the whole-tree string comparison it replaced. The plan
// cache is bypassed so every query is optimized; both the default and
// the rule-harness configurations run. A string literal with an
// embedded newline exercises the text-keyed fallback.
func TestSearchShadowCorpus(t *testing.T) {
	db := sharedDB(t)
	defer opt.SetShadowCheck(func(msg string) { t.Error(msg) })()
	corpus := []string{`select c_custkey from customer
		where c_name <> 'x
  Get orders' and exists (select 1 from orders where o_custkey = c_custkey)`}
	for _, name := range TPCHQueryNames() {
		sql, _ := TPCHQuery(name)
		corpus = append(corpus, sql)
	}
	for _, w := range ruleWitnesses {
		corpus = append(corpus, w.sql)
	}
	for _, cfg := range []Config{DefaultConfig(), baselineRuleCfg()} {
		cfg.PlanCache.Disabled = true
		for _, sql := range corpus {
			if _, err := db.QueryCfg(sql, cfg); err != nil {
				t.Fatalf("%v\n%s", err, sql)
			}
		}
	}
}
