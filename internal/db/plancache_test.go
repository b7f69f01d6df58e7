package db

import (
	"strings"
	"testing"

	"maybms/internal/plan"
	"maybms/internal/sql"
)

func cacheTestDB(t *testing.T) *Database {
	t.Helper()
	d := New()
	mustRun := func(src string) {
		t.Helper()
		if _, err := d.Run(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	mustRun(`create table t (a int, b int)`)
	mustRun(`insert into t values (1, 1), (2, 1), (3, 2), (4, 2), (5, 3)`)
	mustRun(`create table w (k int, p float)`)
	mustRun(`insert into w values (1, 0.5), (1, 0.5), (2, 1.0)`)
	return d
}

// TestPlanCacheHitsAndParameterBinding: a repeated query hits the
// cache, and a query with the same shape but different literals hits
// the same entry while producing its own (correct) result.
func TestPlanCacheHitsAndParameterBinding(t *testing.T) {
	d := cacheTestDB(t)
	run := func(src string) string {
		t.Helper()
		res, err := d.Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return relString(res.Rel)
	}

	h0, m0, _ := d.PlanCacheStats()
	first := run(`select a from t where b = 1 order by a`)
	h1, m1, _ := d.PlanCacheStats()
	if h1 != h0 || m1 != m0+1 {
		t.Fatalf("first run: want 0 hits / 1 miss delta, got hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}

	second := run(`select a from t where b = 1 order by a`)
	h2, m2, _ := d.PlanCacheStats()
	if h2 != h1+1 || m2 != m1 {
		t.Fatalf("repeat run: want a cache hit, got hits %d->%d misses %d->%d", h1, h2, m1, m2)
	}
	if first != second {
		t.Errorf("cached result diverged:\n got: %s\nwant: %s", second, first)
	}

	// Same shape, different literal: the cached plan is reused, but
	// the fresh argument must be bound — the result is for b = 2.
	other := run(`select a from t where b = 2 order by a`)
	h3, _, _ := d.PlanCacheStats()
	if h3 != h2+1 {
		t.Errorf("same-shape query should hit the cache: hits %d->%d", h2, h3)
	}
	if other == second {
		t.Errorf("different literal returned the cached literal's rows: %s", other)
	}
	if !strings.Contains(other, "3") || !strings.Contains(other, "4") {
		t.Errorf("b = 2 should return rows 3 and 4, got: %s", other)
	}
}

// TestPlanCacheInvalidation: DDL and DML bump the generation, so stale
// plans are never served. A repair-key query is a read: its variables
// stay in a statement-private overlay, so cached plans stay valid.
func TestPlanCacheInvalidation(t *testing.T) {
	d := cacheTestDB(t)
	const q = `select a from t where b = 1 order by a`
	if _, err := d.Run(q); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(q); err != nil {
		t.Fatal(err)
	}
	hWarm, _, _ := d.PlanCacheStats()
	if hWarm == 0 {
		t.Fatalf("warmup never hit the cache")
	}

	invalidators := []string{
		`create table zz (x int)`,     // DDL
		`insert into t values (9, 9)`, // DML
		`drop table zz`,               // DDL again
	}
	const rk = `select k, conf() from (repair key k in w weight by p) r group by k`
	if _, err := d.Run(rk); err != nil {
		t.Fatal(err)
	}
	h0, m0, _ := d.PlanCacheStats()
	if _, err := d.Run(q); err != nil {
		t.Fatal(err)
	}
	if h1, m1, _ := d.PlanCacheStats(); h1 != h0+1 || m1 != m0 {
		t.Errorf("after a repair-key query: want a cache hit, got hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
	for _, inv := range invalidators {
		if _, err := d.Run(inv); err != nil {
			t.Fatalf("%s: %v", inv, err)
		}
		h0, m0, _ := d.PlanCacheStats()
		if _, err := d.Run(q); err != nil {
			t.Fatal(err)
		}
		h1, m1, _ := d.PlanCacheStats()
		if m1 != m0+1 || h1 != h0 {
			t.Errorf("after %q: expected the next run to miss (replan), got hits %d->%d misses %d->%d",
				inv, h0, h1, m0, m1)
		}
		// And the run after that hits again at the new generation.
		if _, err := d.Run(q); err != nil {
			t.Fatal(err)
		}
		h2, _, _ := d.PlanCacheStats()
		if h2 != h1+1 {
			t.Errorf("after %q: expected the second run to hit again, got hits %d->%d", inv, h1, h2)
		}
	}
}

// TestExplainShowsCacheState: EXPLAIN renders the cache outcome the
// execution would have had, and EXPLAIN itself warms the cache.
func TestExplainShowsCacheState(t *testing.T) {
	d := cacheTestDB(t)
	explainText := func(src string) string {
		t.Helper()
		res, err := d.Run(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return relString(res.Rel)
	}
	out := explainText(`explain select a from t where b = 3`)
	if !strings.Contains(out, "plan cache: miss") {
		t.Errorf("first EXPLAIN should report a miss, got:\n%s", out)
	}
	out = explainText(`explain select a from t where b = 3`)
	if !strings.Contains(out, "plan cache: hit") {
		t.Errorf("second EXPLAIN should report a hit, got:\n%s", out)
	}
	out = explainText(`explain select k, conf() from (repair key k in w weight by p) r group by k`)
	if !strings.Contains(out, "plan cache: bypass") {
		t.Errorf("a repair-key query should bypass the cache, got:\n%s", out)
	}
	// Pushed predicates and estimates surface in the outline.
	out = explainText(`explain select x.a from (select t1.a a, t2.b b2 from t t1, t t2 where t1.a = t2.a) x where x.b2 = 1`)
	if !strings.Contains(out, "pushed") {
		t.Errorf("EXPLAIN should show the pushed predicate, got:\n%s", out)
	}
}

// TestExplainAnalyzeKeepsCachedPlan: EXPLAIN ANALYZE on a cached shape
// reports a hit and leaves the entry in place, so the next plain
// execution is a hit on the very same plan.
func TestExplainAnalyzeKeepsCachedPlan(t *testing.T) {
	d := cacheTestDB(t)
	runPlan := func(src string) (string, plan.Node) {
		t.Helper()
		stmts, err := sql.ParseAll(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		res, n, err := d.RunStatementTraced(stmts[0], nil)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return relString(res.Rel), n
	}
	const q = `select a from t where b = 1 order by a`
	runPlan(q)
	_, cached := runPlan(q)

	out, _ := runPlan(`explain analyze ` + q)
	if !strings.Contains(out, "plan cache: hit") {
		t.Errorf("EXPLAIN ANALYZE of a cached shape should report a hit, got:\n%s", out)
	}

	h0, m0, _ := d.PlanCacheStats()
	_, after := runPlan(q)
	h1, m1, _ := d.PlanCacheStats()
	if h1 != h0+1 || m1 != m0 {
		t.Errorf("run after EXPLAIN ANALYZE: want a cache hit, got hits %d->%d misses %d->%d", h0, h1, m0, m1)
	}
	if after != cached {
		t.Errorf("run after EXPLAIN ANALYZE used a different plan:\n got: %s\nwant: %s", plan.Explain(after), plan.Explain(cached))
	}
}
