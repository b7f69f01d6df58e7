package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"maybms/internal/conf/naive"
)

// ---- conf_exact and aconf_mc ------------------------------------------

// loadConf builds the uncertain graph both confidence workloads query:
// `e` keeps each edge independently (pick tuples, one Boolean variable
// per edge) and `o` gives every node one of three owners (repair key,
// one three-valued variable per node). Groups are disjoint subgraphs.
func loadConf(e *env) error {
	sz := e.cfg.sz
	if err := e.exec(`create table edge (src int, dst int, grp int, p float);
		create table owner (node int, alt int, w float)`); err != nil {
		return err
	}
	shape := rand.New(rand.NewSource(structureSeed))
	vals := e.rng("conf-values")
	type edge struct{ src, dst, grp int }
	var edges []edge
	for g := 0; g < sz.confGroups; g++ {
		seen := map[[2]int]bool{}
		for len(seen) < sz.confEdges {
			a, b := shape.Intn(sz.confNodes), shape.Intn(sz.confNodes)
			if a == b || seen[[2]int{a, b}] {
				continue
			}
			seen[[2]int{a, b}] = true
			edges = append(edges, edge{g*sz.confNodes + a, g*sz.confNodes + b, g})
		}
	}
	if err := e.insertRows("edge", len(edges), func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, %d, %g", edges[i].src, edges[i].dst, edges[i].grp, 0.3+0.4*vals.Float64())
	}); err != nil {
		return err
	}
	const alts = 3
	if err := e.insertRows("owner", sz.confGroups*sz.confNodes*alts, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, %g", i/alts, i%alts, 1+vals.Float64())
	}); err != nil {
		return err
	}
	return e.exec(`create table e as pick tuples from edge independently with probability p;
		create table o as repair key node in owner weight by w`)
}

const (
	aconfEps   = 0.1
	aconfDelta = 0.05
)

// prepareConf builds one query per pair of adjacent groups: the
// confidence that a two-edge path exists whose middle node has owner 0.
// Paths share edges, so the lineage is not read-once and the exact
// engine has to decompose it. The aconf variant differs only in the
// aggregate; its expected values are the exact ones.
func prepareConf(e *env, approximate bool) error {
	const from = "e e1, e e2, o"
	agg := "conf()"
	if approximate {
		agg = fmt.Sprintf("aconf(%g, %g)", aconfEps, aconfDelta)
	}
	var qs []query
	for lo := 0; lo+2 <= e.cfg.sz.confGroups; lo++ {
		where := fmt.Sprintf("e1.dst = e2.src and o.node = e1.dst and o.alt = 0 and e1.grp >= %d and e1.grp < %d", lo, lo+2)
		q := query{
			sql:   confSQL("e1.grp", agg, from, where),
			plain: "select e1.grp from " + from + " where " + where,
		}
		if approximate {
			q.eps, q.delta = aconfEps, aconfDelta
		}
		want, err := e.reference(confSQL("e1.grp", "conf()", from, where))
		if err != nil {
			return err
		}
		q.want = want
		if err := e.checkNaive(&q); err != nil {
			return err
		}
		qs = append(qs, q)
	}
	e.setQueries(qs)
	return nil
}

func confSQL(key, agg, from, where string) string {
	return fmt.Sprintf("select %s, %s p from %s where %s group by %s order by %s", key, agg, from, where, key, key)
}

// naiveMaxVars bounds the brute-force check: it enumerates every world
// over the group's variables.
const naiveMaxVars = 16

// checkNaive verifies, for every group of q small enough to enumerate,
// that the expected confidence equals the possible-worlds sum.
func (e *env) checkNaive(q *query) error {
	rel, err := e.eng.QueryRel(q.plain, true)
	if err != nil {
		return fmt.Errorf("lineage %s: %v", q.plain, err)
	}
	_, dnfs := groupLineage(rel)
	if len(dnfs) != len(q.want) {
		return fmt.Errorf("lineage has %d groups, answer has %d: %s", len(dnfs), len(q.want), q.sql)
	}
	for i, d := range dnfs {
		if len(d.Vars()) > naiveMaxVars {
			continue
		}
		want, _ := q.want[i][len(q.want[i])-1].(float64)
		if p := naive.Prob(d, e.eng.Store()); math.Abs(p-want) > 1e-9 {
			return fmt.Errorf("group %d: reference confidence %v, possible-worlds sum %v: %s", i, want, p, q.sql)
		}
	}
	return nil
}

// ---- scan_expr -----------------------------------------------------------

// loadScan builds the certain tables of the relational control: a fact
// table and two small dimensions. No world-set variable exists.
func loadScan(e *env) error {
	n := e.cfg.sz.scanRows
	if err := e.exec(`create table base (id int, grp int, val int, w float);
		create table dim (grp int, region int, name text);
		create table reg (region int, label text)`); err != nil {
		return err
	}
	vals := e.rng("scan-values")
	if err := e.insertRows("base", n, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, %d, %g", i, i%scanGroups, vals.Intn(1000), 1+vals.Float64())
	}); err != nil {
		return err
	}
	if err := e.insertRows("dim", scanGroups, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, 'g%d'", i, i%scanRegions, i)
	}); err != nil {
		return err
	}
	return e.insertRows("reg", scanRegions, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, 'r%02d'", i, i)
	})
}

const (
	scanGroups  = 1000
	scanRegions = 20
)

func prepareScan(e *env) error {
	var qs []query
	add := func(src string) error {
		want, err := e.reference(src)
		if err != nil {
			return err
		}
		qs = append(qs, query{sql: src, want: want})
		return nil
	}
	// The three templates get the same number of literals, so each is a
	// third of the operations.
	for i := 0; i < 12; i++ {
		if err := add(fmt.Sprintf( // filter-count
			`select count(*) from base where val %% 7 = %d and id %% 2 = %d`, i%7, i%2)); err != nil {
			return err
		}
		if err := add(fmt.Sprintf( // group-by with arithmetic
			`select grp %% 10 g, sum(val*2+1) s from base where val >= %d group by grp %% 10 order by g`, i)); err != nil {
			return err
		}
		if err := add(fmt.Sprintf( // 3-way join, selective predicate pushed down
			`select r.label, count(*) c, sum(b.val) s from base b, dim d, reg r `+
				`where b.grp = d.grp and d.region = r.region and r.region = %d and b.val < 100 `+
				`group by r.label order by r.label`, i%scanRegions)); err != nil {
			return err
		}
	}
	e.setQueries(qs)
	return nil
}

// ---- short_rpc -----------------------------------------------------------

// loadRPC builds small tables whose statements cost the engine tens of
// microseconds, so the request path around the engine dominates. The
// engine has no index, so key lookups go to the 256-row cfg table; the
// 10k-row kv table serves the 200-row fetch, which stops at its limit.
func loadRPC(e *env) error {
	sz := e.cfg.sz
	if err := e.exec(`create table kv (k int, v int, s text);
		create table cfg (k int, v int, s text);
		create table sens (k int, reading int, trust float)`); err != nil {
		return err
	}
	vals := e.rng("rpc-values")
	if err := e.insertRows("kv", sz.kvRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, 'row-%d'", i, vals.Intn(1000), i)
	}); err != nil {
		return err
	}
	if err := e.insertRows("cfg", sz.cfgRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, 'cfg-%d'", i, vals.Intn(1000), i)
	}); err != nil {
		return err
	}
	if err := e.insertRows("sens", sz.cfgRows, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, %g", i/4, i, 0.5+0.4*vals.Float64())
	}); err != nil {
		return err
	}
	return e.exec(`create table us as pick tuples from sens independently with probability trust`)
}

func prepareRPC(e *env) error {
	sz := e.cfg.sz
	lits := e.rng("rpc-literals")
	var qs []query
	add := func(q query) error {
		want, err := e.reference(q.sql)
		if err != nil {
			return err
		}
		q.want = want
		if q.plain != "" { // confidence shape: small enough for the possible-worlds check
			if err := e.checkNaive(&q); err != nil {
				return err
			}
		}
		qs = append(qs, q)
		return nil
	}
	// Eight normalised shapes, each with the same number of literals; all
	// fit the engine's 256-entry plan cache.
	for i := 0; i < 16; i++ {
		k := lits.Intn(sz.cfgRows)
		sk := lits.Intn(sz.cfgRows / 4)
		shapes := []query{
			{sql: fmt.Sprintf(`select v, s from cfg where k = %d`, k)},
			{sql: fmt.Sprintf(`select k, reading, tconf() p from us where k = %d`, sk)},
			{sql: fmt.Sprintf(`select k, v, s from kv where k >= %d limit 200`, lits.Intn(sz.kvRows/20))},
			{sql: fmt.Sprintf(`select count(*) from cfg where v < %d`, lits.Intn(1000))},
			{sql: fmt.Sprintf(`select %d`, lits.Intn(1000))},
			{sql: fmt.Sprintf(`select k, v from cfg where k >= %d and k < %d order by k`, k, k+8)},
			{sql: fmt.Sprintf(`select reading, trust from sens where k = %d`, sk)},
			{sql: confSQL("k", "conf()", "us", fmt.Sprintf("k = %d", sk)),
				plain: fmt.Sprintf(`select k from us where k = %d`, sk)},
		}
		for _, q := range shapes {
			if err := add(q); err != nil {
				return err
			}
		}
	}
	e.setQueries(qs)
	return nil
}
