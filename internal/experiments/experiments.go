// Package experiments regenerates the paper-shaped evaluation tables
// E1–E8: the Figure 1 random walk (E1), exact vs approximate
// confidence (E2), SPROUT on a hierarchical query (E3), U-relational
// translation overhead (E4), esum vs conf (E5), uncertainty
// introduction (E6), the (ε,δ) guarantee of aconf (E7) and an ablation
// of the exact solver (E8). cmd/bench prints them; the root
// bench_test.go wraps the same code paths in testing.B benchmarks.
// System performance is measured end to end by benchmark/run.sh, not
// here.
package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"maybms"
	"maybms/internal/conf/approx"
	"maybms/internal/conf/exact"
	"maybms/internal/conf/naive"
	"maybms/internal/conf/sprout"
	"maybms/internal/lineage"
	"maybms/internal/nbagen"
	"maybms/internal/workload"
	"maybms/internal/ws"
)

// Options tunes experiment scale.
type Options struct {
	// Quick shrinks sweeps for CI runs.
	Quick bool
	// Seed drives all generators.
	Seed int64
}

// FitnessMatrix is the paper's Figure 1 stochastic matrix for Bryant
// (rows/cols ordered F, SE, SL).
var FitnessMatrix = [3][3]float64{
	{0.8, 0.05, 0.15},
	{0.1, 0.6, 0.3},
	{0.8, 0.0, 0.2},
}

// Figure1Setup loads the paper's Figure 1 tables into a fresh database.
func Figure1Setup() *maybms.DB {
	db := maybms.Open()
	db.MustExec(`
		create table ft (player text, init text, final text, p float);
		insert into ft values
			('Bryant','F','F',0.8), ('Bryant','F','SE',0.05), ('Bryant','F','SL',0.15),
			('Bryant','SE','F',0.1), ('Bryant','SE','SE',0.6), ('Bryant','SE','SL',0.3),
			('Bryant','SL','F',0.8), ('Bryant','SL','SL',0.2);
		create table states (player text, state text);
		insert into states values ('Bryant','F');
	`)
	return db
}

// RunWalk3 executes the paper's FT2 + 3-step queries, returning the
// final state distribution as a map. The db must come from
// Figure1Setup (it creates and drops the ft2 scratch table).
func RunWalk3(db *maybms.DB) map[string]float64 {
	db.MustExec(`drop table if exists ft2`)
	db.MustExec(`
		create table ft2 as
		select r1.player, r1.init, r2.final, conf() as p from
			(repair key player, init in ft weight by p) r1,
			(repair key player, init in ft weight by p) r2, states s
		where r1.player = s.player and r1.init = s.state
			and r1.final = r2.init and r1.player = r2.player
		group by r1.player, r1.init, r2.final`)
	rows := db.MustQuery(`
		select r2.final as state, conf() as p from
			(repair key player, init in ft2 weight by p) r1,
			(repair key player, init in ft weight by p) r2
		where r1.final = r2.init and r1.player = r2.player
		group by r1.player, r2.final`)
	out := map[string]float64{}
	for _, r := range rows.Data {
		out[r[0].(string)] = r[1].(float64)
	}
	return out
}

// E1 reproduces Figure 1: the random-walk encoding and the 1/2/3-step
// state distributions, validated against powers of the stochastic
// matrix.
func E1(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E1 (Figure 1): random walk on the fitness stochastic matrix ==")
	db := Figure1Setup()

	fmt.Fprintln(w, "\nU-relation R2 (1-step random walk on FT), marginals vs matrix:")
	rows := db.MustQuery(`select init, final, tconf() p
		from (repair key player, init in ft weight by p) r order by init, final`)
	idx := map[string]int{"F": 0, "SE": 1, "SL": 2}
	fmt.Fprintf(w, "%-5s %-6s %-10s %-10s\n", "Init", "Final", "measured", "matrix")
	for _, r := range rows.Data {
		i, j := idx[r[0].(string)], idx[r[1].(string)]
		fmt.Fprintf(w, "%-5s %-6s %-10.4f %-10.4f\n", r[0], r[1], r[2].(float64), FitnessMatrix[i][j])
	}

	start := time.Now()
	walk3 := RunWalk3(db)
	elapsed := time.Since(start)
	m3 := nbagen.MatrixPower(FitnessMatrix, 3)
	fmt.Fprintln(w, "\n3-step walk from state F (paper's FT2 query composition):")
	fmt.Fprintf(w, "%-6s %-10s %-10s %-10s\n", "State", "measured", "M^3", "abs err")
	for s, j := range idx {
		fmt.Fprintf(w, "%-6s %-10.5f %-10.5f %-10.2e\n", s, walk3[s], m3[0][j], math.Abs(walk3[s]-m3[0][j]))
	}
	fmt.Fprintf(w, "query time: %v\n\n", elapsed)
}

// E2Point measures one cell of the exact-vs-approximate sweep.
type E2Point struct {
	Ratio      float64 // variables / clauses
	Vars       int
	Clauses    int
	ExactUS    float64 // mean µs per instance
	ApproxUS   float64
	NaiveUS    float64 // -1 when skipped
	ExactSteps float64 // mean d-tree recursion steps
	TrueP      float64 // mean probability (sanity)
}

// E2Instance generates one random DNF for a ratio point.
func E2Instance(rng *rand.Rand, clauses int, ratio float64) (lineage.DNF, *ws.Store) {
	store := ws.NewStore()
	vars := int(math.Max(1, math.Round(ratio*float64(clauses))))
	d := workload.RandomDNF(rng, store, workload.DNFConfig{
		Vars: vars, MaxDomain: 2, Clauses: clauses, MaxWidth: 3,
	})
	return d, store
}

// E2Sweep measures exact, approximate, and (when feasible) naive
// confidence computation across variable-to-clause ratios.
func E2Sweep(opts Options) []E2Point {
	ratios := []float64{0.25, 0.5, 1, 2, 4, 8}
	clauses := 14
	instances := 20
	if opts.Quick {
		instances = 5
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var out []E2Point
	for _, ratio := range ratios {
		pt := E2Point{Ratio: ratio, Clauses: clauses}
		pt.Vars = int(math.Max(1, math.Round(ratio*float64(clauses))))
		var exT, apT, nvT, steps, probs float64
		naiveRuns := 0
		for i := 0; i < instances; i++ {
			d, store := E2Instance(rng, clauses, ratio)

			t0 := time.Now()
			solver := exact.NewSolver(store)
			p := solver.Prob(d)
			exT += float64(time.Since(t0).Microseconds())
			steps += float64(solver.Steps)
			probs += p

			t0 = time.Now()
			if _, err := approx.ConfSeeded(d, store, 0.1, 0.1, opts.Seed+int64(i), 1); err != nil {
				panic(err)
			}
			apT += float64(time.Since(t0).Microseconds())

			if pt.Vars <= 18 {
				t0 = time.Now()
				naive.Prob(d, store)
				nvT += float64(time.Since(t0).Microseconds())
				naiveRuns++
			}
		}
		n := float64(instances)
		pt.ExactUS = exT / n
		pt.ApproxUS = apT / n
		pt.ExactSteps = steps / n
		pt.TrueP = probs / n
		if naiveRuns > 0 {
			pt.NaiveUS = nvT / float64(naiveRuns)
		} else {
			pt.NaiveUS = -1
		}
		out = append(out, pt)
	}
	return out
}

// E2 prints the exact-vs-approximate table (Koch & Olteanu VLDB'08
// shape: exact wins outside a narrow band of ratios).
func E2(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E2: exact (d-tree) vs aconf (Karp-Luby+DKLR) vs naive, by vars/clause ratio ==")
	fmt.Fprintf(w, "%-7s %-6s %-8s %-12s %-12s %-12s %-10s %-8s\n",
		"ratio", "vars", "clauses", "exact(µs)", "aconf(µs)", "naive(µs)", "steps", "meanP")
	for _, pt := range E2Sweep(opts) {
		nv := "skipped"
		if pt.NaiveUS >= 0 {
			nv = fmt.Sprintf("%.0f", pt.NaiveUS)
		}
		fmt.Fprintf(w, "%-7.2f %-6d %-8d %-12.0f %-12.0f %-12s %-10.0f %-8.3f\n",
			pt.Ratio, pt.Vars, pt.Clauses, pt.ExactUS, pt.ApproxUS, nv, pt.ExactSteps, pt.TrueP)
	}
	fmt.Fprintln(w, "shape check: exact beats aconf at low and high ratios; the middle band is hardest for exact")
	fmt.Fprintln(w)
}

// E3Point is one scale step of the SPROUT experiment.
type E3Point struct {
	Customers int
	Lineage   int // total clauses across groups
	SproutUS  float64
	ExactUS   float64
	ApproxUS  float64
	ReadOnce  bool
}

// E3Setup builds the probabilistic TPC-H tables at a scale and returns
// the per-nation lineage of the hierarchical query
//
//	select nation, conf() from customer ⋈ orders group by nation.
func E3Setup(customers int, seed int64) ([]lineage.DNF, *ws.Store) {
	db := maybms.Open()
	db.MustExec(workload.TPCHScript(workload.TPCHConfig{
		Customers: customers, OrdersPerCustomer: 3, ItemsPerOrder: 2,
		ProbMin: 0.2, ProbMax: 0.9, Seed: seed,
	}))
	db.MustExec(`
		create table pc as pick tuples from (select ck, nation, p from customer) independently with probability p;
		create table po as pick tuples from (select ok, ck, p from orders) independently with probability p;
	`)
	// Materialise the join lineage per nation through the engine.
	rel := db.MustQueryRel(`select c.nation from pc c, po o where c.ck = o.ck`)
	byNation := map[string]lineage.DNF{}
	var order []string
	for _, t := range rel.Tuples {
		k := t.Data[0].String()
		if _, ok := byNation[k]; !ok {
			order = append(order, k)
		}
		byNation[k] = append(byNation[k], t.Cond)
	}
	var out []lineage.DNF
	for _, k := range order {
		out = append(out, byNation[k])
	}
	return out, db.WorldStore()
}

// E3Sweep measures SPROUT vs exact vs Monte Carlo on the hierarchical
// query's lineage across scales.
func E3Sweep(opts Options) []E3Point {
	scales := []int{20, 50, 100, 200, 400}
	if opts.Quick {
		scales = []int{20, 50, 100}
	}
	var out []E3Point
	for _, n := range scales {
		dnfs, store := E3Setup(n, opts.Seed)
		pt := E3Point{Customers: n, ReadOnce: true}
		for _, d := range dnfs {
			pt.Lineage += len(d)
		}
		t0 := time.Now()
		for _, d := range dnfs {
			if _, ok := sprout.Prob(d, store); !ok {
				pt.ReadOnce = false
			}
		}
		pt.SproutUS = float64(time.Since(t0).Microseconds())

		t0 = time.Now()
		for _, d := range dnfs {
			exact.Prob(d, store)
		}
		pt.ExactUS = float64(time.Since(t0).Microseconds())

		t0 = time.Now()
		for i, d := range dnfs {
			if _, err := approx.ConfSeeded(d, store, 0.1, 0.1, opts.Seed+int64(i), 1); err != nil {
				panic(err)
			}
		}
		pt.ApproxUS = float64(time.Since(t0).Microseconds())
		out = append(out, pt)
	}
	return out
}

// E3 prints the SPROUT table (ICDE'09 shape: read-once factorisation
// scales linearly and wins by a growing factor over Monte Carlo).
func E3(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E3: SPROUT (read-once) vs exact d-tree vs Monte Carlo on a hierarchical TPC-H query ==")
	fmt.Fprintf(w, "%-10s %-9s %-12s %-12s %-12s %-9s\n",
		"customers", "clauses", "sprout(µs)", "exact(µs)", "aconf(µs)", "readOnce")
	for _, pt := range E3Sweep(opts) {
		fmt.Fprintf(w, "%-10d %-9d %-12.0f %-12.0f %-12.0f %-9v\n",
			pt.Customers, pt.Lineage, pt.SproutUS, pt.ExactUS, pt.ApproxUS, pt.ReadOnce)
	}
	fmt.Fprintln(w, "shape check: sprout grows ~linearly in lineage and beats Monte Carlo by a growing factor")
	fmt.Fprintln(w)
}

// E4Point is one scale step of the translation-overhead experiment.
type E4Point struct {
	Rows      int
	CertainUS float64
	URelUS    float64
	Overhead  float64
}

// E4Sweep times the same select-project-join on certain tables vs
// U-relations of identical size.
func E4Sweep(opts Options) []E4Point {
	sizes := []int{100, 300, 1000, 3000}
	if opts.Quick {
		sizes = []int{100, 300}
	}
	var out []E4Point
	for _, n := range sizes {
		db := maybms.Open()
		db.MustExec(`create table r (a int, b int, p float); create table s (b int, c int, p float)`)
		rng := rand.New(rand.NewSource(opts.Seed))
		for i := 0; i < n; i++ {
			db.MustExec(fmt.Sprintf("insert into r values (%d, %d, 0.9)", i, rng.Intn(n/2+1)))
			db.MustExec(fmt.Sprintf("insert into s values (%d, %d, 0.9)", rng.Intn(n/2+1), i))
		}
		db.MustExec(`
			create table ur as pick tuples from (select a, b from r) independently with probability 0.9;
			create table us as pick tuples from (select b, c from s) independently with probability 0.9;
		`)
		const reps = 5
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			db.MustQuery(`select r.a, s.c from r, s where r.b = s.b and r.a < 100000`)
		}
		certain := float64(time.Since(t0).Microseconds()) / reps

		t0 = time.Now()
		for i := 0; i < reps; i++ {
			db.MustQuery(`select ur.a, us.c from ur, us where ur.b = us.b and ur.a < 100000`)
		}
		urel := float64(time.Since(t0).Microseconds()) / reps
		out = append(out, E4Point{Rows: n, CertainUS: certain, URelUS: urel, Overhead: urel / certain})
	}
	return out
}

// E4 prints the positive-RA translation overhead table (ICDE'08
// shape: carrying conditions costs a small constant factor).
func E4(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E4: positive relational algebra on U-relations vs certain tables ==")
	fmt.Fprintf(w, "%-8s %-14s %-14s %-9s\n", "rows", "certain(µs)", "urel(µs)", "overhead")
	for _, pt := range E4Sweep(opts) {
		fmt.Fprintf(w, "%-8d %-14.0f %-14.0f %.2fx\n", pt.Rows, pt.CertainUS, pt.URelUS, pt.Overhead)
	}
	fmt.Fprintln(w, "shape check: overhead stays a small constant factor as size grows")
	fmt.Fprintln(w)
}

// E5Point contrasts expectation aggregates with confidence
// computation on the same self-join groups.
type E5Point struct {
	GroupSize int
	ESumUS    float64
	ConfUS    float64
}

// E5Sweep compares esum (linear, by linearity of expectation) with
// conf (exact, on non-read-once self-join lineage) as groups grow.
func E5Sweep(opts Options) []E5Point {
	sizes := []int{4, 8, 12, 16, 20}
	if opts.Quick {
		sizes = []int{4, 8, 12}
	}
	var out []E5Point
	for _, g := range sizes {
		db := maybms.Open()
		db.MustExec(`create table base (grp int, v int, p float)`)
		rng := rand.New(rand.NewSource(opts.Seed))
		for grp := 0; grp < 4; grp++ {
			for i := 0; i < g; i++ {
				db.MustExec(fmt.Sprintf("insert into base values (%d, %d, %.3f)", grp, i, 0.3+0.6*rng.Float64()))
			}
		}
		db.MustExec(`create table u as pick tuples from base independently with probability p`)
		const reps = 3
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			db.MustQuery(`select a.grp, esum(a.v + b.v) from u a, u b where a.grp = b.grp and a.v < b.v group by a.grp`)
		}
		esumT := float64(time.Since(t0).Microseconds()) / reps

		t0 = time.Now()
		for i := 0; i < reps; i++ {
			db.MustQuery(`select a.grp, conf() from u a, u b where a.grp = b.grp and a.v < b.v group by a.grp`)
		}
		confT := float64(time.Since(t0).Microseconds()) / reps
		out = append(out, E5Point{GroupSize: g, ESumUS: esumT, ConfUS: confT})
	}
	return out
}

// E5 prints the expectation-vs-confidence cost table.
func E5(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E5: esum (linearity of expectation) vs conf (#P in general) on self-join groups ==")
	fmt.Fprintf(w, "%-10s %-12s %-12s %-8s\n", "groupsize", "esum(µs)", "conf(µs)", "ratio")
	for _, pt := range E5Sweep(opts) {
		fmt.Fprintf(w, "%-10d %-12.0f %-12.0f %-8.1fx\n", pt.GroupSize, pt.ESumUS, pt.ConfUS, pt.ConfUS/pt.ESumUS)
	}
	fmt.Fprintln(w, "shape check: esum stays near-linear while conf's cost grows much faster")
	fmt.Fprintln(w)
}

// E6Point measures uncertainty-introduction throughput.
type E6Point struct {
	Rows        int
	BlockSize   int
	RepairUS    float64
	PickUS      float64
	VarsCreated int
	Log10Worlds float64
}

// E6Sweep measures repair-key and pick-tuples construction cost and
// the size of the represented world set.
func E6Sweep(opts Options) []E6Point {
	shapes := []struct{ rows, block int }{
		{1000, 2}, {1000, 10}, {1000, 50}, {5000, 10},
	}
	if opts.Quick {
		shapes = shapes[:2]
	}
	var out []E6Point
	for _, sh := range shapes {
		db := maybms.Open()
		db.MustExec(`create table base (k int, v int, w float)`)
		for i := 0; i < sh.rows; i++ {
			db.MustExec(fmt.Sprintf("insert into base values (%d, %d, 1)", i/sh.block, i))
		}
		before := db.WorldStore().NumVars()
		t0 := time.Now()
		db.MustExec(`create table rk as repair key k in base weight by w`)
		repairT := float64(time.Since(t0).Microseconds())
		created := db.WorldStore().NumVars() - before

		t0 = time.Now()
		db.MustExec(`create table pk as pick tuples from base independently with probability 0.5`)
		pickT := float64(time.Since(t0).Microseconds())

		blocks := sh.rows / sh.block
		out = append(out, E6Point{
			Rows: sh.rows, BlockSize: sh.block,
			RepairUS: repairT, PickUS: pickT,
			VarsCreated: created,
			Log10Worlds: float64(blocks) * math.Log10(float64(sh.block)),
		})
	}
	return out
}

// E6 prints the uncertainty-introduction throughput table.
func E6(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E6: repair-key / pick-tuples construction and world-set size ==")
	fmt.Fprintf(w, "%-7s %-7s %-13s %-12s %-7s %-14s\n",
		"rows", "block", "repair(µs)", "pick(µs)", "vars", "log10(worlds)")
	for _, pt := range E6Sweep(opts) {
		fmt.Fprintf(w, "%-7d %-7d %-13.0f %-12.0f %-7d %-14.0f\n",
			pt.Rows, pt.BlockSize, pt.RepairUS, pt.PickUS, pt.VarsCreated, pt.Log10Worlds)
	}
	fmt.Fprintln(w, "shape check: construction is linear in rows while the represented world count is astronomically larger (succinctness of U-relations)")
	fmt.Fprintln(w)
}

// E7Point summarises the empirical (ε,δ) guarantee at one ε.
type E7Point struct {
	Eps        float64
	Instances  int
	Violations int
	MeanRelErr float64
	MaxRelErr  float64
	MeanTrials float64
}

// E7Sweep verifies aconf's accuracy guarantee empirically, on the
// seeded sampler aconf() runs: one seed per instance.
func E7Sweep(opts Options) []E7Point {
	epss := []float64{0.2, 0.1, 0.05}
	instances := 30
	if opts.Quick {
		instances = 10
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var out []E7Point
	for _, eps := range epss {
		pt := E7Point{Eps: eps, Instances: instances}
		for i := 0; i < instances; i++ {
			store := ws.NewStore()
			d := workload.RandomDNF(rng, store, workload.DNFConfig{
				Vars: 10, MaxDomain: 2, Clauses: 8, MaxWidth: 3,
			})
			truth := exact.Prob(d, store)
			if truth == 0 {
				continue
			}
			got, st, err := approx.ConfSeededStats(d, store, eps, 0.05, opts.Seed+int64(i), 1, nil)
			if err != nil {
				panic(err)
			}
			rel := math.Abs(got-truth) / truth
			pt.MeanRelErr += rel
			if rel > pt.MaxRelErr {
				pt.MaxRelErr = rel
			}
			if rel > eps {
				pt.Violations++
			}
			pt.MeanTrials += float64(st.Trials)
		}
		pt.MeanRelErr /= float64(instances)
		pt.MeanTrials /= float64(instances)
		out = append(out, pt)
	}
	return out
}

// E7 prints the aconf accuracy table.
func E7(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E7: empirical (ε,δ=0.05) guarantee of aconf ==")
	fmt.Fprintf(w, "%-6s %-10s %-11s %-12s %-12s %-12s\n",
		"eps", "instances", "violations", "meanRelErr", "maxRelErr", "meanTrials")
	for _, pt := range E7Sweep(opts) {
		fmt.Fprintf(w, "%-6.2f %-10d %-11d %-12.4f %-12.4f %-12.0f\n",
			pt.Eps, pt.Instances, pt.Violations, pt.MeanRelErr, pt.MaxRelErr, pt.MeanTrials)
	}
	fmt.Fprintln(w, "shape check: violation rate stays below δ; trials grow ~1/ε²")
	fmt.Fprintln(w)
}

// All runs every experiment in order.
func All(w io.Writer, opts Options) {
	E1(w, opts)
	E2(w, opts)
	E3(w, opts)
	E4(w, opts)
	E5(w, opts)
	E6(w, opts)
	E7(w, opts)
	E8(w, opts)
}

// E8Point measures one ablation configuration of the exact solver.
type E8Point struct {
	Config    string
	MeanUS    float64
	MeanSteps float64
}

// E8Sweep ablates the exact d-tree solver's design choices — the
// elimination-order heuristic, independence decomposition, and
// memoisation — on the hard middle band of the ratio sweep (vars ≈
// clauses), where the Koch-Olteanu cost heuristics matter most.
func E8Sweep(opts Options) []E8Point {
	instances := 12
	if opts.Quick {
		instances = 4
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	type namedOpts struct {
		name string
		o    exact.Options
	}
	configs := []namedOpts{
		{"full (max-occurrence)", exact.Options{Heuristic: exact.MaxOccurrence}},
		{"heuristic=min-domain", exact.Options{Heuristic: exact.MinDomain}},
		{"heuristic=first-var", exact.Options{Heuristic: exact.FirstVar}},
		{"no-decomposition", exact.Options{NoDecompose: true}},
		{"no-memoisation", exact.Options{NoMemo: true}},
		{"neither", exact.Options{NoDecompose: true, NoMemo: true}},
	}
	// Pre-generate shared instances so every config sees the same DNFs.
	type inst struct {
		d     lineage.DNF
		store *ws.Store
	}
	insts := make([]inst, instances)
	for i := range insts {
		store := ws.NewStore()
		d := workload.RandomDNF(rng, store, workload.DNFConfig{
			Vars: 14, MaxDomain: 2, Clauses: 14, MaxWidth: 3,
		})
		insts[i] = inst{d: d, store: store}
	}
	var out []E8Point
	for _, cfg := range configs {
		pt := E8Point{Config: cfg.name}
		for _, in := range insts {
			solver := exact.NewSolverOpts(in.store, cfg.o)
			t0 := time.Now()
			solver.Prob(in.d)
			pt.MeanUS += float64(time.Since(t0).Microseconds())
			pt.MeanSteps += float64(solver.Steps)
		}
		pt.MeanUS /= float64(instances)
		pt.MeanSteps /= float64(instances)
		out = append(out, pt)
	}
	return out
}

// E8 prints the exact-solver ablation table.
func E8(w io.Writer, opts Options) {
	fmt.Fprintln(w, "== E8 (ablation): exact d-tree design choices on hard instances (vars=clauses=14) ==")
	fmt.Fprintf(w, "%-24s %-10s %-10s\n", "config", "mean(µs)", "steps")
	for _, pt := range E8Sweep(opts) {
		fmt.Fprintf(w, "%-24s %-10.0f %-10.0f\n", pt.Config, pt.MeanUS, pt.MeanSteps)
	}
	fmt.Fprintln(w, "shape check: independence decomposition is the dominant optimisation; memoisation and elimination order matter on harder instances")
	fmt.Fprintln(w)
}
