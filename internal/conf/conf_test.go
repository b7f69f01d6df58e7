// Package conf holds no code of its own: conf() is exact.Prob (the
// Koch-Olteanu d-tree solver) and aconf(ε,δ) is approx.ConfSeededStats.
// These tests cross-check the algorithms of its subpackages against
// each other and against possible-world enumeration.
package conf

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"maybms/internal/conf/approx"
	"maybms/internal/conf/exact"
	"maybms/internal/conf/naive"
	"maybms/internal/conf/sprout"
	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// randomDNF builds a random DNF over nVars variables with domain sizes
// up to maxDom, nClauses clauses of up to maxWidth literals.
func randomDNF(rng *rand.Rand, store *ws.Store, nVars, maxDom, nClauses, maxWidth int) lineage.DNF {
	vars := make([]ws.VarID, nVars)
	doms := make([]int, nVars)
	for i := range vars {
		dom := 2 + rng.Intn(maxDom-1)
		probs := make([]float64, dom)
		rest := 1.0
		for j := 0; j < dom-1; j++ {
			probs[j] = rest * rng.Float64()
			rest -= probs[j]
		}
		probs[dom-1] = rest
		v, err := store.NewVar(probs)
		if err != nil {
			panic(err)
		}
		vars[i] = v
		doms[i] = dom
	}
	d := make(lineage.DNF, 0, nClauses)
	for i := 0; i < nClauses; i++ {
		w := 1 + rng.Intn(maxWidth)
		lits := make([]lineage.Lit, 0, w)
		for j := 0; j < w; j++ {
			k := rng.Intn(nVars)
			lits = append(lits, lineage.Lit{Var: vars[k], Val: 1 + rng.Intn(doms[k])})
		}
		if c, ok := lineage.NewCond(lits...); ok {
			d = append(d, c)
		}
	}
	return d
}

// TestExactMatchesNaive is the central soundness property: the
// Koch-Olteanu algorithm agrees with possible-world enumeration.
func TestExactMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		store := ws.NewStore()
		d := randomDNF(rng, store, 2+rng.Intn(6), 3, 1+rng.Intn(6), 3)
		want := naive.Prob(d, store)
		got := exact.Prob(d, store)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: exact=%v naive=%v dnf=%v", trial, got, want, d)
		}
	}
}

// TestExactHeuristicsAgree: all elimination heuristics and ablations
// compute the same probability.
func TestExactHeuristicsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		store := ws.NewStore()
		d := randomDNF(rng, store, 5, 3, 5, 3)
		want := naive.Prob(d, store)
		for _, opts := range []exact.Options{
			{Heuristic: exact.MaxOccurrence},
			{Heuristic: exact.MinDomain},
			{Heuristic: exact.FirstVar},
			{NoDecompose: true},
			{NoMemo: true},
			{NoDecompose: true, NoMemo: true, Heuristic: exact.MinDomain},
		} {
			got := exact.NewSolverOpts(store, opts).Prob(d)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d opts %+v: got=%v want=%v dnf=%v", trial, opts, got, want, d)
			}
		}
	}
}

// TestSproutMatchesNaive: whenever SPROUT claims a read-once
// factorisation, its result is exact — and bit-identical to the d-tree
// solver's, which takes SPROUT's steps in SPROUT's order on read-once
// lineage. That identity is why conf() needs no SPROUT pre-pass.
func TestSproutMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	claimed := 0
	for trial := 0; trial < 400; trial++ {
		store := ws.NewStore()
		d := randomDNF(rng, store, 2+rng.Intn(5), 3, 1+rng.Intn(5), 3)
		p, ok := sprout.Prob(d, store)
		if !ok {
			continue
		}
		claimed++
		want := naive.Prob(d, store)
		if math.Abs(p-want) > 1e-9 {
			t.Fatalf("trial %d: sprout=%v naive=%v dnf=%v", trial, p, want, d)
		}
		if ex := exact.Prob(d, store); math.Float64bits(ex) != math.Float64bits(p) {
			t.Fatalf("trial %d: sprout=%v exact=%v differ in bits, dnf=%v", trial, p, ex, d)
		}
	}
	if claimed == 0 {
		t.Error("sprout never applied; generator or factoriser broken")
	}
}

// TestSproutHandlesReadOnce: canonical hierarchical lineage (x·y ∨ x·z)
// must factor.
func TestSproutHandlesReadOnce(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.4)
	z, _ := store.NewBoolVar(0.3)
	cxy, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1}, lineage.Lit{Var: y, Val: 1})
	cxz, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1}, lineage.Lit{Var: z, Val: 1})
	d := lineage.DNF{cxy, cxz}
	p, ok := sprout.Prob(d, store)
	if !ok {
		t.Fatal("x(y ∨ z) must be read-once")
	}
	want := 0.5 * (1 - (1-0.4)*(1-0.3))
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("p=%v want %v", p, want)
	}
}

// TestSproutRejectsNonHierarchical: the classic non-read-once lineage
// xy ∨ yz ∨ zx has no 1OF and must be rejected (then conf() must still
// answer correctly through the d-tree solver).
func TestSproutRejectsNonHierarchical(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.5)
	z, _ := store.NewBoolVar(0.5)
	mk := func(a, b ws.VarID) lineage.Cond {
		c, _ := lineage.NewCond(lineage.Lit{Var: a, Val: 1}, lineage.Lit{Var: b, Val: 1})
		return c
	}
	d := lineage.DNF{mk(x, y), mk(y, z), mk(z, x)}
	if _, ok := sprout.Prob(d, store); ok {
		t.Fatal("xy ∨ yz ∨ zx must not be claimed read-once")
	}
	p := exact.Prob(d, store)
	want := naive.Prob(d, store)
	if math.Abs(p-want) > 1e-12 {
		t.Errorf("d-tree: %v want %v", p, want)
	}
}

// TestApproxWithinEps: the (ε,δ) guarantee holds empirically with a
// comfortable margin across random instances.
func TestApproxWithinEps(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	bad := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		store := ws.NewStore()
		d := randomDNF(rng, store, 4, 3, 4, 2)
		want := naive.Prob(d, store)
		if want == 0 {
			continue
		}
		got, err := approx.ConfSeeded(d, store, 0.1, 0.05, int64(trial), 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 0.1*want {
			bad++
		}
	}
	// δ=0.05: expect ~2 violations in 40; 8 would be far outside.
	if bad > 8 {
		t.Errorf("aconf exceeded relative error in %d/%d trials", bad, trials)
	}
}

func TestApproxValidation(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	c, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1})
	d := lineage.DNF{c}
	if _, err := approx.ConfSeeded(d, store, 0, 0.1, 1, 1); err == nil {
		t.Error("eps=0 must fail")
	}
	if _, err := approx.ConfSeeded(d, store, 0.1, 1, 1, 1); err == nil {
		t.Error("delta=1 must fail")
	}
}

func TestEdgeCases(t *testing.T) {
	store := ws.NewStore()
	methods := map[string]func(lineage.DNF) (float64, error){
		"exact": func(d lineage.DNF) (float64, error) { return exact.Prob(d, store), nil },
		"sprout": func(d lineage.DNF) (float64, error) {
			p, ok := sprout.Prob(d, store)
			if !ok {
				return 0, errors.New("not read-once")
			}
			return p, nil
		},
		"aconf": func(d lineage.DNF) (float64, error) { return approx.ConfSeeded(d, store, 0.1, 0.1, 1, 1) },
	}
	for name, prob := range methods {
		// Empty DNF is FALSE.
		if p, err := prob(nil); err != nil || p != 0 {
			t.Errorf("%s empty DNF: %v %v", name, p, err)
		}
		// DNF with the empty clause is TRUE.
		if p, err := prob(lineage.DNF{lineage.TrueCond()}); err != nil || p != 1 {
			t.Errorf("%s TRUE DNF: %v %v", name, p, err)
		}
	}
	// Zero-probability literal.
	x, _ := store.NewVar([]float64{0, 1})
	c, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1})
	p := exact.Prob(lineage.DNF{c}, store)
	if p != 0 {
		t.Errorf("zero-prob literal: %v", p)
	}
}

// TestKarpLubyUnbiased: the fixed-budget estimator converges to the
// true probability.
func TestKarpLubyUnbiased(t *testing.T) {
	store := ws.NewStore()
	rng := rand.New(rand.NewSource(46))
	d := randomDNF(rng, store, 5, 3, 6, 3)
	want := naive.Prob(d, store)
	est := approx.NewEstimator(d, store, rng)
	got := est.Estimate(200000)
	if math.Abs(got-want) > 0.02*math.Max(want, 0.05) {
		t.Errorf("KL estimate %v want %v", got, want)
	}
}

// TestMutualExclusion: repair-key style lineage — alternatives of one
// variable are mutually exclusive; P(x=1 ∨ x=2) = p1+p2.
func TestMutualExclusion(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewVar([]float64{0.2, 0.3, 0.5})
	c1, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1})
	c2, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 2})
	d := lineage.DNF{c1, c2}
	for name, p := range map[string]float64{
		"exact": exact.Prob(d, store),
		"naive": naive.Prob(d, store),
	} {
		if math.Abs(p-0.5) > 1e-12 {
			t.Errorf("%s: %v want 0.5", name, p)
		}
	}
	if p, ok := sprout.Prob(d, store); !ok || math.Abs(p-0.5) > 1e-12 {
		t.Errorf("sprout: %v %v", p, ok)
	}
}

func TestSolverSteps(t *testing.T) {
	store := ws.NewStore()
	rng := rand.New(rand.NewSource(47))
	d := randomDNF(rng, store, 6, 3, 8, 3)
	s := exact.NewSolver(store)
	s.Prob(d)
	if s.Steps == 0 {
		t.Error("steps should be counted")
	}
}
