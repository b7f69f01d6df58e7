package condition

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"maybms/internal/lineage"
	"maybms/internal/workload"
	"maybms/internal/ws"
)

func lit(v ws.VarID, val int) lineage.Lit { return lineage.Lit{Var: v, Val: val} }

func mkCond(t *testing.T, lits ...lineage.Lit) lineage.Cond {
	t.Helper()
	c, ok := lineage.NewCond(lits...)
	if !ok {
		t.Fatal("inconsistent condition in test")
	}
	return c
}

func TestBayesOnTwoCoins(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.5)
	// Evidence: at least one of x, y is true.
	evidence := lineage.DNF{
		mkCond(t, lit(x, 1)),
		mkCond(t, lit(y, 1)),
	}
	c, err := New(store, evidence)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.EvidenceProb()-0.75) > 1e-12 {
		t.Errorf("P(B)=%v", c.EvidenceProb())
	}
	// P(x | x ∨ y) = 0.5 / 0.75 = 2/3.
	got := c.Prob(lineage.DNF{mkCond(t, lit(x, 1))})
	if math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("P(x|B)=%v", got)
	}
	// P(x ∧ y | x ∨ y) = 0.25/0.75 = 1/3.
	got = c.Prob(lineage.DNF{mkCond(t, lit(x, 1), lit(y, 1))})
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("P(x∧y|B)=%v", got)
	}
}

func TestConditioningBreaksIndependence(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.5)
	evidence := lineage.DNF{mkCond(t, lit(x, 1)), mkCond(t, lit(y, 1))}
	c, _ := New(store, evidence)
	px := c.Prob(lineage.DNF{mkCond(t, lit(x, 1))})
	py := c.Prob(lineage.DNF{mkCond(t, lit(y, 1))})
	pxy := c.Prob(lineage.DNF{mkCond(t, lit(x, 1), lit(y, 1))})
	if math.Abs(pxy-px*py) < 1e-9 {
		t.Error("x and y must be dependent under the evidence")
	}
}

func TestMarginalAndMAP(t *testing.T) {
	store := ws.NewStore()
	// A die with non-uniform faces; evidence: the face is even.
	die, _ := store.NewVar([]float64{0.1, 0.2, 0.1, 0.3, 0.1, 0.2})
	evidence := lineage.DNF{
		mkCond(t, lit(die, 2)),
		mkCond(t, lit(die, 4)),
		mkCond(t, lit(die, 6)),
	}
	c, err := New(store, evidence)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Marginal(die)
	want := []float64{0, 0.2 / 0.7, 0, 0.3 / 0.7, 0, 0.2 / 0.7}
	for i := range want {
		if math.Abs(m[i]-want[i]) > 1e-12 {
			t.Errorf("marginal[%d]=%v want %v", i, m[i], want[i])
		}
	}
	val, p := c.MAP(die)
	if val != 4 || math.Abs(p-0.3/0.7) > 1e-12 {
		t.Errorf("MAP: %d %v", val, p)
	}
	// Posterior sums to 1.
	total := 0.0
	for _, p := range m {
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("posterior mass %v", total)
	}
}

func TestImpossibleEvidence(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewVar([]float64{0, 1})
	evidence := lineage.DNF{mkCond(t, lit(x, 1))}
	if _, err := New(store, evidence); err == nil {
		t.Error("zero-probability evidence must fail")
	}
}

func TestTrivialEvidence(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.3)
	c, err := New(store, lineage.DNF{lineage.TrueCond()})
	if err != nil {
		t.Fatal(err)
	}
	got := c.Prob(lineage.DNF{mkCond(t, lit(x, 1))})
	if math.Abs(got-0.3) > 1e-12 {
		t.Errorf("conditioning on TRUE must be the prior: %v", got)
	}
	if c.CondProb(mkCond(t, lit(x, 1))) != got {
		t.Error("CondProb must agree with Prob")
	}
}

// TestPosteriorMatchesEnumeration: for random DNFs, the conditioned
// probability equals the ratio of world masses.
func TestPosteriorMatchesEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		store := ws.NewStore()
		cfg := workload.DNFConfig{Vars: 5, MaxDomain: 3, Clauses: 3, MaxWidth: 2}
		b := workload.RandomDNF(rng, store, cfg)
		a := workload.RandomDNF(rng, store, cfg) // fresh vars: independent of b
		// Mix: make a share variables with b half the time by
		// conjoining one of b's clauses into a.
		if trial%2 == 0 && len(b) > 0 && len(a) > 0 {
			if merged, ok := a[0].And(b[0]); ok {
				a[0] = merged
			}
		}
		c, err := New(store, b)
		if err != nil {
			continue // zero-probability evidence
		}
		got := c.Prob(a)

		// Ground truth by joint enumeration.
		joint := 0.0
		pb := 0.0
		vars := append(a.Vars(), b.Vars()...)
		store.EnumerateWorlds(dedupeVars(vars), func(assign map[ws.VarID]int, p float64) {
			if b.Eval(assign) {
				pb += p
				if a.Eval(assign) {
					joint += p
				}
			}
		})
		want := joint / pb
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: P(A|B)=%v want %v\nA=%v\nB=%v", trial, got, want, a, b)
		}
	}
}

func dedupeVars(vs []ws.VarID) []ws.VarID {
	seen := map[ws.VarID]bool{}
	var out []ws.VarID
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestSampleMatchesPosterior: sampled worlds follow the conditioned
// distribution.
func TestSampleMatchesPosterior(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.5)
	evidence := lineage.DNF{mkCond(t, lit(x, 1)), mkCond(t, lit(y, 1))}
	c, err := New(store, evidence)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(30))
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		w := c.Sample(rng)
		if w[x] == 2 && w[y] == 2 {
			t.Fatal("sampled a world violating the evidence")
		}
		if w[x] == 1 {
			hits++
		}
	}
	frac := float64(hits) / trials
	if math.Abs(frac-2.0/3) > 0.02 {
		t.Errorf("P(x|B) by sampling: %v want ~2/3", frac)
	}
	// Trivial evidence yields the empty constraint map.
	cTriv, _ := New(store, lineage.DNF{lineage.TrueCond()})
	if w := cTriv.Sample(rng); len(w) != 0 {
		t.Errorf("trivial evidence: %v", w)
	}
}

// TestConcurrentProbAndSample: a Conditioned serves posterior queries
// from many goroutines at once (the public Posterior shares one across
// a database documented as safe for concurrent use). Run under -race.
func TestConcurrentProbAndSample(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.5)
	y, _ := store.NewBoolVar(0.5)
	z, _ := store.NewBoolVar(0.5)
	evidence := lineage.DNF{mkCond(t, lit(x, 1)), mkCond(t, lit(y, 1), lit(z, 1))}
	c, err := New(store, evidence)
	if err != nil {
		t.Fatal(err)
	}
	queries := []lineage.DNF{
		{mkCond(t, lit(x, 1))},
		{mkCond(t, lit(y, 1))},
		{mkCond(t, lit(x, 1), lit(z, 1))},
		{mkCond(t, lit(y, 1)), mkCond(t, lit(z, 1))},
	}
	want := make([]float64, len(queries))
	for i, q := range queries {
		want[i] = c.Prob(q)
	}
	c, _ = New(store, evidence) // fresh: the goroutines race on first use
	var wg sync.WaitGroup
	errs := make(chan string, 8*len(queries))
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				for i, q := range queries {
					if got := c.Prob(q); got != want[i] {
						errs <- fmt.Sprintf("query %d: %v want %v", i, got, want[i])
						return
					}
				}
			}
		}()
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < 50; r++ {
				if w := c.Sample(rng); w[x] != 1 && (w[y] != 1 || w[z] != 1) {
					errs <- fmt.Sprintf("sampled a world violating the evidence: %v", w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
