package approx

import (
	"math"
	"math/rand"
	"testing"

	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// fixtureDNF builds x ∨ (y ∧ z) over boolean variables with known
// probability: P = px + (1-px)·py·pz.
func fixtureDNF(t *testing.T) (lineage.DNF, *ws.Store, float64) {
	t.Helper()
	store := ws.NewStore()
	x, _ := store.NewBoolVar(0.3)
	y, _ := store.NewBoolVar(0.5)
	z, _ := store.NewBoolVar(0.8)
	cx, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1})
	cyz, _ := lineage.NewCond(lineage.Lit{Var: y, Val: 1}, lineage.Lit{Var: z, Val: 1})
	want := 0.3 + 0.7*0.5*0.8
	return lineage.DNF{cx, cyz}, store, want
}

func TestEstimatorS(t *testing.T) {
	d, store, _ := fixtureDNF(t)
	e := NewEstimator(d, store, nil)
	// S = P(x) + P(y∧z) = 0.3 + 0.4.
	if math.Abs(e.S-0.7) > 1e-12 {
		t.Errorf("S=%v", e.S)
	}
}

func TestEstimateConverges(t *testing.T) {
	d, store, want := fixtureDNF(t)
	e := NewEstimator(d, store, rand.New(rand.NewSource(9)))
	got := e.Estimate(100000)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("estimate %v want %v", got, want)
	}
	if e.Trials != 100000 {
		t.Errorf("trials %d", e.Trials)
	}
}

func TestEstimatorUnbiasedAcrossSeeds(t *testing.T) {
	d, store, want := fixtureDNF(t)
	// Mean of independent coarse estimates converges (unbiasedness).
	total := 0.0
	const runs = 40
	for seed := int64(0); seed < runs; seed++ {
		e := NewEstimator(d, store, rand.New(rand.NewSource(seed)))
		total += e.Estimate(2000)
	}
	if mean := total / runs; math.Abs(mean-want) > 0.01 {
		t.Errorf("mean of estimates %v want %v", mean, want)
	}
}

func TestConfTautologyAndContradiction(t *testing.T) {
	store := ws.NewStore()
	if p, err := ConfSeeded(nil, store, 0.1, 0.1, 1, 1); err != nil || p != 0 {
		t.Errorf("empty: %v %v", p, err)
	}
	d := lineage.DNF{lineage.TrueCond()}
	if p, err := ConfSeeded(d, store, 0.1, 0.1, 1, 1); err != nil || p != 1 {
		t.Errorf("true: %v %v", p, err)
	}
	// All-zero-probability clauses: S = 0.
	x, _ := store.NewVar([]float64{0, 1})
	c, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 1})
	if p, err := ConfSeeded(lineage.DNF{c}, store, 0.1, 0.1, 1, 1); err != nil || p != 0 {
		t.Errorf("zero-prob: %v %v", p, err)
	}
}

func TestConfParamValidation(t *testing.T) {
	d, store, _ := fixtureDNF(t)
	for _, bad := range [][2]float64{{0, 0.1}, {1, 0.1}, {-0.5, 0.1}, {0.1, 0}, {0.1, 1}, {0.1, 2}} {
		if _, err := ConfSeeded(d, store, bad[0], bad[1], 1, 1); err == nil {
			t.Errorf("eps=%v delta=%v should fail", bad[0], bad[1])
		}
	}
}

// TestConfSeededStatsDeterministic: the reported sampling effort, like
// the estimate, is a pure function of the seed — the worker count
// cannot change it.
func TestConfSeededStatsDeterministic(t *testing.T) {
	d, store, _ := fixtureDNF(t)
	p1, st1, err := ConfSeededStats(d, store, 0.1, 0.1, 5, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	p4, st4, err := ConfSeededStats(d, store, 0.1, 0.1, 5, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(p1) != math.Float64bits(p4) || st1 != st4 {
		t.Errorf("seed 5: workers=1 gave %v %+v, workers=4 gave %v %+v", p1, st1, p4, st4)
	}
}

func TestAATrialsGrowWithPrecision(t *testing.T) {
	d, store, _ := fixtureDNF(t)
	_, loose, err := ConfSeededStats(d, store, 0.2, 0.1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, tight, err := ConfSeededStats(d, store, 0.05, 0.1, 4, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Trials <= loose.Trials {
		t.Errorf("tight eps must need more trials: %d vs %d", tight.Trials, loose.Trials)
	}
	// 1/eps² scaling: 16x eps ratio² within a factor of ~4.
	ratio := float64(tight.Trials) / float64(loose.Trials)
	if ratio < 4 || ratio > 64 {
		t.Errorf("trial scaling ratio %v outside [4,64]", ratio)
	}
}

// TestMultiValuedDomains: the estimator samples non-boolean domains
// and deficit alternatives correctly.
func TestMultiValuedDomains(t *testing.T) {
	store := ws.NewStore()
	x, _ := store.NewVar([]float64{0.2, 0.3, 0.5})
	y, _ := store.NewVar([]float64{0.4, 0.1}) // 0.5 deficit
	c1, _ := lineage.NewCond(lineage.Lit{Var: x, Val: 2})
	c2, _ := lineage.NewCond(lineage.Lit{Var: y, Val: 1})
	d := lineage.DNF{c1, c2}
	want := 1 - (1-0.3)*(1-0.4)
	e := NewEstimator(d, store, rand.New(rand.NewSource(11)))
	got := e.Estimate(200000)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("multi-domain estimate %v want %v", got, want)
	}
}
