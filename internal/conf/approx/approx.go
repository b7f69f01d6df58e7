// Package approx implements MayBMS's aconf(ε,δ): the Karp-Luby
// unbiased estimator for DNF probability, adapted to conditions over
// finite independent random variables, driven by the
// Dagum-Karp-Luby-Ross "optimal algorithm for Monte Carlo estimation"
// (SICOMP 29(5), 2000). The AA algorithm (ConfSeeded, parallel.go)
// uses sequential analysis to determine how many Karp-Luby trials
// achieve the requested (ε,δ)-guarantee: P(|p̂ − p| > ε·p) < δ.
package approx

import (
	"math/rand"
	"sort"

	"maybms/internal/lineage"
	"maybms/internal/ws"
)

// Estimator draws Karp-Luby trials for a fixed DNF. Each trial is a
// Bernoulli outcome whose mean is P(DNF)/S where S is the sum of
// clause probabilities, so S·mean estimates P(DNF).
type Estimator struct {
	d     lineage.DNF
	src   ws.ProbSource
	rng   *rand.Rand
	S     float64          // sum of clause probabilities
	cum   []float64        // cumulative clause probabilities for sampling
	trial map[ws.VarID]int // scratch assignment

	// cancel, when non-nil, is polled between trial blocks (every
	// cancelInterval trials) so a killed query aborts estimation
	// instead of sampling to convergence. It returns the typed
	// cancellation error once the query is killed.
	cancel func() error

	// Trials counts Karp-Luby invocations.
	Trials int
}

// cancelInterval is how many trials run between cancellation polls: a
// poll is one atomic load, so the interval only bounds kill latency
// (a few thousand trials are microseconds on typical lineage).
const cancelInterval = 4096

// checkCancel polls the cancellation hook, if any.
func (e *Estimator) checkCancel() error {
	if e.cancel == nil {
		return nil
	}
	return e.cancel()
}

// NewEstimator prepares a Karp-Luby estimator for d. rng may be nil,
// in which case a fixed-seed source is used (deterministic runs).
func NewEstimator(d lineage.DNF, src ws.ProbSource, rng *rand.Rand) *Estimator {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	e := newTables(d, src)
	e.rng = rng
	e.trial = map[ws.VarID]int{}
	return e
}

// newTables builds an estimator's immutable tables without an RNG: the
// base of a strand-partitioned run, which only forks draw from.
func newTables(d lineage.DNF, src ws.ProbSource) *Estimator {
	d = d.Simplify()
	e := &Estimator{d: d, src: src}
	e.cum = make([]float64, len(d))
	s := 0.0
	for i, c := range d {
		s += c.Prob(src)
		e.cum[i] = s
	}
	e.S = s
	return e
}

// Sample runs one Karp-Luby trial and reports its Bernoulli outcome.
// The trial picks a clause i with probability P(Cᵢ)/S, samples a world
// θ conditioned on Cᵢ, and succeeds iff i is the first clause θ
// satisfies. E[outcome] = P(DNF)/S.
//
// The world is sampled lazily: a variable outside Cᵢ is drawn (and
// memoised) only when an earlier clause's check first reads it, in a
// deterministic order — clauses in DNF order, literals in clause
// order. Variables no check reads are never drawn; marginalising them
// out leaves the trial's distribution untouched, while the cost drops
// from O(|vars|) per trial to the expected scan length before a
// satisfied clause — the difference between minutes and milliseconds
// on repair-key lineage with thousands of blocks.
func (e *Estimator) Sample() bool {
	e.Trials++
	// Pick clause i ∝ P(Cᵢ).
	u := e.rng.Float64() * e.S
	i := sort.SearchFloat64s(e.cum, u)
	if i >= len(e.d) {
		i = len(e.d) - 1
	}
	ci := e.d[i]
	clear(e.trial)
	for _, l := range ci {
		e.trial[l.Var] = l.Val
	}
	// Success iff no earlier clause is satisfied.
	for j := 0; j < i; j++ {
		sat := true
		for _, l := range e.d[j] {
			v, drawn := e.trial[l.Var]
			if !drawn {
				v = e.sampleVar(l.Var)
				e.trial[l.Var] = v
			}
			if v != l.Val {
				sat = false
				break
			}
		}
		if sat {
			return false
		}
	}
	return true
}

// sampleVar draws an alternative of v from its marginal distribution.
// Probability deficits map to the implicit extra alternative n+1,
// which no literal mentions.
func (e *Estimator) sampleVar(v ws.VarID) int {
	u := e.rng.Float64()
	n := e.src.DomainSize(v)
	acc := 0.0
	for val := 1; val <= n; val++ {
		acc += e.src.Prob(v, val)
		if u < acc {
			return val
		}
	}
	return n + 1
}

// Estimate runs exactly n trials and returns S·(successes/n), the
// plain Karp-Luby estimate used by the fixed-budget baselines.
func (e *Estimator) Estimate(n int) float64 {
	if e.S == 0 || len(e.d) == 0 {
		return 0
	}
	if e.d.HasEmptyClause() {
		return 1
	}
	succ := 0
	for i := 0; i < n; i++ {
		if e.Sample() {
			succ++
		}
	}
	return e.S * float64(succ) / float64(n)
}

// SampleStats reports the sampling effort one aconf evaluation spent:
// the total Karp-Luby trial count across the AA algorithm's three
// steps, and the achieved relative standard error of the final
// estimate (√(ρ̂/N)/μ̂ — an observability figure, not the (ε,δ)
// guarantee itself). Degenerate inputs (empty DNF, tautology, zero
// clause mass) short-circuit without sampling and report zero effort.
type SampleStats struct {
	Trials int64
	RelErr float64
}
