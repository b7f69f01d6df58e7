// Package condition implements database conditioning in the sense of
// Koch & Olteanu, "Conditioning Probabilistic Databases" (VLDB 2008) —
// the companion paper behind MayBMS's exact confidence engine. Given
// evidence (an event over the world-set variables, e.g. "the answer to
// this query is non-empty" or an integrity constraint), conditioning
// restricts the represented world set to the worlds satisfying the
// evidence and renormalises.
//
// Under evidence the variables are generally no longer independent, so
// the posterior cannot be stored back into a ws.Store; instead a
// Conditioned value answers posterior queries — event probabilities
// and per-variable marginals — through the exact d-tree solver:
//
//	P(A | B) = P(A ∧ B) / P(B).
package condition

import (
	"fmt"
	"math/rand"
	"sync"

	"maybms/internal/conf/exact"
	"maybms/internal/lineage"
	"maybms/internal/ws"
	"maybms/internal/wstree"
)

// Conditioned is a world-set store conditioned on evidence. It is safe
// for concurrent use: every Prob runs its own solver, and the sampling
// tree is built once.
type Conditioned struct {
	src      ws.ProbSource
	evidence lineage.DNF
	pB       float64
	treeOnce sync.Once
	tree     *wstree.Node // built on first Sample
}

// New conditions the store on the evidence event. It fails when the
// evidence has probability zero (conditioning on the impossible).
func New(src ws.ProbSource, evidence lineage.DNF) (*Conditioned, error) {
	evidence = evidence.Simplify()
	pB := 1.0
	if !evidence.HasEmptyClause() {
		pB = exact.Prob(evidence, src)
	}
	if pB <= 0 {
		return nil, fmt.Errorf("condition: evidence has probability zero")
	}
	return &Conditioned{src: src, evidence: evidence, pB: pB}, nil
}

// EvidenceProb returns P(B), the prior probability of the evidence.
func (c *Conditioned) EvidenceProb() float64 { return c.pB }

// Prob returns the posterior P(A | B).
func (c *Conditioned) Prob(a lineage.DNF) float64 {
	a = a.Simplify()
	if len(a) == 0 {
		return 0
	}
	var joint lineage.DNF
	switch {
	case a.HasEmptyClause():
		return 1
	case c.evidence.HasEmptyClause() || len(c.evidence) == 0:
		joint = a
	default:
		joint = a.AndDNF(c.evidence).Simplify()
	}
	return exact.Prob(joint, c.src) / c.pB
}

// CondProb returns the posterior probability of a single conjunctive
// condition (a tuple's world-set descriptor) — the conditioned
// analogue of tconf().
func (c *Conditioned) CondProb(cond lineage.Cond) float64 {
	return c.Prob(lineage.DNF{cond})
}

// Marginal returns the posterior distribution of variable v given the
// evidence: out[i] = P(v = i+1 | B) for the explicit alternatives. A
// probability deficit in the result corresponds to the implicit
// residual alternative.
func (c *Conditioned) Marginal(v ws.VarID) []float64 {
	n := c.src.DomainSize(v)
	out := make([]float64, n)
	for val := 1; val <= n; val++ {
		lit := lineage.Lit{Var: v, Val: val}
		cond, _ := lineage.NewCond(lit)
		out[val-1] = c.Prob(lineage.DNF{cond})
	}
	return out
}

// Sample draws a world from the posterior distribution: an assignment
// of the evidence's variables conditioned on the evidence holding.
// Useful for materialising likely repairs in data cleaning. rng may
// be nil for a deterministic default.
func (c *Conditioned) Sample(rng *rand.Rand) map[ws.VarID]int {
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	c.treeOnce.Do(func() { c.tree = wstree.Build(c.evidence, c.src) })
	out := map[ws.VarID]int{}
	if c.evidence.HasEmptyClause() || len(c.evidence) == 0 {
		return out // trivial evidence constrains nothing
	}
	c.tree.Sample(rng, c.src, out)
	return out
}

// MAP returns the most probable explicit alternative of v under the
// evidence (1-based), with its posterior probability.
func (c *Conditioned) MAP(v ws.VarID) (int, float64) {
	best, bestP := 0, -1.0
	for i, p := range c.Marginal(v) {
		if p > bestP {
			best, bestP = i+1, p
		}
	}
	return best, bestP
}
