package exec

// Partitioned pipeline breakers: aggregate, sort, and distinct over a
// parallel-safe fragment no longer funnel through the single-threaded
// materialise boundary. Each partition worker runs its own copy of the
// fragment over one contiguous row-range shard and computes a partial
// state — per-partition group buckets, a stably-sorted run, a local
// first-occurrence set — and a deterministic merge combines the
// partials in partition order. Determinism is the whole contract:
//
//   - aggregation: partitions' groups are merged in partition order, so
//     the global group order is the serial first-occurrence order and
//     every group's row list is in serial row order — float sums fold
//     the same values in the same order at every parallelism degree;
//     per-group aggregate computation then fans out across workers with
//     Monte Carlo seeds pre-derived in canonical group order;
//   - sort: per-partition runs are stably sorted with the serial
//     comparator and k-way merged with ties broken by partition index,
//     which reproduces exactly the serial stable sort;
//   - distinct: local first-occurrence lists are concatenated in
//     partition order under a global seen-set, keeping exactly the
//     serial first occurrences.
//
// The result is byte-identical to serial execution — the invariant the
// equivalence corpus and the merge fuzz target enforce. Workers are
// scheduled on the engine's shared pool; the barrier runs still-queued
// partitions inline on the consumer, so breakers degrade to serial
// under pool saturation instead of deadlocking.

import (
	"io"
	"sort"

	"maybms/internal/exec/parallel"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/storage"
	"maybms/internal/urel"
)

// openParAggregate compiles n into a partitioned aggregation when its
// input is a parallel-safe fragment and every aggregate expression is
// shareable. ok=false falls back to the serial breaker.
func (e *Executor) openParAggregate(n *plan.Aggregate, pc PartitionCatalog, nparts int) (urel.Iterator, bool, error) {
	for _, gb := range n.GroupBy {
		if !gb.Shareable() {
			return nil, false, nil
		}
	}
	for _, spec := range n.Aggs {
		if spec.Arg != nil && !spec.Arg.Shareable() {
			return nil, false, nil
		}
		if spec.Arg2 != nil && !spec.Arg2.Shareable() {
			return nil, false, nil
		}
	}
	// Items and HAVING run on the consumer goroutine, but a
	// non-shareable one could hide a subquery whose execution
	// interleaves with seed derivation differently than serially.
	for _, item := range n.Items {
		if !item.Shareable() {
			return nil, false, nil
		}
	}
	if n.Having != nil && !n.Having.Shareable() {
		return nil, false, nil
	}
	fp, ok, err := e.prepFragment(n.In, pc)
	if !ok || err != nil {
		return nil, false, err
	}
	return e.parBreaker(n.Sch(), func() (*urel.Rel, error) {
		return e.parAggregate(n, fp, pc, nparts)
	}), true, nil
}

// parAggregate is the partitioned aggregation barrier.
func (e *Executor) parAggregate(n *plan.Aggregate, fp *fragPrep, pc PartitionCatalog, nparts int) (*urel.Rel, error) {
	e.noteBreaker(n, nparts)
	// Phase 1: per-partition partial aggregation (bucketing).
	parts := make([]*grouper, nparts)
	err := parallel.Run(e.Pool, nparts, func(part int) error {
		it, err := e.openPart(n.In, pc, fp.shared, part, nparts)
		if err != nil {
			return err
		}
		defer it.Close()
		ctx := e.evalCtx()
		gr := newGrouper()
		for {
			b, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if err := gr.bucket(n, ctx, b.Tuples); err != nil {
				return err
			}
		}
		parts[part] = gr
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2: deterministic merge — partial group states combined in
	// canonical (serial first-occurrence) group order.
	groups := forceGroup(n, mergeGroupers(parts))

	// Phase 3: per-group aggregate computation, fanned out across the
	// pool. Every aggregate is a pure function of its group's rows and
	// a Monte Carlo seed, and the seeds are pre-derived in canonical
	// group order, so the fan-out cannot change bytes.
	synth := make([][]schema.Tuple, len(groups))
	if len(groups) > 1 {
		seeds := e.deriveGroupSeeds(n, groups)
		njobs := nparts
		if len(groups) < njobs {
			njobs = len(groups)
		}
		err = parallel.Run(e.Pool, njobs, func(job int) error {
			ctx := e.evalCtx()
			lo, hi := storage.PartRange(len(groups), job, njobs)
			for gi := lo; gi < hi; gi++ {
				if e.Cancel != nil {
					if err := e.Cancel.Err(); err != nil {
						return err
					}
				}
				var gseeds []int64
				if seeds != nil {
					gseeds = seeds[gi]
				}
				rows, err := e.aggregateGroup(n, ctx, groups[gi], gseeds, 1)
				if err != nil {
					return err
				}
				synth[gi] = rows
			}
			return nil
		})
	} else {
		ctx := e.evalCtx()
		for gi, g := range groups {
			if e.Cancel != nil {
				if err = e.Cancel.Err(); err != nil {
					break
				}
			}
			synth[gi], err = e.aggregateGroup(n, ctx, g, nil, 0)
			if err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	// HAVING and the select items, serially, in group order.
	out := urel.New(n.Sch())
	ctx := e.evalCtx()
	for _, rows := range synth {
		if err := e.emitGroupRows(n, ctx, out, rows); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// deriveGroupSeeds pre-draws the per-(group, spec) Monte Carlo seeds
// in exactly the order the serial group loop would draw them: groups
// in canonical order, specs in declaration order. nil when no spec
// needs a seed.
func (e *Executor) deriveGroupSeeds(n *plan.Aggregate, groups []*group) [][]int64 {
	need := false
	for _, spec := range n.Aggs {
		if spec.Kind == plan.AggAconf {
			need = true
		}
	}
	if !need {
		return nil
	}
	out := make([][]int64, len(groups))
	for gi := range groups {
		seeds := make([]int64, len(n.Aggs))
		for si, spec := range n.Aggs {
			if spec.Kind == plan.AggAconf {
				seeds[si] = e.nextConfSeed()
			}
		}
		out[gi] = seeds
	}
	return out
}

// openParSort compiles n into a partitioned sort when its input is a
// parallel-safe fragment and every sort key is shareable.
func (e *Executor) openParSort(n *plan.Sort, pc PartitionCatalog, nparts int) (urel.Iterator, bool, error) {
	for _, k := range n.Keys {
		if !k.Shareable() {
			return nil, false, nil
		}
	}
	fp, ok, err := e.prepFragment(n.In, pc)
	if !ok || err != nil {
		return nil, false, err
	}
	return e.parBreaker(n.Sch(), func() (*urel.Rel, error) {
		return e.parSort(n, fp, pc, nparts)
	}), true, nil
}

// keyedTuple pairs a tuple with its evaluated sort keys.
type keyedTuple struct {
	t    urel.Tuple
	keys schema.Tuple
}

// sortLess is the serial comparator of applySort over evaluated keys.
func sortLess(n *plan.Sort, a, b keyedTuple) bool {
	for j := range n.Keys {
		c := a.keys[j].Compare(b.keys[j])
		if c == 0 {
			continue
		}
		if n.Desc[j] {
			return c > 0
		}
		return c < 0
	}
	return false
}

// parSort sorts each partition's shard into a stable run and k-way
// merges the runs. Ties across runs break towards the lower partition
// index; runs are internally stable; partitions are contiguous input
// ranges — together that reproduces exactly the serial stable sort.
func (e *Executor) parSort(n *plan.Sort, fp *fragPrep, pc PartitionCatalog, nparts int) (*urel.Rel, error) {
	e.noteBreaker(n, nparts)
	runs := make([][]keyedTuple, nparts)
	err := parallel.Run(e.Pool, nparts, func(part int) error {
		it, err := e.openPart(n.In, pc, fp.shared, part, nparts)
		if err != nil {
			return err
		}
		defer it.Close()
		ctx := e.evalCtx()
		var run []keyedTuple
		for {
			b, err := it.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			for _, t := range b.Tuples {
				ks := make(schema.Tuple, len(n.Keys))
				for j, k := range n.Keys {
					v, err := k.Eval(ctx, t.Data)
					if err != nil {
						return err
					}
					ks[j] = v
				}
				run = append(run, keyedTuple{t: t, keys: ks})
			}
		}
		sort.SliceStable(run, func(a, b int) bool { return sortLess(n, run[a], run[b]) })
		runs[part] = run
		return nil
	})
	if err != nil {
		return nil, err
	}
	if tr := e.Tracer; tr != nil {
		// Count only runs that actually hold rows — the merge fan-in.
		live := int64(0)
		for _, run := range runs {
			if len(run) > 0 {
				live++
			}
		}
		tr.Node(n).Counter("merge_runs").Store(live)
	}
	out := urel.New(n.Sch())
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	out.Tuples = make([]urel.Tuple, 0, total)
	idx := make([]int, nparts)
	for {
		best := -1
		for p := 0; p < nparts; p++ {
			if idx[p] >= len(runs[p]) {
				continue
			}
			if best < 0 || sortLess(n, runs[p][idx[p]], runs[best][idx[best]]) {
				best = p
			}
		}
		if best < 0 {
			break
		}
		out.Tuples = append(out.Tuples, runs[best][idx[best]].t)
		idx[best]++
	}
	return out, nil
}

// openParDistinct compiles n into a partitioned distinct when its
// input is a parallel-safe fragment. Distinct inspects only tuple
// data, so there is no expression gate beyond the fragment's own.
func (e *Executor) openParDistinct(n *plan.Distinct, pc PartitionCatalog, nparts int) (urel.Iterator, bool, error) {
	fp, ok, err := e.prepFragment(n.In, pc)
	if !ok || err != nil {
		return nil, false, err
	}
	return e.parBreaker(n.Sch(), func() (*urel.Rel, error) {
		return e.parDistinct(n, fp, pc, nparts)
	}), true, nil
}

// parDistinct deduplicates each partition locally, then merges the
// local first-occurrence lists in partition order under a global seen
// set — keeping exactly the tuples (and the order) the serial distinct
// keeps.
func (e *Executor) parDistinct(n *plan.Distinct, fp *fragPrep, pc PartitionCatalog, nparts int) (*urel.Rel, error) {
	e.noteBreaker(n, nparts)
	type local struct {
		keys   []string
		tuples []urel.Tuple
	}
	locals := make([]local, nparts)
	err := parallel.Run(e.Pool, nparts, func(part int) error {
		it, err := e.openPart(n.In, pc, fp.shared, part, nparts)
		if err != nil {
			return err
		}
		defer it.Close()
		seen := map[string]bool{}
		l := &locals[part]
		for {
			b, err := it.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			for _, t := range b.Tuples {
				k := t.Data.Key()
				if seen[k] {
					continue
				}
				seen[k] = true
				l.keys = append(l.keys, k)
				l.tuples = append(l.tuples, t)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := urel.New(n.Sch())
	seen := map[string]bool{}
	for _, l := range locals {
		for i, k := range l.keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			out.Append(l.tuples[i])
		}
	}
	return out, nil
}

// noteBreaker records one partitioned breaker run in the engine stats
// and, when a trace is attached, in the statement's trace: the
// per-query parallel snapshot plus a partitions extra on the breaker's
// own operator line.
func (e *Executor) noteBreaker(n plan.Node, nparts int) {
	if e.Stats != nil {
		e.Stats.Breakers.Add(1)
		e.Stats.Partitions.Add(int64(nparts))
	}
	if tr := e.Tracer; tr != nil {
		tr.Par.Breakers.Add(1)
		tr.Par.Partitions.Add(int64(nparts))
		tr.Node(n).Counter("partitions").Store(int64(nparts))
	}
}

// parBreaker wraps a partitioned barrier computation in an iterator:
// the first pull runs the barrier (joining every worker before it
// returns — Close never races live workers, so the snapshot under the
// fragment may be released the moment the cursor closes) and streams
// the materialised result in batches.
type parBreakIter struct {
	sch     *schema.Schema
	compute func() (*urel.Rel, error)
	src     urel.Iterator
	done    bool
}

func (e *Executor) parBreaker(sch *schema.Schema, compute func() (*urel.Rel, error)) urel.Iterator {
	return &parBreakIter{sch: sch, compute: compute}
}

func (it *parBreakIter) Sch() *schema.Schema { return it.sch }

func (it *parBreakIter) Next() (*urel.Batch, error) {
	if it.done {
		return nil, io.EOF
	}
	if it.src == nil {
		rel, err := it.compute()
		if err != nil {
			it.done = true
			return nil, err
		}
		it.src = urel.NewRelIterator(rel, urel.DefaultBatchSize)
	}
	b, err := it.src.Next()
	if err != nil {
		it.done = true
	}
	return b, err
}

func (it *parBreakIter) Close() error {
	it.done = true
	if it.src != nil {
		return it.src.Close()
	}
	return nil
}
