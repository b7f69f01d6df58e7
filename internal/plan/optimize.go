package plan

// The optimization pass between plan compilation and execution. The
// builder is syntax-directed: joins follow FROM order, filters sit
// where the WHERE clause could first compile them. Optimize rewrites
// the tree — predicate pushdown, product-to-hash-join conversion,
// greedy join reordering, and build-side/estimate stamping for the
// executor — under one invariant: the optimized plan must produce
// byte-identical results to the unoptimized plan at every parallelism
// degree. Rewrites therefore come in two flavours:
//
//   - order-preserving rewrites (pushdown, product→hash-join): moving
//     a filter below a join or converting a filtered product into a
//     hash join keeps the surviving rows in exactly the original
//     emission order, so nothing else is needed;
//
//   - order-restoring rewrites (join reordering): a left-deep join
//     tree emits rows in lexicographic order of its leaves' row
//     positions, so the reordered tree tags every leaf row with its
//     position (Number), joins in the cheaper order, sorts on the
//     position columns in the original leaf order, and strips the
//     tags while restoring the original column order (Remap).
//
// Lineage safety: conditions are canonical sorted conjunctions
// (lineage.And merges by variable ID), so conjoining them in a
// different join order yields identical bytes. What is NOT safe is
// changing the order in which world-set variables are allocated, so
// any subtree that can allocate variables at execution time
// (repair-key, pick-tuples, or a predicate containing a subquery —
// even a plan-certain subquery may evaluate repair-key under an
// aggregate) anchors its region: such leaves are never reordered and
// such predicates are never moved.

import (
	"fmt"

	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
)

// Estimator supplies base-table row counts for cost estimation. The
// database snapshot satisfies it (exec.PartitionCatalog.TableLen).
type Estimator interface {
	TableLen(name string) (int, error)
}

// OptOptions configures Optimize.
type OptOptions struct {
	// Est supplies table row counts; without it, join reordering and
	// build-side selection are skipped (pushdown still runs).
	Est Estimator
}

// Optimize rewrites a freshly built plan. It mutates the tree in place
// and returns the (possibly new) root.
func Optimize(n Node, opts OptOptions) Node {
	o := &optimizer{opts: opts}
	n = pushdownWalk(n)
	n = joinConvWalk(n)
	if opts.Est != nil {
		n = o.reorderWalk(n)
	}
	o.stamp(n)
	return n
}

type optimizer struct {
	opts    OptOptions
	posSeq  int // unique suffix for Number position columns
	tblRows map[string]int64
}

// ---------------------------------------------------------------------------
// Order-restoration operators.

// Number appends a hidden INT column holding each row's position in
// stream order (0, 1, 2, ...). The optimizer places one on every leaf
// of a reordered join region; a Sort on these columns restores the
// original emission order. Number needs a global counter, so the
// parallel executor never partitions through it (it is unknown to
// fragment detection and falls back to serial — exactly the safe
// behaviour).
type Number struct {
	In  Node
	sch *schema.Schema
}

// Sch is the input schema plus the trailing position column.
func (n *Number) Sch() *schema.Schema { return n.sch }

// Certain is inherited from the input.
func (n *Number) Certain() bool { return n.In.Certain() }

// Remap is a pure positional projection: output column i is input
// column Cols[i], conditions carried through unchanged. The optimizer
// uses it to strip Number's position columns and restore the original
// column order after a join reorder.
type Remap struct {
	In   Node
	Cols []int
	sch  *schema.Schema
}

// Sch is the remapped schema (the original join-region schema).
func (r *Remap) Sch() *schema.Schema { return r.sch }

// Certain is inherited from the input.
func (r *Remap) Certain() bool { return r.In.Certain() }

func (o *optimizer) number(in Node) *Number {
	cols := make([]schema.Column, 0, in.Sch().Len()+1)
	cols = append(cols, in.Sch().Cols...)
	cols = append(cols, schema.Column{Name: fmt.Sprintf("__pos%d", o.posSeq), Kind: types.KindInt})
	o.posSeq++
	return &Number{In: in, sch: schema.New(cols...)}
}

// ---------------------------------------------------------------------------
// Tree plumbing.

// replaceChildren applies f to every plan input of n, in place.
func replaceChildren(n Node, f func(Node) Node) {
	switch n := n.(type) {
	case *Product:
		n.L, n.R = f(n.L), f(n.R)
	case *HashJoin:
		n.L, n.R = f(n.L), f(n.R)
	case *Filter:
		n.In = f(n.In)
	case *SemiJoinIn:
		n.In, n.Sub = f(n.In), f(n.Sub)
	case *Project:
		n.In = f(n.In)
	case *Aggregate:
		n.In = f(n.In)
	case *RepairKey:
		n.In = f(n.In)
	case *PickTuples:
		n.In = f(n.In)
	case *UnionAll:
		n.L, n.R = f(n.L), f(n.R)
	case *Distinct:
		n.In = f(n.In)
	case *Possible:
		n.In = f(n.In)
	case *Sort:
		n.In = f(n.In)
	case *Limit:
		n.In = f(n.In)
	case *Rename:
		n.In = f(n.In)
	case *Number:
		n.In = f(n.In)
	case *Remap:
		n.In = f(n.In)
	}
}

// exprHasSubquery reports whether e contains a subquery. Unknown forms
// count as subqueries (conservative): a subquery can allocate
// world-set variables at evaluation time even when its plan is
// certain, so predicates containing one are never moved.
func exprHasSubquery(e sql.Expr) bool {
	switch e := e.(type) {
	case nil, sql.ColRef, sql.Lit, sql.Param:
		return false
	case *sql.Unary:
		return exprHasSubquery(e.E)
	case *sql.Binary:
		return exprHasSubquery(e.L) || exprHasSubquery(e.R)
	case *sql.FuncCall:
		for _, a := range e.Args {
			if exprHasSubquery(a) {
				return true
			}
		}
		return false
	case *sql.InList:
		if exprHasSubquery(e.E) {
			return true
		}
		for _, x := range e.List {
			if exprHasSubquery(x) {
				return true
			}
		}
		return false
	case *sql.IsNull:
		return exprHasSubquery(e.E)
	case *sql.Between:
		return exprHasSubquery(e.E) || exprHasSubquery(e.Lo) || exprHasSubquery(e.Hi)
	case *sql.Cast:
		return exprHasSubquery(e.E)
	default:
		return true
	}
}

// collectColRefs gathers every column reference in e, or reports false
// when e contains a form it does not understand.
func collectColRefs(e sql.Expr, out *[]sql.ColRef) bool {
	switch e := e.(type) {
	case nil, sql.Lit, sql.Param:
		return true
	case sql.ColRef:
		*out = append(*out, e)
		return true
	case *sql.Unary:
		return collectColRefs(e.E, out)
	case *sql.Binary:
		return collectColRefs(e.L, out) && collectColRefs(e.R, out)
	case *sql.FuncCall:
		for _, a := range e.Args {
			if !collectColRefs(a, out) {
				return false
			}
		}
		return true
	case *sql.InList:
		if !collectColRefs(e.E, out) {
			return false
		}
		for _, x := range e.List {
			if !collectColRefs(x, out) {
				return false
			}
		}
		return true
	case *sql.IsNull:
		return collectColRefs(e.E, out)
	case *sql.Between:
		return collectColRefs(e.E, out) && collectColRefs(e.Lo, out) && collectColRefs(e.Hi, out)
	case *sql.Cast:
		return collectColRefs(e.E, out)
	default:
		return false
	}
}

// rewriteColRefs rebuilds e with every column reference replaced by
// sub(ref); sub returning ok=false aborts the rewrite.
func rewriteColRefs(e sql.Expr, sub func(sql.ColRef) (sql.Expr, bool)) (sql.Expr, bool) {
	switch e := e.(type) {
	case nil, sql.Lit, sql.Param:
		return e, true
	case sql.ColRef:
		return sub(e)
	case *sql.Unary:
		in, ok := rewriteColRefs(e.E, sub)
		if !ok {
			return nil, false
		}
		return &sql.Unary{Op: e.Op, E: in}, true
	case *sql.Binary:
		l, ok1 := rewriteColRefs(e.L, sub)
		r, ok2 := rewriteColRefs(e.R, sub)
		if !ok1 || !ok2 {
			return nil, false
		}
		return &sql.Binary{Op: e.Op, L: l, R: r}, true
	case *sql.FuncCall:
		args := make([]sql.Expr, len(e.Args))
		for i, a := range e.Args {
			na, ok := rewriteColRefs(a, sub)
			if !ok {
				return nil, false
			}
			args[i] = na
		}
		return &sql.FuncCall{Name: e.Name, Args: args, Star: e.Star}, true
	case *sql.InList:
		in, ok := rewriteColRefs(e.E, sub)
		if !ok {
			return nil, false
		}
		list := make([]sql.Expr, len(e.List))
		for i, x := range e.List {
			nx, ok := rewriteColRefs(x, sub)
			if !ok {
				return nil, false
			}
			list[i] = nx
		}
		return &sql.InList{E: in, List: list, Negate: e.Negate}, true
	case *sql.IsNull:
		in, ok := rewriteColRefs(e.E, sub)
		if !ok {
			return nil, false
		}
		return &sql.IsNull{E: in, Negate: e.Negate}, true
	case *sql.Between:
		in, ok1 := rewriteColRefs(e.E, sub)
		lo, ok2 := rewriteColRefs(e.Lo, sub)
		hi, ok3 := rewriteColRefs(e.Hi, sub)
		if !ok1 || !ok2 || !ok3 {
			return nil, false
		}
		return &sql.Between{E: in, Lo: lo, Hi: hi, Negate: e.Negate}, true
	case *sql.Cast:
		in, ok := rewriteColRefs(e.E, sub)
		if !ok {
			return nil, false
		}
		return &sql.Cast{E: in, Kind: e.Kind}, true
	default:
		return nil, false
	}
}

// ---------------------------------------------------------------------------
// Pass 1: predicate pushdown.

// pushdownWalk sinks every movable Filter as far down its input as the
// schemas allow. Children first, so stacked filters each get their
// shot at the lowest position.
func pushdownWalk(n Node) Node {
	replaceChildren(n, pushdownWalk)
	if f, ok := n.(*Filter); ok && f.Src != nil && !exprHasSubquery(f.Src) {
		if nn, ok := sink(f.Src, f.In); ok {
			return nn
		}
	}
	return n
}

// sink tries to place pred strictly below n's top operator, returning
// a node equivalent to Filter(pred)(n). Every traversal below is
// order-preserving: filtering before a sort, rename, projection, or on
// one side of a product/hash join keeps the surviving rows in exactly
// the order the original post-filter produced.
func sink(pred sql.Expr, n Node) (Node, bool) {
	switch t := n.(type) {
	case *Filter:
		// Crossing another filter is not by itself a win; only succeed
		// if the predicate keeps descending.
		if in, ok := sink(pred, t.In); ok {
			t.In = in
			return t, true
		}
		return nil, false
	case *Sort:
		return sinkThrough(pred, t, &t.In)
	case *SemiJoinIn:
		return sinkThrough(pred, t, &t.In)
	case *Rename:
		// Rewrite each reference from the alias qualifier back to the
		// inner schema's own qualifiers, verifying the round trip.
		inner := t.In.Sch()
		rw, ok := rewriteColRefs(pred, func(cr sql.ColRef) (sql.Expr, bool) {
			idx, err := t.sch.Resolve(cr.Rel, cr.Name)
			if err != nil {
				return nil, false
			}
			nc := sql.ColRef{Rel: inner.Cols[idx].Rel, Name: inner.Cols[idx].Name}
			if got, err := inner.Resolve(nc.Rel, nc.Name); err != nil || got != idx {
				return nil, false
			}
			return nc, true
		})
		if !ok {
			return nil, false
		}
		return sinkThrough(rw, t, &t.In)
	case *Project:
		if t.Srcs == nil || t.HasTconf {
			return nil, false
		}
		// Substitute each output column by its source expression; only
		// plain pass-through column references are substituted, so the
		// predicate stays a cheap column predicate below the projection.
		rw, ok := rewriteColRefs(pred, func(cr sql.ColRef) (sql.Expr, bool) {
			idx, err := t.sch.Resolve(cr.Rel, cr.Name)
			if err != nil {
				return nil, false
			}
			src, isCol := t.Srcs[idx].(sql.ColRef)
			if !isCol {
				return nil, false
			}
			return src, true
		})
		if !ok {
			return nil, false
		}
		return sinkThrough(rw, t, &t.In)
	case *Product:
		return sinkJoinSide(pred, t, t.L, t.R, func(l Node) { t.L = l }, func(r Node) { t.R = r })
	case *HashJoin:
		return sinkJoinSide(pred, t, t.L, t.R, func(l Node) { t.L = l }, func(r Node) { t.R = r })
	}
	return nil, false
}

// sinkThrough places pred below single-input node t (whose input slot
// is *in), descending further when possible.
func sinkThrough(pred sql.Expr, t Node, in *Node) (Node, bool) {
	if nn, ok := sink(pred, *in); ok {
		*in = nn
		return t, true
	}
	if f, ok := wrapFilter(pred, *in); ok {
		*in = f
		return t, true
	}
	return nil, false
}

// sinkJoinSide routes pred to whichever join input covers all of its
// column references. Resolution against the join's output schema plus
// a per-side round-trip check guarantees each reference binds to the
// same underlying column after the move.
func sinkJoinSide(pred sql.Expr, join Node, l, r Node, setL, setR func(Node)) (Node, bool) {
	var refs []sql.ColRef
	if !collectColRefs(pred, &refs) || len(refs) == 0 {
		return nil, false
	}
	sch := join.Sch()
	llen := l.Sch().Len()
	side := 0 // -1 left, 1 right
	for _, cr := range refs {
		gi, err := sch.Resolve(cr.Rel, cr.Name)
		if err != nil {
			return nil, false
		}
		s := -1
		if gi >= llen {
			s = 1
		}
		if side == 0 {
			side = s
		} else if side != s {
			return nil, false
		}
		if s < 0 {
			if got, err := l.Sch().Resolve(cr.Rel, cr.Name); err != nil || got != gi {
				return nil, false
			}
		} else {
			if got, err := r.Sch().Resolve(cr.Rel, cr.Name); err != nil || got != gi-llen {
				return nil, false
			}
		}
	}
	target, set := l, setL
	if side > 0 {
		target, set = r, setR
	}
	if nn, ok := sink(pred, target); ok {
		set(nn)
		return join, true
	}
	if f, ok := wrapFilter(pred, target); ok {
		set(f)
		return join, true
	}
	return nil, false
}

// wrapFilter compiles pred against n's schema and wraps n, marking the
// filter as optimizer-placed for EXPLAIN.
func wrapFilter(pred sql.Expr, n Node) (Node, bool) {
	c, err := Compile(pred, n.Sch())
	if err != nil {
		return nil, false
	}
	return &Filter{In: n, Pred: c, Src: pred, Pushed: true}, true
}

// ---------------------------------------------------------------------------
// Pass 2: product → hash join.

// joinConvWalk converts Filter(l.c = r.c)(Product) into a HashJoin and
// folds further equality filters into an existing join's key list.
// The conversion is restricted to key columns of identical primitive
// kind (INT, TEXT, BOOLEAN): the filter compares with SQL `=`
// semantics (numeric coercion across int/float, -0.0 = 0.0) while the
// hash join compares canonical key strings, and the two only coincide
// on exactly-representable kinds. Emission order is preserved: a hash
// join emits, per left row, its matches in right scan order — the same
// subsequence the filtered product produced.
func joinConvWalk(n Node) Node {
	replaceChildren(n, joinConvWalk)
	f, ok := n.(*Filter)
	if !ok || f.Src == nil {
		return n
	}
	bin, ok := f.Src.(*sql.Binary)
	if !ok || bin.Op != "=" {
		return n
	}
	switch in := f.In.(type) {
	case *Product:
		li, ri, ok := equiJoinKeys(bin, in.L.Sch(), in.R.Sch())
		if !ok || !hashableKeyPair(in.L.Sch(), li, in.R.Sch(), ri) {
			return n
		}
		return &HashJoin{L: in.L, R: in.R, LKeys: []int{li}, RKeys: []int{ri}, sch: in.sch}
	case *HashJoin:
		li, ri, ok := equiJoinKeys(bin, in.L.Sch(), in.R.Sch())
		if !ok || !hashableKeyPair(in.L.Sch(), li, in.R.Sch(), ri) {
			return n
		}
		in.LKeys = append(in.LKeys, li)
		in.RKeys = append(in.RKeys, ri)
		return in
	}
	return n
}

// hashableKeyPair reports whether an equality on these two columns may
// be evaluated by canonical-key hashing instead of SQL `=`.
func hashableKeyPair(ls *schema.Schema, li int, rs *schema.Schema, ri int) bool {
	lk, rk := ls.Cols[li].Kind, rs.Cols[ri].Kind
	if lk != rk {
		return false
	}
	switch lk {
	case types.KindInt, types.KindText, types.KindBool:
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Pass 3: greedy join reordering.

// regionLeaf is one input of a contiguous Product/HashJoin region.
type regionLeaf struct {
	node  Node
	set   func(Node) // writes a replacement back into the original tree
	start int        // global column offset of this leaf's schema
}

type regionEdge struct {
	a, b int // global column indexes of an equi-join key pair
}

func isJoin(n Node) bool {
	switch n.(type) {
	case *Product, *HashJoin:
		return true
	}
	return false
}

func (o *optimizer) reorderWalk(n Node) Node {
	if isJoin(n) {
		return o.reorderRegion(n)
	}
	replaceChildren(n, o.reorderWalk)
	return n
}

// gatherRegion flattens a join region into its leaves and equi-join
// edges, with every key translated to a global column index over the
// in-order concatenation of the leaf schemas.
func gatherRegion(n Node, base int, leaves *[]regionLeaf, edges *[]regionEdge, set func(Node)) int {
	switch t := n.(type) {
	case *Product:
		lw := gatherRegion(t.L, base, leaves, edges, func(x Node) { t.L = x })
		rw := gatherRegion(t.R, base+lw, leaves, edges, func(x Node) { t.R = x })
		return lw + rw
	case *HashJoin:
		lw := gatherRegion(t.L, base, leaves, edges, func(x Node) { t.L = x })
		rw := gatherRegion(t.R, base+lw, leaves, edges, func(x Node) { t.R = x })
		for i := range t.LKeys {
			*edges = append(*edges, regionEdge{a: base + t.LKeys[i], b: base + lw + t.RKeys[i]})
		}
		return lw + rw
	default:
		*leaves = append(*leaves, regionLeaf{node: n, set: set, start: base})
		return n.Sch().Len()
	}
}

// simpleChain reports whether a leaf is a plain scan pipeline —
// Scan, optionally under movable Filters, Renames — with no construct
// that could allocate world-set variables or hide evaluation state.
// Only such leaves may be reordered.
func simpleChain(n Node) bool {
	switch t := n.(type) {
	case *Scan:
		return true
	case *Filter:
		return t.Src != nil && !exprHasSubquery(t.Src) && simpleChain(t.In)
	case *Rename:
		return simpleChain(t.In)
	default:
		return false
	}
}

func (o *optimizer) reorderRegion(root Node) Node {
	var leaves []regionLeaf
	var edges []regionEdge
	totalCols := gatherRegion(root, 0, &leaves, &edges, nil)

	// Optimize inside each leaf first (nested regions live under
	// subquery plans).
	for i := range leaves {
		nn := o.reorderWalk(leaves[i].node)
		if nn != leaves[i].node && leaves[i].set != nil {
			leaves[i].set(nn)
		}
		leaves[i].node = nn
	}

	if len(leaves) < 3 {
		return root
	}
	for i := range leaves {
		if !simpleChain(leaves[i].node) {
			return root
		}
	}

	ests := make([]int64, len(leaves))
	for i := range leaves {
		ests[i] = o.est(leaves[i].node)
	}

	perm := greedyOrder(leaves, edges, ests)
	identity := true
	for i, p := range perm {
		if p != i {
			identity = false
			break
		}
	}
	if identity {
		return root
	}

	oldCost, _ := orderCost(leaves, edges, ests, identityPerm(len(leaves)))
	newCost, finalEst := orderCost(leaves, edges, ests, perm)
	// Adopt only on a clear win: the restored-order sort costs about
	// one pass over the output, and estimates are rough.
	if newCost+finalEst >= oldCost*4/5 {
		return root
	}
	return o.rebuildRegion(root, leaves, edges, ests, perm, totalCols)
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// leafIndexOfCol maps a global column index to its leaf.
func leafIndexOfCol(leaves []regionLeaf, g int) int {
	for i := len(leaves) - 1; i >= 0; i-- {
		if g >= leaves[i].start {
			return i
		}
	}
	return 0
}

// greedyOrder picks the smallest-estimate leaf first, then repeatedly
// the smallest leaf connected to the chosen set by an equi-join edge
// (falling back to the smallest remaining leaf when nothing connects —
// a cross product). Ties break on the original ordinal, keeping the
// choice deterministic.
func greedyOrder(leaves []regionLeaf, edges []regionEdge, ests []int64) []int {
	n := len(leaves)
	chosen := make([]bool, n)
	perm := make([]int, 0, n)
	adj := make([][]int, n)
	for _, e := range edges {
		la, lb := leafIndexOfCol(leaves, e.a), leafIndexOfCol(leaves, e.b)
		adj[la] = append(adj[la], lb)
		adj[lb] = append(adj[lb], la)
	}
	pickMin := func(eligible func(int) bool) int {
		best := -1
		for i := 0; i < n; i++ {
			if chosen[i] || !eligible(i) {
				continue
			}
			if best < 0 || ests[i] < ests[best] {
				best = i
			}
		}
		return best
	}
	connected := func(i int) bool {
		for _, j := range adj[i] {
			if chosen[j] {
				return true
			}
		}
		return false
	}
	first := pickMin(func(int) bool { return true })
	chosen[first] = true
	perm = append(perm, first)
	for len(perm) < n {
		next := pickMin(connected)
		if next < 0 {
			next = pickMin(func(int) bool { return true })
		}
		chosen[next] = true
		perm = append(perm, next)
	}
	return perm
}

// orderCost sums the estimated sizes of every intermediate join result
// for the given leaf order, returning the total and the final result
// estimate.
func orderCost(leaves []regionLeaf, edges []regionEdge, ests []int64, perm []int) (cost, final int64) {
	in := make(map[int]bool, len(perm))
	in[perm[0]] = true
	cur := ests[perm[0]]
	for k := 1; k < len(perm); k++ {
		next := perm[k]
		hasEdge := false
		for _, e := range edges {
			la, lb := leafIndexOfCol(leaves, e.a), leafIndexOfCol(leaves, e.b)
			if (in[la] && lb == next) || (in[lb] && la == next) {
				hasEdge = true
				break
			}
		}
		if hasEdge {
			cur = minInt64(cur, ests[next])
		} else {
			cur = satMul(cur, ests[next])
		}
		cost = satAdd(cost, cur)
		in[next] = true
	}
	return cost, cur
}

// rebuildRegion assembles the reordered left-deep join tree with
// Number-tagged leaves, a restoring Sort on the position columns in
// original leaf order, and a Remap back to the original schema.
func (o *optimizer) rebuildRegion(root Node, leaves []regionLeaf, edges []regionEdge, ests []int64, perm []int, totalCols int) Node {
	// Global id space: original columns keep their index; leaf i's
	// position column gets id totalCols+i.
	posID := func(leaf int) int { return totalCols + leaf }
	wrapped := make([]*Number, len(leaves))
	for i := range leaves {
		wrapped[i] = o.number(leaves[i].node)
	}
	leafGlobals := func(i int) []int {
		w := leaves[i].node.Sch().Len()
		g := make([]int, 0, w+1)
		for c := 0; c < w; c++ {
			g = append(g, leaves[i].start+c)
		}
		return append(g, posID(i))
	}

	used := make([]bool, len(edges))
	cur := Node(wrapped[perm[0]])
	curGlobals := leafGlobals(perm[0])
	curEst := ests[perm[0]]
	inSet := map[int]bool{perm[0]: true}
	posOf := func(globals []int, g int) int {
		for i, x := range globals {
			if x == g {
				return i
			}
		}
		return -1
	}
	for k := 1; k < len(perm); k++ {
		next := perm[k]
		nextG := leafGlobals(next)
		var lk, rk []int
		for ei, e := range edges {
			if used[ei] {
				continue
			}
			la, lb := leafIndexOfCol(leaves, e.a), leafIndexOfCol(leaves, e.b)
			var setCol, nextCol int
			switch {
			case inSet[la] && lb == next:
				setCol, nextCol = e.a, e.b
			case inSet[lb] && la == next:
				setCol, nextCol = e.b, e.a
			default:
				continue
			}
			used[ei] = true
			lk = append(lk, posOf(curGlobals, setCol))
			rk = append(rk, nextCol-leaves[next].start)
		}
		joined := cur.Sch().Concat(wrapped[next].Sch())
		if len(lk) > 0 {
			nextEst := ests[next]
			cur = &HashJoin{
				L: cur, R: wrapped[next], LKeys: lk, RKeys: rk, sch: joined,
				LEst: curEst, REst: nextEst, BuildLeft: curEst < nextEst,
			}
			curEst = minInt64(curEst, nextEst)
		} else {
			cur = &Product{L: cur, R: wrapped[next], sch: joined}
			curEst = satMul(curEst, ests[next])
		}
		curGlobals = append(curGlobals, nextG...)
		inSet[next] = true
	}

	// Restore the original emission order: a left-deep join tree emits
	// rows lexicographically by leaf row position in leaf order, so
	// sorting the reordered output on the position columns in the
	// ORIGINAL leaf order reproduces it exactly (position combinations
	// are unique, so the sort is total).
	keys := make([]*Compiled, len(leaves))
	desc := make([]bool, len(leaves))
	for i := range leaves {
		keys[i] = colRefCompiled(cur.Sch(), posOf(curGlobals, posID(i)))
	}
	var out Node = &Sort{In: cur, Keys: keys, Desc: desc}

	// Strip position columns and restore the original column order.
	cols := make([]int, totalCols)
	for g := 0; g < totalCols; g++ {
		cols[g] = posOf(curGlobals, g)
	}
	return &Remap{In: out, Cols: cols, sch: root.Sch()}
}

// ---------------------------------------------------------------------------
// Pass 4: estimates, build-side selection.

// stamp walks the tree bottom-up recording scan estimates and, for
// every hash join, the per-side estimates the executor uses to choose
// the build side and pre-size the build map.
func (o *optimizer) stamp(n Node) {
	for _, c := range Children(n) {
		o.stamp(c)
	}
	switch t := n.(type) {
	case *Scan:
		if o.opts.Est != nil {
			t.EstRows = o.tableRows(t.Table)
		}
	case *HashJoin:
		if o.opts.Est != nil && t.LEst == 0 && t.REst == 0 {
			t.LEst = o.est(t.L)
			t.REst = o.est(t.R)
			t.BuildLeft = t.LEst > 0 && t.REst > 0 && t.LEst < t.REst
		}
	}
}

func (o *optimizer) tableRows(name string) int64 {
	if o.tblRows == nil {
		o.tblRows = map[string]int64{}
	}
	if v, ok := o.tblRows[name]; ok {
		return v
	}
	var v int64
	if rows, err := o.opts.Est.TableLen(name); err == nil {
		v = int64(rows)
		if v < 1 {
			v = 1
		}
	}
	o.tblRows[name] = v
	return v
}

// est is the heuristic cardinality model: table length at the leaves,
// textbook selectivities for filters, min-input for equi-joins.
func (o *optimizer) est(n Node) int64 {
	switch t := n.(type) {
	case *Scan:
		if t.EstRows > 0 {
			return t.EstRows
		}
		if o.opts.Est != nil {
			return o.tableRows(t.Table)
		}
		return 1000
	case *Dual:
		return 1
	case *Filter:
		v := o.est(t.In)
		num, den := selectivity(t.Src)
		v = v * num / den
		if v < 1 {
			v = 1
		}
		return v
	case *Rename:
		return o.est(t.In)
	case *Number:
		return o.est(t.In)
	case *Remap:
		return o.est(t.In)
	case *Project:
		return o.est(t.In)
	case *Sort:
		return o.est(t.In)
	case *SemiJoinIn:
		return o.est(t.In)
	case *Limit:
		v := o.est(t.In)
		lim := int64(t.N) + int64(t.Offset)
		if lim >= 0 && lim < v {
			v = lim
		}
		if v < 1 {
			v = 1
		}
		return v
	case *HashJoin:
		return minInt64(o.est(t.L), o.est(t.R))
	case *Product:
		return satMul(o.est(t.L), o.est(t.R))
	case *UnionAll:
		return satAdd(o.est(t.L), o.est(t.R))
	case *Distinct:
		return o.est(t.In)
	case *Possible:
		return o.est(t.In)
	case *Aggregate:
		v := o.est(t.In) / 10
		if v < 1 {
			v = 1
		}
		return v
	case *RepairKey:
		return o.est(t.In)
	case *PickTuples:
		return o.est(t.In)
	default:
		return 1000
	}
}

// selectivity returns the estimated pass fraction of a predicate as a
// num/den pair: equality 1/10, range 2/5, everything else 1/2.
func selectivity(src sql.Expr) (num, den int64) {
	switch e := src.(type) {
	case *sql.Binary:
		switch e.Op {
		case "=":
			return 1, 10
		case "<", "<=", ">", ">=":
			return 2, 5
		case "and":
			n1, d1 := selectivity(e.L)
			n2, d2 := selectivity(e.R)
			return n1 * n2, d1 * d2
		}
	case *sql.Between:
		return 2, 5
	}
	return 1, 2
}

const estCap = int64(1) << 40

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func satAdd(a, b int64) int64 {
	if a+b > estCap || a+b < 0 {
		return estCap
	}
	return a + b
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > estCap/b {
		return estCap
	}
	return a * b
}

// ---------------------------------------------------------------------------
// Cacheability.

// Cacheable reports whether a plan may be stored in the normalized
// plan cache and re-executed concurrently: every compiled expression
// must be shareable (subquery expressions memoise state and are not),
// and the uncertainty-introducing operators must be absent (they
// allocate fresh world-set variables on every run).
func Cacheable(n Node) bool {
	if n == nil {
		return true
	}
	switch t := n.(type) {
	case *RepairKey, *PickTuples:
		return false
	case *Filter:
		if !compiledShareable(t.Pred) {
			return false
		}
	case *SemiJoinIn:
		if !compiledShareable(t.Expr) {
			return false
		}
	case *Project:
		for _, it := range t.Items {
			if it.Expr != nil && !compiledShareable(it.Expr) {
				return false
			}
		}
	case *Aggregate:
		for _, g := range t.GroupBy {
			if !compiledShareable(g) {
				return false
			}
		}
		for _, a := range t.Aggs {
			if !compiledShareable(a.Arg) || !compiledShareable(a.Arg2) {
				return false
			}
		}
		for _, it := range t.Items {
			if !compiledShareable(it) {
				return false
			}
		}
		if !compiledShareable(t.Having) {
			return false
		}
	case *Sort:
		for _, k := range t.Keys {
			if !compiledShareable(k) {
				return false
			}
		}
	}
	for _, c := range Children(n) {
		if !Cacheable(c) {
			return false
		}
	}
	return true
}

func compiledShareable(c *Compiled) bool { return c == nil || c.Shareable() }
