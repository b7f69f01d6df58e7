package plan

import (
	"fmt"
	"strings"

	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
)

// Node is a logical operator over U-relations.
type Node interface {
	// Sch is the output schema.
	Sch() *schema.Schema
	// Certain reports whether the output is statically known to be
	// t-certain (condition-free).
	Certain() bool
}

// Scan reads a stored table.
type Scan struct {
	Table   string
	Alias   string
	sch     *schema.Schema
	certain bool
	// EstRows is the optimizer's row estimate for this scan after local
	// filters, or 0 when no estimate was computed.
	EstRows int64
}

func (s *Scan) Sch() *schema.Schema { return s.sch }

// Certain reports whether the scanned table is t-certain.
func (s *Scan) Certain() bool { return s.certain }

// Dual produces a single empty certain tuple (SELECT without FROM).
type Dual struct{}

func (*Dual) Sch() *schema.Schema { return schema.New() }

// Certain always holds for Dual.
func (*Dual) Certain() bool { return true }

// Product is the cross product; conditions of paired tuples are
// conjoined and inconsistent pairs vanish.
type Product struct {
	L, R Node
	sch  *schema.Schema
}

func (p *Product) Sch() *schema.Schema { return p.sch }

// Certain holds when both inputs are certain.
func (p *Product) Certain() bool { return p.L.Certain() && p.R.Certain() }

// HashJoin is an equi-join on the given key columns.
type HashJoin struct {
	L, R         Node
	LKeys, RKeys []int
	sch          *schema.Schema
	// LEst and REst are optimizer row estimates for the two inputs
	// (0 = unknown). The executor uses them to pick the build side and
	// pre-size the build map.
	LEst, REst int64
	// BuildLeft tells the executor to materialise the left input as the
	// build side instead of the right (set when LEst < REst).
	BuildLeft bool
}

func (j *HashJoin) Sch() *schema.Schema { return j.sch }

// Certain holds when both inputs are certain.
func (j *HashJoin) Certain() bool { return j.L.Certain() && j.R.Certain() }

// Filter keeps rows whose predicate evaluates to true. Predicates see
// only data columns, per the positive-RA translation.
type Filter struct {
	In   Node
	Pred *Compiled
	// Src is the source AST of the predicate, kept so the optimizer can
	// re-site the conjunct against a different schema. Nil for filters
	// built outside the standard builder.
	Src sql.Expr
	// Pushed marks a predicate the optimizer moved below its original
	// position; EXPLAIN renders the annotation.
	Pushed bool
}

func (f *Filter) Sch() *schema.Schema { return f.In.Sch() }

// Certain is inherited from the input.
func (f *Filter) Certain() bool { return f.In.Certain() }

// SemiJoinIn implements `expr IN (uncertain subquery)` occurring
// positively: each outer row joins every matching subquery tuple,
// conjoining conditions (multiset semantics; duplicates are later
// merged by conf()).
type SemiJoinIn struct {
	In   Node
	Expr *Compiled // evaluated over In's schema
	Sub  Node      // single-column subquery
}

func (s *SemiJoinIn) Sch() *schema.Schema { return s.In.Sch() }

// Certain never holds: the subquery is uncertain.
func (s *SemiJoinIn) Certain() bool { return false }

// ProjItem is one output column of a projection.
type ProjItem struct {
	Expr    *Compiled
	IsTconf bool // tconf(): the marginal probability of the tuple
}

// Project computes the select list for non-aggregate queries.
// Condition columns are preserved, except when tconf() converts the
// result to a t-certain table of marginals.
type Project struct {
	In       Node
	Items    []ProjItem
	HasTconf bool
	sch      *schema.Schema
	// Srcs holds the source AST of each item, letting the optimizer
	// push filters through the projection. Nil for synthetic
	// projections (aggregate output shaping).
	Srcs []sql.Expr
}

func (p *Project) Sch() *schema.Schema { return p.sch }

// Certain holds when the input is certain or tconf() collapsed the
// conditions into marginals.
func (p *Project) Certain() bool { return p.In.Certain() || p.HasTconf }

// AggKind enumerates aggregate functions.
type AggKind int

// Aggregate kinds.
const (
	AggConf AggKind = iota
	AggAconf
	AggESum
	AggECount
	AggArgmax
	AggSum
	AggCount
	AggCountStar
	AggAvg
	AggMin
	AggMax
)

// AggSpec is one aggregate computation within a group.
type AggSpec struct {
	Kind       AggKind
	Arg        *Compiled // main argument (nil for conf, count(*), ecount())
	Arg2       *Compiled // argmax value argument
	Eps, Delta float64   // aconf parameters
}

// Aggregate groups rows and computes aggregates; the output is always
// t-certain (confidence and expectation aggregates map uncertain
// tables to t-certain tables).
type Aggregate struct {
	In      Node
	GroupBy []*Compiled
	Aggs    []AggSpec
	// Items are the final select expressions over the synthetic
	// schema [g0..gn-1, agg0..aggm-1].
	Items  []*Compiled
	Having *Compiled // over the synthetic schema, nil if absent
	sch    *schema.Schema
	synth  *schema.Schema
}

func (a *Aggregate) Sch() *schema.Schema { return a.sch }

// Synth is the internal schema [group keys..., aggregates...].
func (a *Aggregate) Synth() *schema.Schema { return a.synth }

// Certain always holds: aggregation returns t-certain tables.
func (a *Aggregate) Certain() bool { return true }

// RepairKey turns a t-certain relation into a block-independent
// uncertain one: within each block (group of tuples agreeing on the
// key), exactly one tuple survives, chosen with probability
// proportional to the weight expression.
type RepairKey struct {
	In     Node
	Keys   []int
	Weight *Compiled // nil = uniform
}

func (r *RepairKey) Sch() *schema.Schema { return r.In.Sch() }

// Certain never holds for repair-key output.
func (r *RepairKey) Certain() bool { return false }

// PickTuples maps a t-certain relation to the distribution over all
// its subsets: each tuple survives independently with the given
// probability.
type PickTuples struct {
	In   Node
	Prob *Compiled // nil = 0.5
}

func (p *PickTuples) Sch() *schema.Schema { return p.In.Sch() }

// Certain never holds for pick-tuples output.
func (p *PickTuples) Certain() bool { return false }

// UnionAll is multiset union.
type UnionAll struct {
	L, R Node
	sch  *schema.Schema
}

func (u *UnionAll) Sch() *schema.Schema { return u.sch }

// Certain holds when both inputs are certain.
func (u *UnionAll) Certain() bool { return u.L.Certain() && u.R.Certain() }

// Distinct removes duplicate tuples of a t-certain input.
type Distinct struct{ In Node }

func (d *Distinct) Sch() *schema.Schema { return d.In.Sch() }

// Certain is inherited (planning guarantees certain input).
func (d *Distinct) Certain() bool { return true }

// Possible returns the distinct data tuples possible in at least one
// world — those whose lineage has a satisfiable, positive-probability
// clause — as a t-certain table.
type Possible struct{ In Node }

func (p *Possible) Sch() *schema.Schema { return p.In.Sch() }

// Certain always holds: possible maps uncertain to t-certain.
func (p *Possible) Certain() bool { return true }

// Sort orders rows by the given keys over the output schema.
type Sort struct {
	In   Node
	Keys []*Compiled
	Desc []bool
}

func (s *Sort) Sch() *schema.Schema { return s.In.Sch() }

// Certain is inherited from the input.
func (s *Sort) Certain() bool { return s.In.Certain() }

// Limit skips Offset rows and keeps the next N.
type Limit struct {
	In     Node
	N      int
	Offset int
}

func (l *Limit) Sch() *schema.Schema { return l.In.Sch() }

// Certain is inherited from the input.
func (l *Limit) Certain() bool { return l.In.Certain() }

// Rename relabels the relation qualifier of every column (FROM-clause
// aliasing of subqueries).
type Rename struct {
	In  Node
	sch *schema.Schema
}

func (r *Rename) Sch() *schema.Schema { return r.sch }

// Certain is inherited from the input.
func (r *Rename) Certain() bool { return r.In.Certain() }

// Build plans a query against the catalog.
func Build(q sql.Query, cat Catalog) (Node, error) {
	b := &builder{cat: cat}
	return b.query(q)
}

type builder struct {
	cat Catalog
}

func (b *builder) query(q sql.Query) (Node, error) {
	switch q := q.(type) {
	case *sql.Select:
		return b.selectQ(q)
	case *sql.Union:
		return b.union(q)
	case *sql.RepairKey:
		return b.repairKey(q)
	case *sql.PickTuples:
		return b.pickTuples(q)
	default:
		return nil, fmt.Errorf("plan: unsupported query %T", q)
	}
}

func (b *builder) union(q *sql.Union) (Node, error) {
	l, err := b.query(q.Left)
	if err != nil {
		return nil, err
	}
	r, err := b.query(q.Right)
	if err != nil {
		return nil, err
	}
	ls, rs := l.Sch(), r.Sch()
	if ls.Len() != rs.Len() {
		return nil, fmt.Errorf("plan: UNION arity mismatch: %d vs %d columns", ls.Len(), rs.Len())
	}
	out := ls.Clone()
	for i := range out.Cols {
		lk, rk := ls.Cols[i].Kind, rs.Cols[i].Kind
		switch {
		case lk == rk:
		case lk == types.KindNull:
			out.Cols[i].Kind = rk
		case rk == types.KindNull:
			// keep lk
		case (lk == types.KindInt || lk == types.KindFloat) && (rk == types.KindInt || rk == types.KindFloat):
			out.Cols[i].Kind = types.KindFloat
		default:
			return nil, fmt.Errorf("plan: UNION column %d type mismatch: %s vs %s", i+1, lk, rk)
		}
	}
	var n Node = &UnionAll{L: l, R: r, sch: out}
	if !q.All {
		// Plain UNION deduplicates; MayBMS restricts duplicate
		// elimination to t-certain relations.
		if !l.Certain() || !r.Certain() {
			return nil, fmt.Errorf("plan: UNION (distinct) requires t-certain inputs; use UNION ALL on uncertain relations")
		}
		n = &Distinct{In: n}
	}
	return n, nil
}

func (b *builder) repairKey(q *sql.RepairKey) (Node, error) {
	in, err := b.query(q.In)
	if err != nil {
		return nil, err
	}
	if !in.Certain() {
		return nil, fmt.Errorf("plan: repair key requires a t-certain input query")
	}
	keys := make([]int, len(q.Attrs))
	for i, a := range q.Attrs {
		idx, err := in.Sch().Resolve(a.Rel, a.Name)
		if err != nil {
			return nil, fmt.Errorf("plan: repair key: %v", err)
		}
		keys[i] = idx
	}
	rk := &RepairKey{In: in, Keys: keys}
	if q.WeightBy != nil {
		w, err := compile(q.WeightBy, in.Sch(), b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: repair key weight: %v", err)
		}
		rk.Weight = w
	}
	return rk, nil
}

func (b *builder) pickTuples(q *sql.PickTuples) (Node, error) {
	in, err := b.query(q.From)
	if err != nil {
		return nil, err
	}
	if !in.Certain() {
		return nil, fmt.Errorf("plan: pick tuples requires a t-certain input query")
	}
	pt := &PickTuples{In: in}
	if q.Prob != nil {
		p, err := compile(q.Prob, in.Sch(), b.planSub())
		if err != nil {
			return nil, fmt.Errorf("plan: pick tuples probability: %v", err)
		}
		pt.Prob = p
	}
	return pt, nil
}

// planSub returns the subquery planner hook for expression compilation.
func (b *builder) planSub() func(q sql.Query) (Node, error) {
	return func(q sql.Query) (Node, error) { return b.query(q) }
}

func (b *builder) fromItem(fi sql.FromItem) (Node, error) {
	if fi.Subquery != nil {
		n, err := b.query(fi.Subquery)
		if err != nil {
			return nil, err
		}
		return &Rename{In: n, sch: n.Sch().WithRel(fi.Alias)}, nil
	}
	sch, err := b.cat.TableSchema(fi.Table)
	if err != nil {
		return nil, err
	}
	certain, err := b.cat.TableCertain(fi.Table)
	if err != nil {
		return nil, err
	}
	return &Scan{Table: fi.Table, Alias: fi.Alias, sch: sch.WithRel(fi.Alias), certain: certain}, nil
}

// splitConjuncts flattens nested ANDs.
func splitConjuncts(e sql.Expr) []sql.Expr {
	if bin, ok := e.(*sql.Binary); ok && bin.Op == "and" {
		return append(splitConjuncts(bin.L), splitConjuncts(bin.R)...)
	}
	return []sql.Expr{e}
}

func (b *builder) selectQ(q *sql.Select) (Node, error) {
	// FROM.
	var node Node
	var conjuncts []sql.Expr
	if q.Where != nil {
		conjuncts = splitConjuncts(q.Where)
	}
	used := make([]bool, len(conjuncts))

	if len(q.From) == 0 {
		node = &Dual{}
	} else {
		nodes := make([]Node, len(q.From))
		for i, fi := range q.From {
			n, err := b.fromItem(fi)
			if err != nil {
				return nil, err
			}
			nodes[i] = n
		}
		// Push single-relation predicates down to their scans.
		for i, n := range nodes {
			for j, c := range conjuncts {
				if used[j] || containsAgg(c) || hasUncertainInSub(b, c) {
					continue
				}
				if pred, err := compile(c, n.Sch(), b.planSub()); err == nil {
					nodes[i] = &Filter{In: nodes[i], Pred: pred, Src: c}
					n = nodes[i]
					used[j] = true
					_ = pred
				}
			}
		}
		// Left-deep join in FROM order, turning equality conjuncts
		// into hash-join keys when they straddle the boundary.
		node = nodes[0]
		for i := 1; i < len(nodes); i++ {
			right := nodes[i]
			var lk, rk []int
			for j, c := range conjuncts {
				if used[j] {
					continue
				}
				bin, ok := c.(*sql.Binary)
				if !ok || bin.Op != "=" {
					continue
				}
				li, ri, ok := equiJoinKeys(bin, node.Sch(), right.Sch())
				if !ok {
					continue
				}
				lk = append(lk, li)
				rk = append(rk, ri)
				used[j] = true
			}
			joined := node.Sch().Concat(right.Sch())
			if len(lk) > 0 {
				node = &HashJoin{L: node, R: right, LKeys: lk, RKeys: rk, sch: joined}
			} else {
				node = &Product{L: node, R: right, sch: joined}
			}
			// Attach conjuncts that became evaluable.
			for j, c := range conjuncts {
				if used[j] || containsAgg(c) || hasUncertainInSub(b, c) {
					continue
				}
				if pred, err := compile(c, node.Sch(), b.planSub()); err == nil {
					node = &Filter{In: node, Pred: pred, Src: c}
					used[j] = true
				}
			}
		}
	}
	// Uncertain IN subqueries (positive occurrence only).
	for j, c := range conjuncts {
		if used[j] {
			continue
		}
		if ins, ok := c.(*sql.InSubquery); ok {
			sub, err := b.query(ins.Query)
			if err != nil {
				return nil, err
			}
			if !sub.Certain() {
				if ins.Negate {
					return nil, fmt.Errorf("plan: NOT IN with an uncertain subquery is not supported (must occur positively)")
				}
				if sub.Sch().Len() != 1 {
					return nil, fmt.Errorf("plan: IN subquery must return exactly one column, got %d", sub.Sch().Len())
				}
				expr, err := compile(ins.E, node.Sch(), b.planSub())
				if err != nil {
					return nil, err
				}
				node = &SemiJoinIn{In: node, Expr: expr, Sub: sub}
				used[j] = true
			}
		}
	}
	// Remaining conjuncts must compile now.
	for j, c := range conjuncts {
		if used[j] {
			continue
		}
		if containsAgg(c) {
			return nil, fmt.Errorf("plan: aggregates are not allowed in WHERE")
		}
		pred, err := compile(c, node.Sch(), b.planSub())
		if err != nil {
			return nil, err
		}
		node = &Filter{In: node, Pred: pred, Src: c}
		used[j] = true
	}

	// Expand stars and decide aggregate vs projection.
	items, err := expandStars(q.Items, node.Sch())
	if err != nil {
		return nil, err
	}
	hasAgg := len(q.GroupBy) > 0
	hasTconf := false
	for _, it := range items {
		if it.Expr != nil && sql.IsAggregate(it.Expr) {
			hasAgg = true
		}
		if containsTconf(it.Expr) {
			hasTconf = true
		}
	}
	if q.Having != nil {
		hasAgg = true
	}

	var out Node
	orderHandled := false
	switch {
	case hasTconf:
		if len(q.GroupBy) > 0 {
			return nil, fmt.Errorf("plan: tconf() cannot be combined with GROUP BY; use conf()")
		}
		for _, it := range items {
			if it.Expr != nil && sql.IsAggregate(it.Expr) && !containsTconf(it.Expr) {
				return nil, fmt.Errorf("plan: tconf() cannot be combined with other aggregates")
			}
		}
		out, err = b.buildProject(node, items, true)
	case hasAgg:
		out, err = b.buildAggregate(node, items, q)
		orderHandled = len(q.OrderBy) > 0
	default:
		out, err = b.buildProject(node, items, false)
	}
	if err != nil {
		return nil, err
	}

	if q.Possible {
		if hasAgg || hasTconf {
			return nil, fmt.Errorf("plan: POSSIBLE cannot be combined with aggregates")
		}
		out = &Possible{In: out}
	}
	if q.Distinct {
		if !out.Certain() {
			return nil, fmt.Errorf("plan: SELECT DISTINCT requires a t-certain input; use POSSIBLE or conf() on uncertain relations")
		}
		out = &Distinct{In: out}
	}

	// ORDER BY over the output schema (aliases visible); integer
	// literals are positional references. Aggregate queries may also
	// order by group-by expressions that are not projected; those were
	// handled inside buildAggregate via hidden sort columns.
	if len(q.OrderBy) > 0 && !orderHandled {
		sorted, sortErr := b.buildSort(out, q.OrderBy)
		if sortErr == nil {
			out = sorted
		} else if !hasAgg && !q.Possible && !q.Distinct {
			// Fallback: ORDER BY a column that is not projected —
			// sort the pre-projection input and re-project on top.
			inSorted, err2 := b.buildSort(node, q.OrderBy)
			if err2 != nil {
				return nil, sortErr
			}
			out, err = b.buildProject(inSorted, items, hasTconf)
			if err != nil {
				return nil, err
			}
		} else {
			return nil, sortErr
		}
	}
	if q.Limit >= 0 || q.Offset > 0 {
		n := q.Limit
		if n < 0 {
			n = int(^uint(0) >> 1) // OFFSET without LIMIT
		}
		out = &Limit{In: out, N: n, Offset: q.Offset}
	}
	return out, nil
}

// hasUncertainInSub reports whether the conjunct is an IN over an
// uncertain subquery (which must be planned as a semijoin, not pushed
// down).
func hasUncertainInSub(b *builder, e sql.Expr) bool {
	ins, ok := e.(*sql.InSubquery)
	if !ok {
		return false
	}
	sub, err := b.query(ins.Query)
	return err == nil && !sub.Certain()
}

func containsAgg(e sql.Expr) bool { return e != nil && sql.IsAggregate(e) }

func containsTconf(e sql.Expr) bool {
	switch e := e.(type) {
	case *sql.FuncCall:
		if e.Name == "tconf" {
			return true
		}
		for _, a := range e.Args {
			if containsTconf(a) {
				return true
			}
		}
	case *sql.Unary:
		return containsTconf(e.E)
	case *sql.Binary:
		return containsTconf(e.L) || containsTconf(e.R)
	case *sql.Cast:
		return containsTconf(e.E)
	}
	return false
}

// expandStars replaces * and rel.* with explicit column references.
func expandStars(items []sql.SelectItem, sch *schema.Schema) ([]sql.SelectItem, error) {
	var out []sql.SelectItem
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		matched := false
		for _, c := range sch.Cols {
			if it.Rel != "" && !strings.EqualFold(c.Rel, it.Rel) {
				continue
			}
			matched = true
			out = append(out, sql.SelectItem{Expr: sql.ColRef{Rel: c.Rel, Name: c.Name}, Alias: c.Name})
		}
		if !matched {
			return nil, fmt.Errorf("plan: %s.* matches no columns", it.Rel)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("plan: empty select list")
	}
	return out, nil
}

// itemName picks the output column name for a select item.
func itemName(it sql.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case sql.ColRef:
		return e.Name
	case *sql.FuncCall:
		return e.Name
	}
	return fmt.Sprintf("column%d", i+1)
}

func (b *builder) buildProject(in Node, items []sql.SelectItem, allowTconf bool) (Node, error) {
	p := &Project{In: in, Srcs: make([]sql.Expr, len(items))}
	cols := make([]schema.Column, len(items))
	for i, it := range items {
		p.Srcs[i] = it.Expr
		if fc, ok := it.Expr.(*sql.FuncCall); ok && fc.Name == "tconf" {
			if !allowTconf {
				return nil, fmt.Errorf("plan: tconf() not allowed here")
			}
			if len(fc.Args) != 0 {
				return nil, fmt.Errorf("plan: tconf() takes no arguments")
			}
			p.Items = append(p.Items, ProjItem{IsTconf: true})
			p.HasTconf = true
			cols[i] = schema.Column{Name: itemName(it, i), Kind: types.KindFloat}
			continue
		}
		c, err := compile(it.Expr, in.Sch(), b.planSub())
		if err != nil {
			return nil, err
		}
		p.Items = append(p.Items, ProjItem{Expr: c})
		name := itemName(it, i)
		rel := ""
		if cr, ok := it.Expr.(sql.ColRef); ok && it.Alias == "" {
			rel = cr.Rel
		}
		cols[i] = schema.Column{Rel: rel, Name: name, Kind: c.Kind()}
	}
	p.sch = schema.New(cols...)
	return p, nil
}
