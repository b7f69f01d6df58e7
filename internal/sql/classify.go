package sql

// Statement classification for concurrency control. The database
// serialises writers behind an exclusive lock but runs reads on a
// point-in-time snapshot. Every query is a read, including one that
// introduces uncertainty: repair-key and pick-tuples allocate world-set
// variables, but a query allocates them in a statement-private overlay
// of the world-set store (Allocates). Only CREATE TABLE ... AS and
// INSERT ... SELECT keep such variables, and those are writes.

// ReadOnly reports whether executing s cannot modify any shared
// database state, so it is safe to run on a snapshot concurrently with
// other statements: every query and every EXPLAIN, with or without
// ANALYZE.
func ReadOnly(s Statement) bool {
	switch s.(type) {
	case *QueryStmt, *ExplainStmt:
		return true
	}
	// DDL, DML, and transaction control are writes.
	return false
}

// Allocates reports whether executing read statement s allocates
// world-set variables: it is a query, or an EXPLAIN ANALYZE, with a
// repair-key or pick-tuples construct anywhere in its tree. Plain
// EXPLAIN only plans, so it never allocates. Writes report false:
// whatever their queries allocate is kept.
func Allocates(s Statement) bool {
	switch s := s.(type) {
	case *QueryStmt:
		return queryAllocates(s.Query)
	case *ExplainStmt:
		return s.Analyze && queryAllocates(s.Query)
	default:
		return false
	}
}

// queryAllocates reports whether evaluating q allocates world-set
// variables, i.e. a repair-key or pick-tuples construct appears
// anywhere in the query tree (including FROM subqueries, union arms,
// and subqueries nested in scalar expressions).
func queryAllocates(q Query) bool {
	switch q := q.(type) {
	case nil:
		return false
	case *Select:
		for _, f := range q.From {
			if f.Subquery != nil && queryAllocates(f.Subquery) {
				return true
			}
		}
		for _, it := range q.Items {
			if exprAllocates(it.Expr) {
				return true
			}
		}
		if exprAllocates(q.Where) || exprAllocates(q.Having) {
			return true
		}
		for _, g := range q.GroupBy {
			if exprAllocates(g) {
				return true
			}
		}
		for _, o := range q.OrderBy {
			if exprAllocates(o.Expr) {
				return true
			}
		}
		return false
	case *Union:
		return queryAllocates(q.Left) || queryAllocates(q.Right)
	default:
		// RepairKey, PickTuples, and unknown query forms, which are
		// conservatively assumed to allocate.
		return true
	}
}

// exprAllocates walks a scalar expression looking for subqueries that
// contain uncertainty-introducing constructs.
func exprAllocates(e Expr) bool {
	switch e := e.(type) {
	case nil, ColRef, Lit, Param:
		return false
	case *Unary:
		return exprAllocates(e.E)
	case *Binary:
		return exprAllocates(e.L) || exprAllocates(e.R)
	case *FuncCall:
		for _, a := range e.Args {
			if exprAllocates(a) {
				return true
			}
		}
		return false
	case *InList:
		if exprAllocates(e.E) {
			return true
		}
		for _, x := range e.List {
			if exprAllocates(x) {
				return true
			}
		}
		return false
	case *InSubquery:
		return exprAllocates(e.E) || queryAllocates(e.Query)
	case *Exists:
		return queryAllocates(e.Query)
	case *IsNull:
		return exprAllocates(e.E)
	case *Between:
		return exprAllocates(e.E) || exprAllocates(e.Lo) || exprAllocates(e.Hi)
	case *Cast:
		return exprAllocates(e.E)
	default:
		return true
	}
}
