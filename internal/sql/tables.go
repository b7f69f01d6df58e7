package sql

import "strings"

// Referenced-table analysis for snapshot scoping. A read-only
// statement executes against a point-in-time snapshot of the
// database; capturing only the tables the statement can actually
// touch means writers stop paying copy-on-write for tables no open
// snapshot reads. The walk must be complete over every query form the
// parser can produce: a missed reference would make a live table
// invisible to the statement. Like the read-only classifier, it is
// therefore conservative — any construct it does not recognise makes
// it report incomplete, and the caller falls back to capturing every
// table.

// StatementTables returns the lower-cased names of every stored table
// statement s can read, and whether the analysis is complete. When
// complete is false the caller must assume the statement may touch any
// table. Names are not checked for existence; unknown names simply
// resolve to "table does not exist" at plan time, exactly as they
// would against a full snapshot.
func StatementTables(s Statement) (names []string, complete bool) {
	set := map[string]bool{}
	switch s := s.(type) {
	case *QueryStmt:
		complete = queryTables(s.Query, set)
	case *ExplainStmt:
		complete = queryTables(s.Query, set)
	default:
		return nil, false
	}
	if !complete {
		return nil, false
	}
	names = make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	return names, true
}

// ReadTables returns the lower-cased names of every stored table whose
// *contents* flow into the effects of statement s — the sources of
// INSERT ... SELECT and CREATE TABLE ... AS, subqueries nested in
// UPDATE/DELETE predicates, and every table a query draws tuples
// from. Write targets themselves are excluded: an INSERT's effect
// depends on what it inserts, not on what the target already holds. Optimistic transactions use this to record
// read dependencies for commit-time validation; like StatementTables
// the analysis is conservative, reporting incomplete for any construct
// it does not recognise.
func ReadTables(s Statement) (names []string, complete bool) {
	set := map[string]bool{}
	switch s := s.(type) {
	case *QueryStmt:
		complete = queryTables(s.Query, set)
	case *ExplainStmt:
		complete = queryTables(s.Query, set)
	case *Insert:
		complete = queryTables(s.Query, set)
		for _, row := range s.Rows {
			for _, e := range row {
				complete = complete && exprTables(e, set)
			}
		}
		delete(set, strings.ToLower(s.Table))
	case *CreateTable:
		complete = queryTables(s.AsQuery, set)
		delete(set, strings.ToLower(s.Name))
	case *Update:
		complete = exprTables(s.Where, set)
		for _, sc := range s.Sets {
			complete = complete && exprTables(sc.Expr, set)
		}
		delete(set, strings.ToLower(s.Table))
	case *Delete:
		complete = exprTables(s.Where, set)
		delete(set, strings.ToLower(s.Table))
	case *DropTable, *Begin, *Commit, *Rollback:
		complete = true
	default:
		return nil, false
	}
	if !complete {
		return nil, false
	}
	names = make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	return names, true
}

// queryTables collects base-table references from a query tree,
// reporting whether every construct was understood.
func queryTables(q Query, set map[string]bool) bool {
	switch q := q.(type) {
	case nil:
		return true
	case *Select:
		for _, f := range q.From {
			if f.Table != "" {
				set[strings.ToLower(f.Table)] = true
			}
			if f.Subquery != nil && !queryTables(f.Subquery, set) {
				return false
			}
		}
		for _, it := range q.Items {
			if !exprTables(it.Expr, set) {
				return false
			}
		}
		if !exprTables(q.Where, set) || !exprTables(q.Having, set) {
			return false
		}
		for _, g := range q.GroupBy {
			if !exprTables(g, set) {
				return false
			}
		}
		for _, o := range q.OrderBy {
			if !exprTables(o.Expr, set) {
				return false
			}
		}
		return true
	case *Union:
		return queryTables(q.Left, set) && queryTables(q.Right, set)
	case *RepairKey:
		return queryTables(q.In, set) && exprTables(q.WeightBy, set)
	case *PickTuples:
		return queryTables(q.From, set) && exprTables(q.Prob, set)
	default:
		return false
	}
}

// exprTables collects base-table references from subqueries nested in
// a scalar expression.
func exprTables(e Expr, set map[string]bool) bool {
	switch e := e.(type) {
	case nil:
		return true
	case ColRef, Lit, Param:
		return true
	case *Unary:
		return exprTables(e.E, set)
	case *Binary:
		return exprTables(e.L, set) && exprTables(e.R, set)
	case *FuncCall:
		for _, a := range e.Args {
			if !exprTables(a, set) {
				return false
			}
		}
		return true
	case *InList:
		if !exprTables(e.E, set) {
			return false
		}
		for _, x := range e.List {
			if !exprTables(x, set) {
				return false
			}
		}
		return true
	case *InSubquery:
		return exprTables(e.E, set) && queryTables(e.Query, set)
	case *Exists:
		return queryTables(e.Query, set)
	case *IsNull:
		return exprTables(e.E, set)
	case *Between:
		return exprTables(e.E, set) && exprTables(e.Lo, set) && exprTables(e.Hi, set)
	case *Cast:
		return exprTables(e.E, set)
	default:
		return false
	}
}
