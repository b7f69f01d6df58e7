package db

// EXPLAIN ANALYZE and the traced-execution entry points. Tracing rides
// the per-statement executor: a read attaches the Trace to the
// snapshot's forked executor (private to the statement by
// construction), a statement inside a transaction attaches it to the
// transaction's executor and detaches before the statement returns, so
// an untraced statement never observes another statement's tracer.

import (
	"fmt"
	"io"
	"strings"
	"time"

	"maybms/internal/exec"
	"maybms/internal/exec/live"
	"maybms/internal/exec/trace"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/types"
	"maybms/internal/urel"
)

// planner abstracts the two statement-planning scopes — a read
// snapshot and a transaction's private view — so the EXPLAIN paths
// route through the plan cache and optimizer exactly like real
// execution, and can report the cache outcome the query itself would
// have had.
type planner interface {
	// planFor plans q (see Snapshot.planFor); queries that introduce
	// uncertainty plan fine and simply bypass the cache.
	planFor(q sql.Query) (plan.Node, []types.Value, string, bool, error)
}

// cacheLine renders the plan-cache outcome appended to both EXPLAIN
// flavours' outlines.
func cacheLine(fp string, hit bool) string {
	switch {
	case fp == "":
		return "plan cache: bypass (not cacheable)\n"
	case hit:
		return "plan cache: hit\n"
	default:
		return "plan cache: miss\n"
	}
}

// planResult renders multi-line explain text as the single-TEXT-column
// "plan" relation both EXPLAIN flavours return.
func planResult(text string) *Result {
	out := urel.New(schema.New(schema.Column{Name: "plan", Kind: types.KindText}))
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		out.Append(urel.Tuple{Data: schema.Tuple{types.NewText(line)}})
	}
	return &Result{Rel: out}
}

// runExplain runs an EXPLAIN statement planned by p: ANALYZE executes
// the query on ex, which must execute against p's state.
func runExplain(s *sql.ExplainStmt, p planner, ex *exec.Executor, tr *trace.Trace, lq *LiveQuery) (*Result, plan.Node, error) {
	if !s.Analyze {
		res, err := explain(s, p)
		return res, nil, err
	}
	if tr == nil {
		tr = trace.New()
	}
	return explainAnalyze(s, p, ex, tr, lq)
}

// result wraps a drained query result as a statement Result.
func result(rel *urel.Rel, n plan.Node, err error) (*Result, plan.Node, error) {
	if err != nil {
		return nil, n, err
	}
	return &Result{Rel: rel}, n, nil
}

// explainAnalyze executes s.Query for real on ex — rows are drained
// and discarded, so result semantics (world-set allocation in the
// statement's overlay, sampling effort, everything) are byte-identical
// to running the query — and renders the plan outline annotated with
// the recorded per-operator stats. p must be the planning scope ex
// executes against. Like EXPLAIN, it leaves the plan cache as the
// query itself would: a cached shape stays cached with the same plan.
// lq (when non-nil) receives the plan root for live introspection.
func explainAnalyze(s *sql.ExplainStmt, p planner, ex *exec.Executor, tr *trace.Trace, lq *LiveQuery) (*Result, plan.Node, error) {
	n, args, fp, hit, err := p.planFor(s.Query)
	if err != nil {
		return nil, nil, err
	}
	lq.setRoot(n)
	ex.Tracer = tr
	ex.Args = args
	defer func() { ex.Tracer, ex.Args = nil, nil }()
	start := time.Now()
	it, err := ex.Open(n)
	if err != nil {
		return nil, nil, err
	}
	rows, err := drainDiscard(it)
	if err != nil {
		return nil, nil, err
	}
	return planResult(tr.Render(n, time.Since(start), rows) + cacheLine(fp, hit)), n, nil
}

// drainDiscard exhausts an iterator counting rows without keeping
// them.
func drainDiscard(it urel.Iterator) (int64, error) {
	var rows int64
	for {
		b, err := it.Next()
		if err == io.EOF {
			return rows, it.Close()
		}
		if err != nil {
			it.Close()
			return rows, err
		}
		rows += int64(len(b.Tuples))
	}
}

// QueryMeta carries request context into the live-query registry.
// Zero values are fine everywhere: an empty ID derives from the trace
// (or is generated), an empty SQL falls back to a statement-kind
// placeholder, and an empty Session marks an embedded caller.
type QueryMeta struct {
	// ID is the query id for the registry; defaults to the trace id.
	ID string
	// SQL is the statement's source text, shown by SHOW/\queries.
	SQL string
	// Session is the owning session token (network server).
	Session string
	// Txn, when non-nil, executes the statement inside that open
	// transaction (the network server's per-session transactions).
	// When nil, the statement uses the embedded default-transaction
	// slot if BEGIN opened one, else runs standalone.
	Txn *Txn
}

// stmtText renders a registry placeholder for statements whose source
// text the entry point did not have.
func stmtText(s sql.Statement) string {
	if s == nil {
		return "<statement>"
	}
	return fmt.Sprintf("<%T>", s)
}

// registerStatement enters s into the live-query registry, minting an
// always-on trace when live tracing is enabled and the caller did not
// bring one. Returns the registry entry (nil only if the registry is)
// and the trace to attach (which may still be nil with live tracing
// off). Called before any statement lock is taken.
func (d *Database) registerStatement(s sql.Statement, tr *trace.Trace, meta QueryMeta, txnID int64) (*LiveQuery, *trace.Trace) {
	id := meta.ID
	if tr != nil && tr.ID != "" {
		id = tr.ID
	}
	if id == "" {
		id = trace.NewID()
	}
	if tr == nil && d.liveTrace.Load() {
		// The trace's node map is created lazily on first operator
		// wrap; an unused always-on trace costs one allocation.
		tr = &trace.Trace{ID: id}
	}
	text := strings.TrimSpace(meta.SQL)
	if text == "" {
		text = stmtText(s)
	}
	flag := &live.Flag{}
	q := d.reg.register(id, text, meta.Session, d.EngineName(), d.Parallelism(), txnID, tr, flag)
	return q, tr
}

// RunStatementTraced is RunStatement with tr attached to the
// statement's executor: every operator the statement opens records
// into tr. The returned plan node is the query's root when the
// statement has one (query and explain statements), for rendering the
// analyzed tree; nil for DDL/DML/transaction control, whose nested
// queries are still traced.
func (d *Database) RunStatementTraced(s sql.Statement, tr *trace.Trace) (*Result, plan.Node, error) {
	return d.RunStatementMeta(s, tr, QueryMeta{})
}

// RunStatementMeta is the statement entry point: it registers the
// statement in the live-query registry (making it visible to
// SHOW/KILL, arming the statement timeout, attaching the always-on
// trace and the cooperative cancellation flag) and then executes it.
// Read-only statements outside a transaction run against a
// point-in-time snapshot with no lock held; statements inside a
// transaction (QueryMeta.Txn, or the embedded BEGIN slot) run against
// the transaction's private view under its own mutex; every other
// write-classified statement runs as an implicit single-statement
// transaction committed under the exclusive lock, making each
// statement all-or-nothing.
func (d *Database) RunStatementMeta(s sql.Statement, tr *trace.Trace, meta QueryMeta) (*Result, plan.Node, error) {
	// Transaction control first: BEGIN/COMMIT/ROLLBACK manage the
	// embedded default-transaction slot rather than execute inside one.
	// (The network server intercepts these per session and never sends
	// them here.)
	switch s.(type) {
	case *sql.Begin, *sql.Commit, *sql.Rollback:
		res, err := d.txnControl(s)
		return res, nil, err
	}
	txn := meta.Txn
	if txn == nil {
		txn = d.peekDefaultTxn()
	}
	if txn != nil {
		lq, tr := d.registerStatement(s, tr, meta, txn.ID())
		defer d.reg.finish(lq)
		txn.mu.Lock()
		defer txn.mu.Unlock()
		return txn.runStatement(s, tr, lq)
	}
	lq, tr := d.registerStatement(s, tr, meta, 0)
	defer d.reg.finish(lq)
	if sql.ReadOnly(s) {
		snap := d.SnapshotFor(s)
		defer snap.Close()
		snap.exec.Tracer = tr
		snap.exec.Cancel = lq.Flag()
		if q, ok := s.(*sql.QueryStmt); ok {
			return result(snap.queryPlanned(q.Query, lq))
		}
		return runExplain(s.(*sql.ExplainStmt), snap, snap.exec, tr, lq)
	}
	// Autocommit write: an implicit transaction built, run, and
	// committed under one continuous exclusive-lock hold. Validation is
	// skipped (nothing can interleave) and a failed statement's partial
	// effects die with the overlay.
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.beginLocked(true)
	t.mu.Lock()
	defer t.mu.Unlock()
	res, n, err := t.runStatement(s, tr, lq)
	if err != nil {
		t.done = true
		t.release()
		return nil, n, err
	}
	if cerr := t.commitLocked(); cerr != nil {
		return nil, n, cerr
	}
	return res, n, nil
}
