package db

import (
	"fmt"
	"io"

	"maybms/internal/exec/trace"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/sql"
	"maybms/internal/urel"
)

// Cursor is a streaming query result: batches are pulled on demand and
// the full result is never materialised (except behind pipeline
// breakers). A cursor outside a transaction streams from a
// point-in-time Snapshot of the database, so it holds no engine lock:
// writers proceed freely while the cursor is open, other statements —
// reads or writes — may run on the same goroutine mid-iteration, and
// the batches keep observing the state as of OpenQuery. The price is
// memory, not concurrency: the snapshot keeps the frozen rows
// reachable until Close, and diverges from live storage only when a
// writer mutates shared rows (copy-on-write). Close is idempotent and
// is called automatically when Next returns io.EOF or an error;
// still, defer Close on every other path so the snapshot (and its
// gauge slot) is released promptly. A Cursor is not safe for
// concurrent use.
type Cursor struct {
	it      urel.Iterator
	sch     *schema.Schema
	certain bool
	snap    *Snapshot
	closed  bool
	// done deregisters the stream from the live-query registry; set on
	// the streaming read path, where the query stays listed (and
	// killable) for as long as the cursor is open.
	done func()
}

// OpenQuery opens a streaming cursor over a single query statement.
// The query streams from a snapshot captured under a momentary read
// lock; the cursor itself holds no lock. A query with repair-key or
// pick-tuples allocates its world-set variables in the snapshot's
// private overlay, which lives as long as the cursor.
func (d *Database) OpenQuery(src string) (*Cursor, error) {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("db: a streaming query must be a single statement, got %d", len(stmts))
	}
	qs, ok := stmts[0].(*sql.QueryStmt)
	if !ok {
		return nil, fmt.Errorf("db: a streaming query must be a query statement")
	}
	return d.OpenQueryStmt(qs)
}

// OpenQueryStmt is OpenQuery over an already-parsed statement, for
// frontends that parse and classify the script themselves (the
// network server's streaming endpoint).
func (d *Database) OpenQueryStmt(qs *sql.QueryStmt) (*Cursor, error) {
	c, _, err := d.OpenQueryStmtTraced(qs, nil)
	return c, err
}

// OpenQueryStmtTraced is OpenQueryStmt with tr (when non-nil) attached
// to the cursor's executor, so every batch the cursor pulls records
// per-operator stats. It also returns the plan root for rendering the
// analyzed tree once the stream ends.
func (d *Database) OpenQueryStmtTraced(qs *sql.QueryStmt, tr *trace.Trace) (*Cursor, plan.Node, error) {
	return d.OpenQueryStmtMeta(qs, tr, QueryMeta{})
}

// OpenQueryStmtMeta is OpenQueryStmtTraced carrying request context
// into the live-query registry. A streaming read registers for the
// cursor's whole lifetime: it stays visible to SHOW/KILL until Close,
// and a kill mid-stream surfaces as a typed live.Error from Next
// within one batch boundary.
func (d *Database) OpenQueryStmtMeta(qs *sql.QueryStmt, tr *trace.Trace, meta QueryMeta) (*Cursor, plan.Node, error) {
	if meta.Txn != nil || d.peekDefaultTxn() != nil {
		// Queries inside a transaction materialise against the
		// transaction's private view (its snapshot plus its own
		// buffered writes), so the stream cannot outlive the
		// transaction's overlay.
		res, n, err := d.RunStatementMeta(qs, tr, meta)
		if err != nil {
			return nil, n, err
		}
		return NewRelCursor(res.Rel), n, nil
	}
	lq, tr := d.registerStatement(qs, tr, meta, 0)
	snap := d.SnapshotFor(qs)
	snap.exec.Tracer = tr
	snap.exec.Cancel = lq.Flag()
	// Plan through the optimizer and plan cache; the snapshot installs
	// the normalized literal bindings on its executor. (Cursors do not
	// feed trace cardinalities back — the stream outlives this call.)
	n, err := snap.plan(qs.Query)
	if err != nil {
		snap.Close()
		d.reg.finish(lq)
		return nil, nil, err
	}
	lq.setRoot(n)
	it, err := snap.exec.Open(n)
	if err != nil {
		snap.Close()
		d.reg.finish(lq)
		return nil, n, err
	}
	done := func() { d.reg.finish(lq) }
	return &Cursor{it: it, sch: n.Sch(), certain: n.Certain(), snap: snap, done: done}, n, nil
}

// NewRelCursor wraps an already-materialised relation in a cursor (the
// in-transaction fallback, and frontends that stream a stored
// result). No snapshot is held.
func NewRelCursor(rel *urel.Rel) *Cursor {
	return &Cursor{
		it:      urel.NewRelIterator(rel, urel.DefaultBatchSize),
		sch:     rel.Sch,
		certain: rel.IsCertain(),
	}
}

// Sch is the result schema.
func (c *Cursor) Sch() *schema.Schema { return c.sch }

// Certain reports whether the result is statically known t-certain.
// (The materialised path reports certainty of the actual rows; a
// streaming cursor cannot know the future, so a plan that is not
// statically certain streams with per-tuple conditions even if every
// condition turns out empty.)
func (c *Cursor) Certain() bool { return c.certain }

// Next returns the next batch of tuples, or (nil, io.EOF) when the
// result is exhausted. On io.EOF or error the cursor closes itself
// (releasing the snapshot); the batch is owned by the caller.
func (c *Cursor) Next() (*urel.Batch, error) {
	if c.closed {
		return nil, io.EOF
	}
	b, err := c.it.Next()
	if err != nil {
		c.Close()
		return nil, err
	}
	return b, nil
}

// Close releases the cursor's resources and snapshot; idempotent.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	err := c.it.Close()
	if c.snap != nil {
		c.snap.Close()
		c.snap = nil
	}
	if c.done != nil {
		c.done()
		c.done = nil
	}
	return err
}
