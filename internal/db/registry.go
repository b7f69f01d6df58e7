package db

// Live query introspection: a process-wide registry of currently
// executing statements. Every statement the database runs — reads,
// writes, cursor streams — registers on entry and deregisters on
// completion, so operators (human or programmatic) can list what the
// engine is doing right now, watch a long query's per-operator row
// counts advance, and kill a runaway. Killing is cooperative: the
// registry flips the statement's live.Flag, and every iterator,
// exchange worker, pipeline breaker, and Monte Carlo sampling loop
// polls it at batch boundaries; the query unwinds through its normal
// error path with a typed live.Error, releasing its snapshot and
// draining its worker gauges like any other failure.

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/events"
	"maybms/internal/exec/live"
	"maybms/internal/exec/trace"
	"maybms/internal/plan"
)

// LiveQuery is one registered statement. Fields written at
// registration are immutable; root is published once planning
// completes so listers can snapshot the operator tree mid-flight.
type LiveQuery struct {
	// ID is the statement's trace id (the X-Maybms-Trace id when the
	// request carried one), shared with the slow-query log so a live
	// row can be joined with its eventual log line.
	ID string
	// SQL is the statement's source text, or a bracketed placeholder
	// when the entry point had no text (embedded parsed statements).
	SQL string
	// Session is the owning session token; empty for embedded callers.
	Session string
	// Engine is the storage engine name ("memory" or "disk").
	Engine string
	// Start is the registration time.
	Start time.Time
	// Parallelism is the executor's degree at registration.
	Parallelism int
	// Txn is the id of the transaction the statement executes inside;
	// zero for autocommit statements.
	Txn int64

	flag *live.Flag
	tr   *trace.Trace
	// root holds the plan.Node published by setRoot; nil until planned.
	root atomic.Value
	// timer arms the statement timeout; nil when timeouts are off.
	timer *time.Timer
	done  atomic.Bool
}

// setRoot publishes the statement's plan root for live snapshots.
func (q *LiveQuery) setRoot(n plan.Node) {
	if q != nil && n != nil {
		q.root.Store(n)
	}
}

// Flag is the statement's cancellation flag (nil receiver safe).
func (q *LiveQuery) Flag() *live.Flag {
	if q == nil {
		return nil
	}
	return q.flag
}

// Trace is the statement's always-on trace; nil when live tracing is
// disabled.
func (q *LiveQuery) Trace() *trace.Trace {
	if q == nil {
		return nil
	}
	return q.tr
}

// QuerySnap is a point-in-time view of one live query, shaped for
// JSON: what /v1/queries and the shell's \queries render.
type QuerySnap struct {
	ID             string    `json:"id"`
	SQL            string    `json:"sql"`
	Session        string    `json:"session,omitempty"`
	Engine         string    `json:"engine"`
	Start          time.Time `json:"start"`
	ElapsedSeconds float64   `json:"elapsed_seconds"`
	Parallelism    int       `json:"parallelism"`
	Txn            int64     `json:"txn,omitempty"`
	Canceled       bool      `json:"canceled,omitempty"`
	// Ops is the live per-operator tree (rows, batches, timings so
	// far); nil until the statement finishes planning, or when live
	// tracing is disabled.
	Ops *trace.OpSnap `json:"ops,omitempty"`
}

// Registry tracks every executing statement. All methods are safe for
// concurrent use; a nil *Registry is inert (every method no-ops), so
// paths that can run before the database finishes construction need no
// guards.
type Registry struct {
	mu      sync.Mutex
	queries map[string]*LiveQuery

	// timeoutNanos is the statement timeout armed at registration;
	// zero disables timeouts.
	timeoutNanos atomic.Int64

	active   atomic.Int64
	killed   atomic.Int64
	timeouts atomic.Int64

	// log receives query lifecycle events (may be nil).
	log *events.Log
}

func newRegistry(log *events.Log) *Registry {
	return &Registry{queries: map[string]*LiveQuery{}, log: log}
}

// SetTimeout sets the statement timeout armed for every subsequent
// registration; zero or negative disables it. Statements already
// running keep the deadline they started with.
func (r *Registry) SetTimeout(d time.Duration) {
	if r == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	r.timeoutNanos.Store(int64(d))
}

// Timeout reports the configured statement timeout.
func (r *Registry) Timeout() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.timeoutNanos.Load())
}

// register enters a statement into the registry and arms its timeout.
// The returned LiveQuery must be finished exactly once (finish is
// idempotent, so deferring it on every path is fine).
func (r *Registry) register(id, sqlText, session, engine string, parallelism int, txn int64, tr *trace.Trace, flag *live.Flag) *LiveQuery {
	if r == nil {
		return nil
	}
	q := &LiveQuery{
		ID:          id,
		SQL:         sqlText,
		Session:     session,
		Engine:      engine,
		Start:       time.Now(),
		Parallelism: parallelism,
		Txn:         txn,
		flag:        flag,
		tr:          tr,
	}
	if d := r.Timeout(); d > 0 {
		q.timer = time.AfterFunc(d, func() {
			if flag.Cancel(&live.Error{ID: id, Reason: live.ReasonTimeout}) {
				r.timeouts.Add(1)
				r.log.Emit(events.Event{Type: events.StatementTimeout, ID: id, Msg: sqlText})
			}
		})
	}
	r.mu.Lock()
	r.queries[id] = q
	r.mu.Unlock()
	r.active.Add(1)
	r.log.Emit(events.Event{Type: events.QueryStart, ID: id, Msg: sqlText})
	return q
}

// finish removes a statement from the registry, disarms its timeout,
// and emits the finish event. Idempotent; nil-safe.
func (r *Registry) finish(q *LiveQuery) {
	if r == nil || q == nil || !q.done.CompareAndSwap(false, true) {
		return
	}
	if q.timer != nil {
		q.timer.Stop()
	}
	r.mu.Lock()
	delete(r.queries, q.ID)
	r.mu.Unlock()
	r.active.Add(-1)
	r.log.Emit(events.Event{
		Type:   events.QueryFinish,
		ID:     q.ID,
		Msg:    q.SQL,
		Millis: float64(time.Since(q.Start)) / float64(time.Millisecond),
	})
}

// Kill cancels the live query with the given id. It reports whether
// the id named a registered query; the kill itself is asynchronous —
// the query observes the flag at its next batch boundary and unwinds
// with a typed live.Error. Killing an already-canceled query is a
// no-op that still reports true.
func (r *Registry) Kill(id string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	q, ok := r.queries[id]
	r.mu.Unlock()
	if !ok {
		return false
	}
	if q.flag.Cancel(&live.Error{ID: id, Reason: live.ReasonKilled}) {
		r.killed.Add(1)
		r.log.Emit(events.Event{
			Type:   events.QueryKill,
			ID:     id,
			Msg:    q.SQL,
			Millis: float64(time.Since(q.Start)) / float64(time.Millisecond),
		})
	}
	return true
}

// List snapshots the registry: every live query, oldest first, with
// its operator tree as of this instant. The per-operator counters are
// atomics the executing workers are actively advancing, so two calls
// mid-query show row counts moving.
func (r *Registry) List() []QuerySnap {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	qs := make([]*LiveQuery, 0, len(r.queries))
	for _, q := range r.queries {
		qs = append(qs, q)
	}
	r.mu.Unlock()
	sort.Slice(qs, func(i, j int) bool {
		if !qs[i].Start.Equal(qs[j].Start) {
			return qs[i].Start.Before(qs[j].Start)
		}
		return qs[i].ID < qs[j].ID
	})
	now := time.Now()
	out := make([]QuerySnap, len(qs))
	for i, q := range qs {
		s := QuerySnap{
			ID:             q.ID,
			SQL:            q.SQL,
			Session:        q.Session,
			Engine:         q.Engine,
			Start:          q.Start,
			ElapsedSeconds: now.Sub(q.Start).Seconds(),
			Parallelism:    q.Parallelism,
			Txn:            q.Txn,
			Canceled:       q.flag.Canceled(),
		}
		if q.tr != nil {
			if n, ok := q.root.Load().(plan.Node); ok {
				snap := q.tr.Snapshot(n)
				s.Ops = &snap
			}
		}
		out[i] = s
	}
	return out
}

// Active gauges currently registered queries.
func (r *Registry) Active() int64 {
	if r == nil {
		return 0
	}
	return r.active.Load()
}

// Killed counts queries canceled via Kill since startup.
func (r *Registry) Killed() int64 {
	if r == nil {
		return 0
	}
	return r.killed.Load()
}

// TimedOut counts statements canceled by the statement timeout.
func (r *Registry) TimedOut() int64 {
	if r == nil {
		return 0
	}
	return r.timeouts.Load()
}
