// Package trace records per-operator execution statistics for EXPLAIN
// ANALYZE and the server's slow-query log. A Trace is attached to one
// statement's executor; the executor wraps every iterator it opens in
// a lightweight timing shim keyed by the plan node, so stats survive
// across partition copies of the same operator (an exchange runs one
// fragment iterator per partition — their counters all land on the one
// shared OpStats and sum to the serial totals). Counters are atomics
// because partition workers record concurrently.
//
// Tracing is strictly opt-in: an executor with a nil Tracer takes a
// single pointer check per operator open and allocates nothing — the
// zero-trace hot path is unchanged.
package trace

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maybms/internal/exec/parallel"
	"maybms/internal/plan"
	"maybms/internal/schema"
	"maybms/internal/urel"
)

// OpStats accumulates one operator's execution counters. Wall times
// are inclusive (a parent's Next time contains its children's) and
// cumulative across partition copies, so an operator whose partitions
// ran concurrently can report more operator-time than the query took.
type OpStats struct {
	// RowsOut and Batches count tuples and batches the operator
	// emitted, summed over every partition copy.
	RowsOut atomic.Int64
	Batches atomic.Int64
	// NextNanos is the cumulative wall time spent inside Next,
	// OpenNanos the time to construct the iterator (first pull of a
	// lazy child is Next time), CloseNanos the time inside Close.
	NextNanos  atomic.Int64
	OpenNanos  atomic.Int64
	CloseNanos atomic.Int64

	// maxRelErrBits holds the float bits of the largest achieved
	// relative standard error any aconf() under this operator
	// reported; 0 means none did.
	maxRelErrBits atomic.Uint64

	mu     sync.Mutex
	extras map[string]*atomic.Int64
	order  []string
}

// Counter returns the named extra counter, creating it on first use —
// operator-specific facts like hash-join build rows, exchange
// partition counts, sort merge runs, and aconf sample counts.
func (s *OpStats) Counter(name string) *atomic.Int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.extras == nil {
		s.extras = map[string]*atomic.Int64{}
	}
	c, ok := s.extras[name]
	if !ok {
		c = &atomic.Int64{}
		s.extras[name] = c
		s.order = append(s.order, name)
	}
	return c
}

// ObserveRelErr folds one aconf call's achieved relative standard
// error into the operator's maximum (the worst guarantee any group
// got). Safe for concurrent use; relErr must be non-negative, which
// makes the float-bit comparison order-preserving.
func (s *OpStats) ObserveRelErr(relErr float64) {
	bits := math.Float64bits(relErr)
	for {
		old := s.maxRelErrBits.Load()
		if bits <= old || s.maxRelErrBits.CompareAndSwap(old, bits) {
			return
		}
	}
}

// MaxRelErr reports the largest achieved aconf relative standard
// error recorded, and whether any was.
func (s *OpStats) MaxRelErr() (float64, bool) {
	bits := s.maxRelErrBits.Load()
	if bits == 0 {
		return 0, false
	}
	return math.Float64frombits(bits), true
}

// Extras returns the extra counters in first-recorded order.
func (s *OpStats) Extras() []Extra {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Extra, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, Extra{Name: name, Value: s.extras[name].Load()})
	}
	return out
}

// Extra is one named operator-specific counter value.
type Extra struct {
	Name  string
	Value int64
}

// Trace collects the per-operator stats of one traced statement.
type Trace struct {
	// ID names the trace (the server's X-Maybms-Trace header, or a
	// generated hex id).
	ID string
	// Par mirrors the statement's parallel-execution activity: the
	// same counters the engine-global parallel.Stats aggregates, but
	// scoped to this one statement — the per-query snapshot the
	// engine-global gauges cannot provide.
	Par parallel.Stats

	mu    sync.Mutex
	nodes map[plan.Node]*OpStats
}

// New returns an empty trace with a fresh ID.
func New() *Trace { return &Trace{ID: NewID(), nodes: map[plan.Node]*OpStats{}} }

// NewID returns a random 16-hex-digit trace id.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a fixed
		// id keeps tracing non-fatal.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Node returns n's stats, creating them on first use. Plan nodes are
// pointer-unique within a statement, so the node is the key.
func (t *Trace) Node(n plan.Node) *OpStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes == nil {
		t.nodes = map[plan.Node]*OpStats{}
	}
	s, ok := t.nodes[n]
	if !ok {
		s = &OpStats{}
		t.nodes[n] = s
	}
	return s
}

// Lookup returns n's stats if the node executed, without creating.
func (t *Trace) Lookup(n plan.Node) (*OpStats, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.nodes[n]
	return s, ok
}

// Wrap returns it shimmed to record into n's stats. The shim adds two
// atomic adds and one clock read per batch — negligible against batch
// processing — and is only ever constructed when a Trace is attached.
func (t *Trace) Wrap(n plan.Node, it urel.Iterator) urel.Iterator {
	return &tracedIter{in: it, st: t.Node(n)}
}

type tracedIter struct {
	in urel.Iterator
	st *OpStats
}

func (t *tracedIter) Sch() *schema.Schema { return t.in.Sch() }

func (t *tracedIter) Next() (*urel.Batch, error) {
	start := time.Now()
	b, err := t.in.Next()
	t.st.NextNanos.Add(time.Since(start).Nanoseconds())
	if b != nil {
		t.st.Batches.Add(1)
		t.st.RowsOut.Add(int64(len(b.Tuples)))
	}
	return b, err
}

func (t *tracedIter) Close() error {
	start := time.Now()
	err := t.in.Close()
	t.st.CloseNanos.Add(time.Since(start).Nanoseconds())
	return err
}

// Render returns the plan outline annotated with live stats, followed
// by a footer summarising the whole execution — the body of EXPLAIN
// ANALYZE. total is the statement's wall time, rows the root row
// count.
func (t *Trace) Render(root plan.Node, total time.Duration, rows int64) string {
	var b strings.Builder
	b.WriteString(plan.ExplainFunc(root, func(n plan.Node) string {
		s, ok := t.Lookup(n)
		if !ok {
			return "(never executed)"
		}
		return "(" + s.describe() + ")"
	}))
	fmt.Fprintf(&b, "execution: time=%s rows=%d trace_id=%s\n", fmtDur(total), rows, t.ID)
	if ex, br := t.Par.Exchanges.Load(), t.Par.Breakers.Load(); ex > 0 || br > 0 {
		fmt.Fprintf(&b, "parallel: exchanges=%d breakers=%d partitions=%d inline_runs=%d workers_busy=%d\n",
			ex, br, t.Par.Partitions.Load(), t.Par.InlineRuns.Load(), t.Par.WorkersBusy.Load())
	}
	return b.String()
}

// describe renders one operator's stats inline.
func (s *OpStats) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows=%d batches=%d time=%s", s.RowsOut.Load(), s.Batches.Load(), fmtDur(time.Duration(s.NextNanos.Load()+s.OpenNanos.Load())))
	if c := s.CloseNanos.Load(); c > 0 {
		fmt.Fprintf(&b, " close=%s", fmtDur(time.Duration(c)))
	}
	for _, ex := range s.Extras() {
		fmt.Fprintf(&b, " %s=%d", ex.Name, ex.Value)
	}
	if re, ok := s.MaxRelErr(); ok {
		fmt.Fprintf(&b, " max_rel_err=%.4g", re)
	}
	return b.String()
}

// fmtDur formats durations with millisecond-scale readability.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// OpSnap is a JSON-friendly snapshot of one operator's stats, nested
// in plan order — what /v1/queries serves for live queries and the
// benchmark's traced pass writes per workload.
type OpSnap struct {
	Op         string           `json:"op"`
	Rows       int64            `json:"rows"`
	Batches    int64            `json:"batches"`
	TimeNanos  int64            `json:"time_ns"`
	CloseNanos int64            `json:"close_ns,omitempty"`
	Extras     map[string]int64 `json:"extras,omitempty"`
	MaxRelErr  float64          `json:"max_rel_err,omitempty"`
	Children   []OpSnap         `json:"children,omitempty"`
}

// Snapshot captures the traced tree rooted at root.
func (t *Trace) Snapshot(root plan.Node) OpSnap {
	snap := OpSnap{Op: plan.OpName(root)}
	if s, ok := t.Lookup(root); ok {
		snap.Rows = s.RowsOut.Load()
		snap.Batches = s.Batches.Load()
		snap.TimeNanos = s.NextNanos.Load() + s.OpenNanos.Load()
		snap.CloseNanos = s.CloseNanos.Load()
		if ex := s.Extras(); len(ex) > 0 {
			snap.Extras = make(map[string]int64, len(ex))
			for _, e := range ex {
				snap.Extras[e.Name] = e.Value
			}
		}
		if re, ok := s.MaxRelErr(); ok {
			snap.MaxRelErr = re
		}
	}
	for _, c := range plan.Children(root) {
		snap.Children = append(snap.Children, t.Snapshot(c))
	}
	return snap
}
