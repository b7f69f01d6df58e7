package server

// Server-side observability: fixed-bucket latency histograms for the
// /metrics endpoint (the histogram itself lives in internal/obs, shared
// with the storage engine's durability metrics), per-request trace ids,
// and the structured slow-query log. All of it is passive — the
// histograms are a handful of atomic adds per request, tracing adds two
// atomic adds per operator batch, and nothing here can change a query's
// result.

import (
	"encoding/json"
	"net/http"
	"strings"
	"time"

	"maybms/internal/exec/trace"
	"maybms/internal/obs"
	"maybms/internal/plan"
	"maybms/internal/wire"
)

// rowsBuckets are the result-size histogram bounds in rows.
var rowsBuckets = []float64{1, 10, 100, 1e3, 1e4, 1e5, 1e6}

// traceID resolves the request's trace id: the client's
// X-Maybms-Trace header when set, a fresh random id otherwise.
func traceID(r *http.Request) string {
	if t := r.Header.Get(wire.TraceHeader); t != "" {
		if len(t) > 128 {
			t = t[:128]
		}
		return t
	}
	return trace.NewID()
}

// newTrace returns a Trace carrying the request's id. Every statement
// now executes traced: the live-query registry serves per-operator
// progress snapshots from it, and the overhead is two atomic adds per
// operator batch (measured as trace.overhead_pct by benchmark/run.sh).
func (s *Server) newTrace(tid string) *trace.Trace {
	return &trace.Trace{ID: tid}
}

// slowQueryEntry is one slow-query log line (JSON, one object per
// line).
type slowQueryEntry struct {
	Time       string  `json:"time"`
	TraceID    string  `json:"trace_id"`
	Endpoint   string  `json:"endpoint"`
	SQL        string  `json:"sql"`
	DurationMs float64 `json:"duration_ms"`
	Rows       int64   `json:"rows"`
	// Plan is the analyzed operator tree (the same rendering EXPLAIN
	// ANALYZE returns), line per element; absent when the script's last
	// statement had no query plan (DDL, transaction control).
	Plan []string `json:"plan,omitempty"`
}

// logSlow emits a slow-query log line when a log is configured and the
// statement took at least the threshold. root may be nil (no plan to
// render); tr may be nil (statement ran untraced).
func (s *Server) logSlow(endpoint, sql string, tr *trace.Trace, root plan.Node, dur time.Duration, rows int64) {
	if s.opts.SlowQueryLog == nil || dur < s.opts.SlowQueryThreshold {
		return
	}
	e := slowQueryEntry{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Endpoint:   endpoint,
		SQL:        sql,
		DurationMs: float64(dur.Microseconds()) / 1000,
		Rows:       rows,
	}
	if tr != nil {
		e.TraceID = tr.ID
		if root != nil {
			e.Plan = strings.Split(strings.TrimRight(tr.Render(root, dur, rows), "\n"), "\n")
		}
	}
	line, err := json.Marshal(e)
	if err != nil {
		return
	}
	line = append(line, '\n')
	s.slowMu.Lock()
	s.opts.SlowQueryLog.Write(line)
	s.slowMu.Unlock()
}

// histogram aliases the shared fixed-bucket histogram so the server's
// metric fields read naturally.
type histogram = obs.Histogram

func newHistogram(bounds []float64) *histogram { return obs.NewHistogram(bounds) }
