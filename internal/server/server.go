// Package server exposes a MayBMS database over HTTP/JSON, turning
// the embedded engine into a shared network service. The API surface:
//
//	POST   /v1/session  open a session; returns a token
//	DELETE /v1/session  close the session named by X-Maybms-Session
//	POST   /v1/query    run a script; last statement must return rows
//	POST   /v1/query/stream  run one query; NDJSON batches, flushed
//	POST   /v1/exec     run a script; returns the last summary
//	POST   /v1/import   bulk-load CSV (?table=name) into a table
//	GET    /healthz     liveness and basic stats
//	GET    /metrics     Prometheus-style counters
//
// Sessions carry transaction state: BEGIN opens an optimistic
// snapshot-isolation transaction owned by the session, and every
// statement the session sends runs inside it until COMMIT, ROLLBACK,
// session close, or idle expiry (which rolls back). Any number of
// sessions can hold transactions concurrently — each sees a private
// snapshot of the database as of its BEGIN plus its own buffered
// writes, and nothing is published until COMMIT. At commit the engine
// validates the transaction's write set against every commit since
// its snapshot (first-committer-wins): a loser is rolled back and the
// request fails with HTTP 409 and the typed error code "conflict",
// telling the client to retry the whole transaction from BEGIN.
// Statements outside a transaction autocommit atomically. Reads never
// block writes and writes never block reads.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"maybms"
	dbpkg "maybms/internal/db"
	"maybms/internal/exec/live"
	"maybms/internal/exec/trace"
	"maybms/internal/obs"
	planpkg "maybms/internal/plan"
	sqlpkg "maybms/internal/sql"
	"maybms/internal/wire"
)

// Options configures a Server.
type Options struct {
	// MaxSessions caps concurrently open sessions (default 128).
	MaxSessions int
	// SessionIdle is the idle timeout after which a session (and any
	// transaction it holds) is discarded (default 5 minutes).
	SessionIdle time.Duration
	// StreamWriteTimeout bounds how long /v1/query/stream waits for the
	// client to drain one batch before the connection is dropped and
	// the cursor's snapshot released (default 30 seconds). Purely a
	// resource bound: a stalled client never blocks writers — cursors
	// stream from snapshots — it just pins snapshot memory.
	StreamWriteTimeout time.Duration
	// Parallelism, when non-zero, sets the engine's degree of
	// intra-query parallelism (maybms.Options.Parallelism); zero
	// leaves the engine's configuration untouched.
	Parallelism int
	// WorkerPool, when non-zero, caps the engine's partition-worker
	// goroutines across every concurrent query
	// (maybms.Options.WorkerPool); zero leaves the engine's
	// configuration untouched.
	WorkerPool int
	// SlowQueryLog, when non-nil, enables the slow-query log: every
	// statement executes with a trace attached, and any request whose
	// statement takes at least SlowQueryThreshold is logged as one JSON
	// line (trace id, SQL, duration, rows, analyzed operator tree).
	SlowQueryLog io.Writer
	// SlowQueryThreshold is the duration at or above which a traced
	// request is logged; zero logs every request. Ignored when
	// SlowQueryLog is nil.
	SlowQueryThreshold time.Duration
	// Pprof mounts net/http/pprof under /debug/pprof/ on the server's
	// handler. Off by default: profiling endpoints expose internals and
	// cost CPU, so they are strictly opt-in.
	Pprof bool
	// StatementTimeout, when positive, cancels any statement running
	// longer than this through the same cooperative path as
	// DELETE /v1/queries/{id}; the client receives a typed "canceled"
	// error. Zero disables timeouts.
	StatementTimeout time.Duration
	// EventLog, when non-nil, receives every engine event as one JSON
	// line, in addition to the in-memory ring served by /v1/events.
	EventLog io.Writer
}

func (o *Options) fill() {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 128
	}
	if o.SessionIdle <= 0 {
		o.SessionIdle = 5 * time.Minute
	}
	if o.StreamWriteTimeout <= 0 {
		o.StreamWriteTimeout = 30 * time.Second
	}
}

// Server serves a MayBMS database over HTTP. Create with New; it is
// safe for concurrent use by any number of in-flight requests.
type Server struct {
	db   *maybms.DB
	eng  *dbpkg.Database
	opts Options

	// mu guards the session table (including each session's txn
	// pointer). Never held across engine execution — statements,
	// commits, and rollbacks all run outside it, so session
	// management, health, and metrics stay responsive during long
	// statements.
	mu       sync.Mutex
	sessions map[string]*session

	done chan struct{}

	// slowMu serialises slow-query log writes so concurrent handlers
	// cannot interleave JSON lines.
	slowMu sync.Mutex

	// Fixed-bucket latency histograms by endpoint, plus the
	// result-size histogram; all surfaced on /metrics.
	queryDur  *histogram
	execDur   *histogram
	streamDur *histogram
	rowsHist  *histogram

	start           time.Time
	queriesTotal    atomic.Int64
	streamsTotal    atomic.Int64
	rowsStreamed    atomic.Int64
	execsTotal      atomic.Int64
	importsTotal    atomic.Int64
	readStmtsTotal  atomic.Int64
	writeStmtsTotal atomic.Int64
	errorsTotal     atomic.Int64
	sessionsTotal   atomic.Int64
	sessionsExpired atomic.Int64
}

// New wraps an embedded database in a network server. The database
// may be shared with in-process callers; both sides go through the
// same engine locks.
func New(mdb *maybms.DB, opts Options) *Server {
	opts.fill()
	if opts.Parallelism != 0 {
		mdb.SetParallelism(opts.Parallelism)
	}
	if opts.WorkerPool != 0 {
		mdb.SetWorkerPool(opts.WorkerPool)
	}
	s := &Server{
		db:        mdb,
		eng:       mdb.Engine(),
		opts:      opts,
		sessions:  map[string]*session{},
		done:      make(chan struct{}),
		start:     time.Now(),
		queryDur:  newHistogram(obs.DurationBuckets),
		execDur:   newHistogram(obs.DurationBuckets),
		streamDur: newHistogram(obs.DurationBuckets),
		rowsHist:  newHistogram(rowsBuckets),
	}
	if opts.StatementTimeout > 0 {
		s.eng.SetStatementTimeout(opts.StatementTimeout)
	}
	if opts.EventLog != nil {
		s.eng.Events().SetSink(opts.EventLog)
	}
	interval := opts.SessionIdle / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	go s.janitor(interval)
	return s
}

// maxImportBytes caps one CSV upload (64 MiB).
const maxImportBytes = 64 << 20

// Close stops background work and drops every session, rolling back
// any transaction a session still holds — so a subsequent snapshot
// save cannot fail on an abandoned transaction. In-flight requests
// finish normally.
func (s *Server) Close() {
	select {
	case <-s.done:
	default:
		close(s.done)
	}
	s.mu.Lock()
	var abandoned []*dbpkg.Txn
	for _, sess := range s.sessions {
		if t := s.dropLocked(sess); t != nil {
			abandoned = append(abandoned, t)
		}
	}
	s.mu.Unlock()
	rollbackAbandoned(abandoned)
}

// Handler returns the HTTP handler implementing the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/session", s.handleOpenSession)
	mux.HandleFunc("DELETE /v1/session", s.handleCloseSession)
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/stream", s.handleQueryStream)
	mux.HandleFunc("POST /v1/exec", s.handleExec)
	mux.HandleFunc("POST /v1/import", s.handleImport)
	mux.HandleFunc("GET /v1/queries", s.handleQueries)
	mux.HandleFunc("DELETE /v1/queries/{id}", s.handleKillQuery)
	mux.HandleFunc("GET /v1/events", s.handleEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opts.Pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// Serve accepts connections on l until it is closed.
func (s *Server) Serve(l net.Listener) error {
	return (&http.Server{Handler: s.Handler()}).Serve(l)
}

// httpError is an error with an HTTP status.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

var (
	errTooManySessions = &httpError{code: http.StatusServiceUnavailable, msg: "server: session limit reached"}
	errNoSession       = &httpError{code: http.StatusUnauthorized, msg: "server: unknown or expired session token"}
	errTxnNeedsSession = &httpError{code: http.StatusBadRequest, msg: "server: transactions require a session (POST /v1/session)"}
	errAlreadyInTxn    = &httpError{code: http.StatusBadRequest, msg: "server: already in a transaction"}
	errNoTxn           = &httpError{code: http.StatusBadRequest, msg: "server: no transaction in progress"}
)

func statusOf(err error) int {
	if he, ok := err.(*httpError); ok {
		return he.code
	}
	if dbpkg.IsConflict(err) {
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

// errCode classifies an error for the wire: cancellation (KILL or
// statement timeout) and commit conflicts are typed so clients need
// not parse the message.
func errCode(err error) string {
	if live.IsCanceled(err) {
		return wire.ErrCodeCanceled
	}
	if dbpkg.IsConflict(err) {
		return wire.ErrCodeConflict
	}
	return ""
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.errorsTotal.Add(1)
	writeJSON(w, statusOf(err), wire.ErrorResponse{Error: err.Error(), Code: errCode(err)})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleOpenSession(w http.ResponseWriter, r *http.Request) {
	sess, err := s.openSession(time.Now())
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.SessionResponse{
		Token:       sess.token,
		IdleSeconds: s.opts.SessionIdle.Seconds(),
	})
}

func (s *Server) handleCloseSession(w http.ResponseWriter, r *http.Request) {
	tok := r.Header.Get(wire.SessionHeader)
	if tok == "" {
		s.writeError(w, errNoSession)
		return
	}
	if err := s.closeSession(tok); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct{}{})
}

// maxRequestBytes caps one statement-request body (16 MiB of SQL).
const maxRequestBytes = 16 << 20

// decodeRequest reads the (size-capped) JSON body and resolves the
// session header.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (*session, string, error) {
	var req wire.Request
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)).Decode(&req); err != nil {
		return nil, "", fmt.Errorf("server: bad request body: %v", err)
	}
	sess, err := s.touchSession(r.Header.Get(wire.SessionHeader), time.Now())
	if err != nil {
		return nil, "", err
	}
	return sess, req.SQL, nil
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queriesTotal.Add(1)
	tid := traceID(r)
	w.Header().Set(wire.TraceHeader, tid)
	sess, src, err := s.decodeRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSession(sess)
	tr := s.newTrace(tid)
	start := time.Now()
	res, root, err := s.runScriptTraced(sess, src, tr)
	dur := time.Since(start)
	s.queryDur.Observe(dur.Seconds())
	if err != nil {
		s.writeError(w, err)
		return
	}
	if res.Rel == nil {
		s.writeError(w, fmt.Errorf("maybms: statement returned no rows (use exec)"))
		return
	}
	rows := maybms.RowsFromRel(res.Rel)
	s.rowsHist.Observe(float64(len(rows.Data)))
	s.logSlow("query", src, tr, root, dur, int64(len(rows.Data)))
	cells, err := wire.EncodeRows(rows.Data)
	if err != nil {
		s.writeError(w, &httpError{code: http.StatusInternalServerError, msg: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, wire.QueryResponse{
		Columns: rows.Columns,
		Rows:    cells,
		Certain: rows.Certain,
		Lineage: rows.Lineage,
	})
}

// handleQueryStream serves POST /v1/query/stream: a single query
// statement whose result is written as NDJSON stream frames (header,
// batches, done/error — see wire.StreamFrame), flushed per batch so
// the client sees the first rows before the scan completes. Queries
// stream straight off the engine's iterator pipeline over a
// point-in-time snapshot, so a stalled or slow client can never block
// a writer; a query inside the session's transaction runs to
// completion first and its materialised result is streamed.
func (s *Server) handleQueryStream(w http.ResponseWriter, r *http.Request) {
	s.streamsTotal.Add(1)
	tid := traceID(r)
	w.Header().Set(wire.TraceHeader, tid)
	sess, src, err := s.decodeRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSession(sess)
	stmts, err := sqlpkg.ParseAll(src)
	if err != nil {
		s.writeError(w, err)
		return
	}
	st, ok := singleQueryStmt(stmts)
	if !ok {
		s.writeError(w, fmt.Errorf("server: streaming requires a single query statement"))
		return
	}
	tr := s.newTrace(tid)
	meta := dbpkg.QueryMeta{SQL: src, Session: sessionToken(sess), Txn: s.sessionTxn(sess)}
	s.readStmtsTotal.Add(1)
	start := time.Now()
	// The engine streams out-of-transaction queries off a snapshot;
	// in-transaction queries come back as a materialised-result
	// cursor.
	ecur, root, err := s.eng.OpenQueryStmtMeta(st, tr, meta)
	if err != nil {
		s.writeError(w, err)
		return
	}
	cur := maybms.NewRowsCursor(ecur)
	defer cur.Close()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	// The write loop below is paced by the client. Cursors stream from
	// a snapshot, so a stalled client blocks no writer; the per-batch
	// write deadline is purely a resource bound — a client that cannot
	// drain a batch within the window is cut off and the cursor's
	// snapshot memory released. The deadline is absolute on the
	// connection and outlives the handler, so it must be cleared when
	// the stream completes: net/http flushes the response's
	// terminating chunk after the handler returns and clears
	// connection deadlines only after that, so a stale deadline left
	// armed here can cut off the final flush and kill keep-alive reuse
	// of the connection.
	rc := http.NewResponseController(w)
	defer rc.SetWriteDeadline(time.Time{})
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	send := func(f wire.StreamFrame) error {
		rc.SetWriteDeadline(time.Now().Add(s.opts.StreamWriteTimeout))
		if err := enc.Encode(f); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	if err := send(wire.StreamFrame{Header: &wire.StreamHeader{Columns: cur.Columns, Certain: cur.Certain}}); err != nil {
		return
	}
	var total int64
	for {
		page, err := cur.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// The 200 header is committed; report in-band and cut the
			// stream short of its done frame.
			s.errorsTotal.Add(1)
			send(wire.StreamFrame{Error: err.Error(), ErrCode: errCode(err)})
			return
		}
		cells, err := wire.EncodeRows(page.Data)
		if err != nil {
			s.errorsTotal.Add(1)
			send(wire.StreamFrame{Error: err.Error()})
			return
		}
		if err := send(wire.StreamFrame{Batch: &wire.StreamBatch{Rows: cells, Lineage: page.Lineage}}); err != nil {
			return // client went away or stalled; the cursor unwinds via defer
		}
		total += int64(len(page.Data))
		s.rowsStreamed.Add(int64(len(page.Data)))
	}
	dur := time.Since(start)
	s.streamDur.Observe(dur.Seconds())
	s.rowsHist.Observe(float64(total))
	s.logSlow("stream", src, tr, root, dur, total)
	send(wire.StreamFrame{Done: &wire.StreamDone{RowsStreamed: total}})
}

// singleQueryStmt returns the script's sole query statement, if that
// is what the script is.
func singleQueryStmt(stmts []sqlpkg.Statement) (*sqlpkg.QueryStmt, bool) {
	if len(stmts) != 1 {
		return nil, false
	}
	st, ok := stmts[0].(*sqlpkg.QueryStmt)
	return st, ok
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) {
	s.execsTotal.Add(1)
	tid := traceID(r)
	w.Header().Set(wire.TraceHeader, tid)
	sess, src, err := s.decodeRequest(w, r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSession(sess)
	tr := s.newTrace(tid)
	start := time.Now()
	res, root, err := s.runScriptTraced(sess, src, tr)
	dur := time.Since(start)
	s.execDur.Observe(dur.Seconds())
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.logSlow("exec", src, tr, root, dur, int64(res.RowsAffected))
	writeJSON(w, http.StatusOK, wire.ExecResponse{RowsAffected: res.RowsAffected, Msg: res.Msg})
}

func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	s.importsTotal.Add(1)
	table := r.URL.Query().Get("table")
	if table == "" {
		s.writeError(w, fmt.Errorf("server: missing ?table= parameter"))
		return
	}
	sess, err := s.touchSession(r.Header.Get(wire.SessionHeader), time.Now())
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSession(sess)
	// Buffer the upload before touching the server lock: holding s.mu
	// across network reads would let one slow client stall every
	// other request (session touch, health, metrics).
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxImportBytes))
	if err != nil {
		s.writeError(w, fmt.Errorf("server: reading csv body: %v", err))
		return
	}
	// CSV import is a stream of autocommitted inserts — it always
	// loads into the live database, never into a session's open
	// transaction (bulk loads inside an optimistic transaction would
	// buffer the whole file in its write set). The engine locks per
	// statement; nothing server-wide is held for the import's
	// duration.
	n, err := s.db.ImportCSV(table, bytes.NewReader(body))
	s.writeStmtsTotal.Add(int64(n))
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, wire.ImportResponse{Count: n})
}

// sessionToken names sess for the live-query registry; empty for the
// anonymous context.
func sessionToken(sess *session) string {
	if sess == nil {
		return ""
	}
	return sess.token
}

// runScript parses and executes a script on behalf of sess (nil for
// the anonymous context), returning the last statement's result.
func (s *Server) runScript(sess *session, src string) (*dbpkg.Result, error) {
	res, _, err := s.runScriptTraced(sess, src, nil)
	return res, err
}

// runScriptTraced is runScript with tr (when non-nil) attached to
// every statement; it also returns the last statement's plan root, for
// rendering the analyzed tree in the slow-query log. Every statement
// registers in the live-query registry under the script's source text.
func (s *Server) runScriptTraced(sess *session, src string, tr *trace.Trace) (*dbpkg.Result, planpkg.Node, error) {
	stmts, err := sqlpkg.ParseAll(src)
	if err != nil {
		return nil, nil, err
	}
	meta := dbpkg.QueryMeta{SQL: src, Session: sessionToken(sess)}
	var last *dbpkg.Result
	var root planpkg.Node
	for _, st := range stmts {
		r, n, err := s.runStatementMeta(sess, st, tr, meta)
		if err != nil {
			return nil, nil, err
		}
		last, root = r, n
	}
	if last == nil {
		return &dbpkg.Result{Msg: "empty script"}, nil, nil
	}
	return last, root, nil
}

// runStatement executes one statement, enforcing the session/
// transaction policy around the engine's own locking.
func (s *Server) runStatement(sess *session, st sqlpkg.Statement) (*dbpkg.Result, error) {
	res, _, err := s.runStatementMeta(sess, st, nil, dbpkg.QueryMeta{Session: sessionToken(sess)})
	return res, err
}

// runStatementMeta is runStatement with tr (when non-nil) attached to
// the statement's executor and meta carried into the live-query
// registry. Transaction control (BEGIN/COMMIT/ROLLBACK) manages the
// session's transaction pointer here — it has no plan and is never
// traced; everything else routes through the engine's traced entry
// point with the session's open transaction (if any) on the meta, so
// it executes against that transaction's private view.
func (s *Server) runStatementMeta(sess *session, st sqlpkg.Statement, tr *trace.Trace, meta dbpkg.QueryMeta) (*dbpkg.Result, planpkg.Node, error) {
	switch st.(type) {
	case *sqlpkg.Begin:
		if sess == nil {
			return nil, nil, errTxnNeedsSession
		}
		if s.sessionTxn(sess) != nil {
			return nil, nil, errAlreadyInTxn
		}
		txn := s.eng.Begin()
		s.mu.Lock()
		// The session was validated at request decode, but may have
		// been closed since (its closer saw txn == nil and rolled back
		// nothing); attaching a transaction to a dead token would leak
		// its snapshot until restart. A concurrent BEGIN on the same
		// token loses the same way.
		_, live := s.sessions[sess.token]
		ok := live && sess.txn == nil
		if ok {
			sess.txn = txn
		}
		s.mu.Unlock()
		if !ok {
			txn.Rollback()
			if !live {
				return nil, nil, errNoSession
			}
			return nil, nil, errAlreadyInTxn
		}
		return &dbpkg.Result{Msg: "BEGIN"}, nil, nil

	case *sqlpkg.Commit:
		txn, err := s.detachTxn(sess)
		if err != nil {
			return nil, nil, err
		}
		if err := txn.Commit(); err != nil {
			// A conflict (or any commit failure) rolled the
			// transaction back; the session is out of it either way.
			return nil, nil, err
		}
		return &dbpkg.Result{Msg: "COMMIT"}, nil, nil

	case *sqlpkg.Rollback:
		txn, err := s.detachTxn(sess)
		if err != nil {
			return nil, nil, err
		}
		txn.Rollback()
		return &dbpkg.Result{Msg: "ROLLBACK"}, nil, nil

	default:
		meta.Txn = s.sessionTxn(sess)
		if sqlpkg.ReadOnly(st) {
			s.readStmtsTotal.Add(1)
		} else {
			s.writeStmtsTotal.Add(1)
		}
		return s.eng.RunStatementMeta(st, tr, meta)
	}
}

// detachTxn removes and returns the session's open transaction for a
// COMMIT or ROLLBACK. The pointer is cleared before the outcome is
// known: commit and rollback both finish the transaction, so the
// session is outside it no matter which way validation goes.
func (s *Server) detachTxn(sess *session) (*dbpkg.Txn, error) {
	if sess == nil {
		return nil, errTxnNeedsSession
	}
	s.mu.Lock()
	txn := sess.txn
	sess.txn = nil
	s.mu.Unlock()
	if txn == nil {
		return nil, errNoTxn
	}
	return txn, nil
}

// handleQueries serves GET /v1/queries: every statement currently
// executing, oldest first, with its live per-operator tree when
// planning has completed.
func (s *Server) handleQueries(w http.ResponseWriter, r *http.Request) {
	snaps := s.eng.Registry().List()
	out := wire.QueriesResponse{Queries: make([]wire.QueryInfo, 0, len(snaps))}
	for _, q := range snaps {
		qi := wire.QueryInfo{
			ID:             q.ID,
			SQL:            q.SQL,
			Session:        q.Session,
			Engine:         q.Engine,
			Start:          q.Start.UTC().Format(time.RFC3339Nano),
			ElapsedSeconds: q.ElapsedSeconds,
			Parallelism:    q.Parallelism,
			Canceled:       q.Canceled,
			Txn:            q.Txn,
		}
		if q.Ops != nil {
			if b, err := json.Marshal(q.Ops); err == nil {
				qi.Ops = b
			}
		}
		out.Queries = append(out.Queries, qi)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleKillQuery serves DELETE /v1/queries/{id}: flip the named
// query's cancellation flag. 404 when no live query has the id; the
// kill itself is cooperative — the query unwinds at its next batch
// boundary and its own request fails with a typed "canceled" error.
func (s *Server) handleKillQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.eng.Registry().Kill(id) {
		s.writeError(w, &httpError{code: http.StatusNotFound, msg: fmt.Sprintf("server: no live query %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, wire.KillResponse{Killed: true})
}

// handleEvents serves GET /v1/events: the engine event ring, oldest
// first.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	evs := s.eng.Events().Events()
	out := wire.EventsResponse{Events: make([]wire.EventInfo, 0, len(evs))}
	for _, e := range evs {
		out.Events = append(out.Events, wire.EventInfo{
			Seq:    e.Seq,
			Time:   e.Time.UTC().Format(time.RFC3339Nano),
			Type:   e.Type,
			ID:     e.ID,
			Msg:    e.Msg,
			Bytes:  e.Bytes,
			Millis: e.Millis,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nsess := len(s.sessions)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":         "ok",
		"tables":         len(s.db.Tables()),
		"sessions":       nsess,
		"uptime_seconds": time.Since(s.start).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	nsess := len(s.sessions)
	s.mu.Unlock()
	ts := s.eng.TxnStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprintf(w, "maybms_uptime_seconds %g\n", time.Since(s.start).Seconds())
	fmt.Fprintf(w, "maybms_sessions_active %d\n", nsess)
	fmt.Fprintf(w, "maybms_sessions_created_total %d\n", s.sessionsTotal.Load())
	fmt.Fprintf(w, "maybms_sessions_expired_total %d\n", s.sessionsExpired.Load())
	fmt.Fprintf(w, "maybms_txn_open %d\n", ts.Active)
	fmt.Fprintf(w, "maybms_txn_commits_total %d\n", ts.Commits)
	fmt.Fprintf(w, "maybms_txn_conflicts_total %d\n", ts.Conflicts)
	fmt.Fprintf(w, "maybms_txn_rollbacks_total %d\n", ts.Rollbacks)
	fmt.Fprintf(w, "maybms_requests_total{endpoint=\"query\"} %d\n", s.queriesTotal.Load())
	fmt.Fprintf(w, "maybms_requests_total{endpoint=\"exec\"} %d\n", s.execsTotal.Load())
	fmt.Fprintf(w, "maybms_requests_total{endpoint=\"import\"} %d\n", s.importsTotal.Load())
	fmt.Fprintf(w, "maybms_stream_queries_total %d\n", s.streamsTotal.Load())
	fmt.Fprintf(w, "maybms_rows_streamed_total %d\n", s.rowsStreamed.Load())
	fmt.Fprintf(w, "maybms_snapshots_open %d\n", s.eng.SnapshotsOpen())
	fmt.Fprintf(w, "maybms_ws_vars %d\n", s.eng.WSVars())
	pcHits, pcMisses, pcEntries := s.eng.PlanCacheStats()
	fmt.Fprintf(w, "maybms_plan_cache_hits_total %d\n", pcHits)
	fmt.Fprintf(w, "maybms_plan_cache_misses_total %d\n", pcMisses)
	fmt.Fprintf(w, "maybms_plan_cache_entries %d\n", pcEntries)
	fmt.Fprintf(w, "maybms_statements_total{kind=\"read\"} %d\n", s.readStmtsTotal.Load())
	fmt.Fprintf(w, "maybms_statements_total{kind=\"write\"} %d\n", s.writeStmtsTotal.Load())
	fmt.Fprintf(w, "maybms_errors_total %d\n", s.errorsTotal.Load())
	reg := s.eng.Registry()
	fmt.Fprintf(w, "maybms_queries_active %d\n", reg.Active())
	fmt.Fprintf(w, "maybms_queries_killed_total %d\n", reg.Killed())
	fmt.Fprintf(w, "maybms_statement_timeouts_total %d\n", reg.TimedOut())
	par := s.eng.ParallelStats()
	fmt.Fprintf(w, "maybms_parallelism_degree %d\n", s.eng.Parallelism())
	fmt.Fprintf(w, "maybms_parallel_queries_total %d\n", par.Exchanges.Load())
	fmt.Fprintf(w, "maybms_parallel_breakers_total %d\n", par.Breakers.Load())
	fmt.Fprintf(w, "maybms_parallel_partitions_total %d\n", par.Partitions.Load())
	fmt.Fprintf(w, "maybms_parallel_inline_runs_total %d\n", par.InlineRuns.Load())
	fmt.Fprintf(w, "maybms_parallel_workers_busy %d\n", par.WorkersBusy.Load())
	pool := s.eng.WorkerPool()
	fmt.Fprintf(w, "maybms_pool_size %d\n", pool.Size())
	fmt.Fprintf(w, "maybms_pool_workers_busy %d\n", pool.Busy())
	fmt.Fprintf(w, "maybms_pool_workers_busy_highwater %d\n", pool.BusyHighWater())
	fmt.Fprintf(w, "maybms_pool_fragments_queued %d\n", pool.Queued())
	fmt.Fprintf(w, "maybms_pool_runs_total %d\n", pool.PoolRuns())
	fmt.Fprintf(w, "maybms_pool_inline_runs_total %d\n", pool.InlineRuns())
	s.queryDur.Write(w, "maybms_query_duration_seconds", `endpoint="query"`)
	s.execDur.Write(w, "maybms_query_duration_seconds", `endpoint="exec"`)
	s.streamDur.Write(w, "maybms_query_duration_seconds", `endpoint="stream"`)
	s.rowsHist.Write(w, "maybms_query_rows_returned", "")
	st := s.eng.StorageStats()
	fmt.Fprintf(w, "maybms_storage_engine{engine=%q} 1\n", st.Engine)
	if st.Engine == "disk" {
		fmt.Fprintf(w, "maybms_wal_appends_total %d\n", st.WALAppends)
		fmt.Fprintf(w, "maybms_wal_fsyncs_total %d\n", st.WALFsyncs)
		fmt.Fprintf(w, "maybms_wal_bytes_total %d\n", st.WALBytes)
		fmt.Fprintf(w, "maybms_checkpoints_total %d\n", st.Checkpoints)
		fmt.Fprintf(w, "maybms_checkpoint_seconds %g\n", st.LastCheckpointSeconds)
		fmt.Fprintf(w, "maybms_segments_live %d\n", st.SegmentsLive)
		fmt.Fprintf(w, "maybms_compactions_total %d\n", st.Compactions)
		s.eng.FsyncHist().Write(w, "maybms_wal_fsync_duration_seconds", "")
		s.eng.CheckpointHist().Write(w, "maybms_checkpoint_duration_seconds", "")
	}
}
