package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"maybms"
	"maybms/internal/conf/approx"
	"maybms/internal/conf/exact"
	"maybms/internal/conf/sprout"
	"maybms/internal/db"
	"maybms/internal/exec"
	"maybms/internal/exec/trace"
	"maybms/internal/lineage"
	"maybms/internal/plan"
	"maybms/internal/sql"
	"maybms/internal/urel"
	"maybms/internal/wire"
	"maybms/internal/wstree"
)

// Per-layer metrics come from three places, all outside the program:
//
//	A  calls the harness makes into a layer's public functions and times
//	B  the engine's per-operator tree from Database.RunStatementTraced
//	C  /metrics and runtime counters, as deltas over the untraced window
//
// Layer names are the repository's packages.

// ---- source C: counters over the window ---------------------------------

// scrape reads the server's /metrics into a map keyed by the sample's
// full name, labels included.
func scrape(url string) (map[string]float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// procCounters is the runtime's view of the process at one instant.
type procCounters struct {
	mem   runtime.MemStats
	gcCPU float64 // seconds
	cpu   time.Duration
}

func readProc() procCounters {
	var p procCounters
	runtime.ReadMemStats(&p.mem)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[0].Value.Float64()
	}
	p.cpu = cpuTime()
	return p
}

// gauges samples, during the window, the two values that only exist as
// instantaneous readings; it runs only in traced runs, whose end-to-end
// numbers are not reported.
type gauges struct {
	stop          chan struct{}
	done          chan struct{}
	goroutinesMax int
	snapshotsMax  int64
}

func startGauges(eng *db.Database) *gauges {
	g := &gauges{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			if n := runtime.NumGoroutine(); n > g.goroutinesMax {
				g.goroutinesMax = n
			}
			if n := eng.SnapshotsOpen(); n > g.snapshotsMax {
				g.snapshotsMax = n
			}
			select {
			case <-g.stop:
				return
			case <-t.C:
			}
		}
	}()
	return g
}

func (g *gauges) finish() {
	close(g.stop)
	<-g.done
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterMetrics turns the window's counter deltas into layer metrics.
func counterMetrics(m map[string]float64, win window, before, after map[string]float64, p0, p1 procCounters, g *gauges) {
	d := func(name string) float64 { return after[name] - before[name] }
	ops := float64(win.attempted - win.failed)

	served := 0.0
	for _, ep := range []string{"query", "exec", "stream"} {
		served += d(`maybms_query_duration_seconds_sum{endpoint="` + ep + `"}`)
	}
	// Means on both sides: the client's mean time per operation minus
	// the server's mean handler time per operation.
	m["server.rpc_overhead_us"] = mean(win.latMs)*1e3 - ratio(served, ops)*1e6

	hits, misses := d("maybms_plan_cache_hits_total"), d("maybms_plan_cache_misses_total")
	m["db.plancache_hit_ratio"] = ratio(hits, hits+misses)
	m["db.snapshots_open_max"] = float64(g.snapshotsMax)

	commits, conflicts := d("maybms_txn_commits_total"), d("maybms_txn_conflicts_total")
	m["db.txn.conflict_ratio"] = ratio(conflicts, commits+conflicts)
	m["db.txn.retries_per_op"] = ratio(conflicts, ops)

	reads := d(`maybms_statements_total{kind="read"}`)
	m["exec.parallel.partitions_per_query"] = ratio(d("maybms_parallel_partitions_total"), reads)
	inline, pooled := d("maybms_pool_inline_runs_total"), d("maybms_pool_runs_total")
	m["exec.parallel.inline_run_ratio"] = ratio(inline, inline+pooled)
	m["exec.pool.busy_highwater"] = after["maybms_pool_workers_busy_highwater"]

	m["storage.wal.bytes_per_commit"] = ratio(d("maybms_wal_bytes_total"), commits)
	m["storage.wal.appends_per_commit"] = ratio(d("maybms_wal_appends_total"), commits)
	m["storage.wal.fsyncs_total"] = d("maybms_wal_fsyncs_total")
	m["storage.disk.checkpoints"] = d("maybms_checkpoints_total")
	m["storage.disk.checkpoint_s_total"] = d("maybms_checkpoint_duration_seconds_sum")
	m["storage.disk.compactions"] = d("maybms_compactions_total")
	m["storage.disk.segments_live"] = after["maybms_segments_live"]

	m["proc.alloc_bytes_per_op"] = ratio(float64(p1.mem.TotalAlloc-p0.mem.TotalAlloc), ops)
	m["proc.allocs_per_op"] = ratio(float64(p1.mem.Mallocs-p0.mem.Mallocs), ops)
	m["proc.gc_cpu_pct"] = 100 * ratio(p1.gcCPU-p0.gcCPU, (p1.cpu-p0.cpu).Seconds())
	m["proc.gc_pause_ms_total"] = float64(p1.mem.PauseTotalNs-p0.mem.PauseTotalNs) / 1e6
	m["proc.goroutines_max"] = float64(g.goroutinesMax)
}

// ---- sources A and B: the traced probe -----------------------------------

// groupStat is what the harness measured by calling the confidence
// engines directly on one group's lineage.
type groupStat struct {
	clauses, vars int
	exactMs       float64
	exactSteps    int
	wstreeMs      float64
	sproutMs      float64
	readOnce      bool
	approxMs      float64
	approxTrials  int64
	approxRelErr  float64
}

// probe replays operations one at a time, embedded and with engine
// parallelism 1, three ways: through the engine's traced entry point
// (source B, and the embedded reference time), through the engine with
// tracing off, and stage by stage with a span around each call into a
// layer (source A).
type probe struct {
	e   *env
	rec *recorder

	plans map[string]plan.Node // the harness's mirror of the plan cache

	ops        int
	embNs      int64 // ParseAll + RunStatementTraced
	untracedNs int64 // Run with live tracing off
	stagedNs   int64 // database-level spans of the staged replay
	confNs     int64 // conf.* spans
	lineageNs  int64 // un-aggregated pipeline + grouping, confidence ops
	confOps    int

	byClass            map[string]int64
	pipelineNs         int64
	scanRows, rootRows int64

	planBuildUs, planOptUs []float64
	encodeNs, decodeNs     int64
	wireRows, wireBytes    int64

	groups map[string]*groupStat // by un-aggregated statement and group key
}

// maxGroupStats bounds the direct confidence-engine measurements.
const maxGroupStats = 128

func newProbe(e *env) *probe {
	return &probe{e: e, rec: newRecorder(), plans: map[string]plan.Node{}, byClass: map[string]int64{}, groups: map[string]*groupStat{}}
}

// stage times fn as a span; database-level stages also count toward the
// staged total that is compared with the embedded run.
func (p *probe) stage(name string, parent, opID int, dbLevel bool, fn func()) time.Duration {
	i := p.rec.begin(name, parent, opID)
	fn()
	p.rec.end(i)
	d := time.Duration(p.rec.spans[i].EndNs - p.rec.spans[i].StartNs)
	if dbLevel {
		p.stagedNs += int64(d)
	}
	return d
}

func parseQuery(src string) (*sql.QueryStmt, error) {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected one statement: %s", src)
	}
	qs, ok := stmts[0].(*sql.QueryStmt)
	if !ok {
		return nil, fmt.Errorf("expected a query: %s", src)
	}
	return qs, nil
}

// planFor builds and optimizes the plan of a normalised query against a
// snapshot, timing the two calls (source A).
func (p *probe) planFor(stmt *sql.QueryStmt, norm sql.Query) (plan.Node, error) {
	snap := p.e.eng.SnapshotFor(stmt)
	defer snap.Close()
	t0 := time.Now()
	n, err := plan.Build(norm, snap)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	n = plan.Optimize(n, plan.OptOptions{Est: snap})
	p.planBuildUs = append(p.planBuildUs, us(t1.Sub(t0)))
	p.planOptUs = append(p.planOptUs, us(time.Since(t1)))
	return n, nil
}

// embeddedRead runs q through the engine's traced entry point and folds
// the operator tree into the source-B totals.
func (p *probe) embeddedRead(src string) error {
	stmts, err := sql.ParseAll(src)
	if err != nil {
		return err
	}
	tr := trace.New()
	_, root, err := p.e.eng.RunStatementTraced(stmts[0], tr)
	if err != nil {
		return err
	}
	if root != nil {
		snap := tr.Snapshot(root)
		p.pipelineNs += snap.TimeNanos + snap.CloseNanos
		p.scanRows += opSelf(snap, p.byClass)
		p.rootRows += snap.Rows
	}
	return nil
}

// stagedRead replays one read as the request path would run it, one span
// per call into a layer. replan is true on workloads whose plan cache
// never hits; otherwise the plan comes from the probe's own cache, as
// the engine's would.
func (p *probe) stagedRead(parent, opID int, q *query, replan bool) error {
	e := p.e
	body, err := json.Marshal(wire.Request{SQL: q.sql})
	if err != nil {
		return err
	}
	// The pipeline that runs is the un-aggregated form for confidence
	// queries: the harness then does the aggregate's two jobs itself,
	// grouping (lineage.build) and confidence (conf.*), as spans.
	runSrc := q.sql
	if q.plain != "" {
		runSrc = q.plain
	}
	runStmt, err := parseQuery(runSrc)
	if err != nil {
		return err
	}
	// Outside the spans: what the engine's plan cache would hold by now.
	norm, args, fp, ok := sql.NormalizeQuery(runStmt.Query)
	if !ok {
		norm, args, fp = runStmt.Query, nil, ""
	}
	var n plan.Node
	if !replan {
		if n = p.plans[fp]; n == nil {
			if n, err = p.planFor(runStmt, norm); err != nil {
				return err
			}
			if fp != "" {
				p.plans[fp] = n
			}
		}
	}

	var req wire.Request
	p.stage("wire.decode", parent, opID, false, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	var stmt *sql.QueryStmt
	p.stage("sql.parse", parent, opID, true, func() { stmt, err = parseQuery(req.SQL) })
	if err != nil {
		return err
	}
	var snap *db.Snapshot
	p.stage("db.snapshot", parent, opID, true, func() { snap = e.eng.SnapshotFor(stmt) })
	p.stage("sql.normalize", parent, opID, true, func() { sql.NormalizeQuery(stmt.Query) })
	if replan {
		p.stage("plan.build", parent, opID, true, func() { n, err = plan.Build(norm, snap) })
		if err != nil {
			snap.Close()
			return err
		}
		p.stage("plan.optimize", parent, opID, true, func() { n = plan.Optimize(n, plan.OptOptions{Est: snap}) })
	}

	var rel *urel.Rel
	tr := trace.New()
	pi := p.rec.begin("exec.pipeline", parent, opID)
	ex := exec.New(snap, e.eng.Store())
	ex.Parallelism = e.eng.Parallelism()
	ex.Pool = e.eng.WorkerPool()
	ex.Args = args
	ex.Tracer = tr
	it, err := ex.Open(n)
	if err == nil {
		rel, err = urel.Drain(it)
	}
	p.rec.end(pi)
	pipeline := p.rec.spans[pi].EndNs - p.rec.spans[pi].StartNs
	p.stagedNs += pipeline
	if err != nil {
		snap.Close()
		return err
	}
	ops := tr.Snapshot(n)
	p.rec.spans[pi].Ops = &ops

	var rows [][]interface{}
	if q.plain != "" {
		var first []urel.Tuple
		var dnfs []lineage.DNF
		grouping := p.stage("lineage.build", parent, opID, true, func() { first, dnfs = groupLineage(rel) })
		p.lineageNs += pipeline + int64(grouping)
		p.confOps++
		src := e.eng.Store()
		for _, d := range dnfs {
			var pr float64
			if q.eps > 0 {
				p.confNs += int64(p.stage("conf.approx", parent, opID, true, func() {
					pr, _, err = approx.ConfSeededStats(d, src, q.eps, q.delta, int64(opID), 1, nil)
				}))
			} else {
				ok := false
				p.confNs += int64(p.stage("conf.sprout", parent, opID, true, func() { pr, ok = sprout.Prob(d, src) }))
				if !ok {
					p.confNs += int64(p.stage("conf.exact", parent, opID, true, func() { pr = exact.Prob(d, src) }))
				}
			}
			if err != nil {
				snap.Close()
				return err
			}
			rows = append(rows, []interface{}{nil, pr})
		}
		for gi, r := range maybms.RowsFromRel(&urel.Rel{Sch: rel.Sch, Tuples: first}).Data {
			rows[gi][0] = r[0] // the group key, typed as the server would send it
		}
		p.noteGroups(q, first, dnfs)
	}
	p.stage("db.snapshot", parent, opID, true, snap.Close)

	var out []byte
	p.encodeNs += int64(p.stage("wire.encode", parent, opID, false, func() {
		resp := wire.QueryResponse{Certain: true}
		if q.plain == "" {
			r := maybms.RowsFromRel(rel)
			rows, resp.Columns, resp.Certain, resp.Lineage = r.Data, r.Columns, r.Certain, r.Lineage
		}
		var cells [][]wire.Cell
		if cells, err = wire.EncodeRows(rows); err == nil {
			resp.Rows = cells
			out, err = json.Marshal(resp)
		}
	}))
	if err != nil {
		return err
	}
	p.decodeNs += int64(p.stage("client.decode", parent, opID, false, func() {
		var resp wire.QueryResponse
		if err = json.Unmarshal(out, &resp); err == nil {
			wire.DecodeRows(resp.Rows)
		}
	}))
	p.wireRows += int64(len(rows))
	p.wireBytes += int64(len(out))
	return err
}

// groupLineage groups the conditions of a confidence query's
// un-aggregated result into one DNF per group key (the first column), in
// first-occurrence order: the aggregate operator's grouping step. first
// holds each group's first tuple.
func groupLineage(rel *urel.Rel) (first []urel.Tuple, dnfs []lineage.DNF) {
	idx := map[string]int{}
	for _, t := range rel.Tuples {
		k := t.Data[0].String()
		i, ok := idx[k]
		if !ok {
			i = len(dnfs)
			idx[k] = i
			first = append(first, t)
			dnfs = append(dnfs, nil)
		}
		dnfs[i] = append(dnfs[i], t.Cond)
	}
	return first, dnfs
}

// noteGroups measures each not-yet-seen group's lineage directly on the
// confidence engines (source A), outside any span.
func (p *probe) noteGroups(q *query, first []urel.Tuple, dnfs []lineage.DNF) {
	src := p.e.eng.Store()
	for i, d := range dnfs {
		id := q.plain + "#" + first[i].Data[0].String()
		if p.groups[id] != nil || len(p.groups) >= maxGroupStats {
			continue
		}
		g := &groupStat{clauses: len(d), vars: len(d.Vars())}
		p.groups[id] = g

		t0 := time.Now()
		s := exact.NewSolver(src)
		pExact := s.Prob(d)
		g.exactMs, g.exactSteps = ms(time.Since(t0)), s.Steps

		t0 = time.Now()
		wstree.Build(d, src)
		g.wstreeMs = ms(time.Since(t0))

		t0 = time.Now()
		_, g.readOnce = sprout.Prob(d, src)
		g.sproutMs = ms(time.Since(t0))

		if q.eps > 0 {
			t0 = time.Now()
			pa, st, err := approx.ConfSeededStats(d, src, q.eps, q.delta, int64(len(p.groups)), 1, nil)
			g.approxMs = ms(time.Since(t0))
			if err == nil && pExact > 0 {
				g.approxTrials = st.Trials
				g.approxRelErr = math.Abs(pa-pExact) / pExact
			}
		}
	}
}

// readOp is one probe operation of a read-only workload.
func (p *probe) readOp(opID int, q *query) error {
	e := p.e
	t0 := time.Now()
	if err := p.embeddedRead(q.sql); err != nil {
		return err
	}
	p.embNs += int64(time.Since(t0))

	e.eng.SetLiveTracing(false)
	t0 = time.Now()
	_, err := e.eng.Run(q.sql)
	p.untracedNs += int64(time.Since(t0))
	e.eng.SetLiveTracing(true)
	if err != nil {
		return err
	}

	root := p.rec.begin("request", -1, opID)
	err = p.stagedRead(root, opID, q, false)
	p.rec.end(root)
	p.ops++
	return err
}

// rwOp is one probe operation of rw_cycle: the transaction through the
// engine's own entry points, then the post-commit read, which replans
// because the commit invalidated the plan cache.
func (p *probe) rwOp(opID int) error {
	e := p.e
	st := e.rw
	k := st.keys[opID%len(st.keys)]
	writes := []string{rwUpdateSQL(k), rwInsertSQL(k, e.cfg.clients, opID)}
	read := rwRead(k)
	// txn runs the write half; with rec set, each engine call is a span.
	txn := func(parent int) error {
		staged := parent >= 0
		step := func(name string, fn func()) {
			if staged {
				p.stage(name, parent, opID, true, fn)
			} else {
				fn()
			}
		}
		var t *db.Txn
		var err error
		step("db.txn.begin", func() { t = e.eng.Begin() })
		for _, w := range writes {
			var stmts []sql.Statement
			step("sql.parse", func() { stmts, err = sql.ParseAll(w) })
			if err == nil {
				step("db.txn.write", func() { _, _, err = e.eng.RunStatementMeta(stmts[0], nil, db.QueryMeta{SQL: w, Txn: t}) })
			}
			if err != nil {
				t.Rollback()
				return err
			}
		}
		step("db.txn.commit", func() { err = t.Commit() })
		if err == nil {
			st.acked.Add(1)
			st.mu.Lock()
			st.perKey[k]++
			st.mu.Unlock()
		}
		return err
	}

	t0 := time.Now()
	if err := txn(-1); err != nil {
		return err
	}
	if err := p.embeddedRead(read.sql); err != nil {
		return err
	}
	p.embNs += int64(time.Since(t0))

	e.eng.SetLiveTracing(false)
	t0 = time.Now()
	err := txn(-1)
	if err == nil {
		_, err = e.eng.Run(read.sql)
	}
	p.untracedNs += int64(time.Since(t0))
	e.eng.SetLiveTracing(true)
	if err != nil {
		return err
	}

	root := p.rec.begin("request", -1, opID)
	if err = txn(root); err == nil {
		err = p.stagedRead(root, opID, read, true)
	}
	p.rec.end(root)
	p.ops++
	return err
}

// run replays up to sz.probeOps seeded operations, stopping early when
// the time budget is spent so a traced run stays inside the run cap.
func (p *probe) run() error {
	e := p.e
	par := e.eng.Parallelism()
	e.db.SetParallelism(1)
	defer e.db.SetParallelism(par)
	order := e.rng("probe").Perm(max(len(e.queries), 1))
	deadline := time.Now().Add(e.cfg.sz.probeBudget)
	for i := 0; i < e.cfg.sz.probeOps && time.Now().Before(deadline); i++ {
		var err error
		if e.rw != nil {
			err = p.rwOp(i)
		} else {
			err = p.readOp(i, &e.queries[order[i%len(order)]])
		}
		if err != nil {
			return fmt.Errorf("probe op %d: %v", i, err)
		}
	}
	if p.ops == 0 {
		return fmt.Errorf("probe ran no operation")
	}
	return nil
}

// scanRate drains the workload's largest table through a snapshot and
// returns rows per second (median of five drains).
func (p *probe) scanRate() (float64, error) {
	e := p.e
	table, rows := "", -1
	snap := e.eng.Snapshot()
	defer snap.Close()
	for _, t := range e.db.Tables() {
		if n, err := snap.TableLen(t); err == nil && n > rows {
			table, rows = t, n
		}
	}
	if rows <= 0 {
		return 0, fmt.Errorf("no table to scan")
	}
	var rates []float64
	for i := 0; i < 5; i++ {
		it, err := snap.TableBatches(table, 1024)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rel, err := urel.Drain(it)
		if err != nil {
			return 0, err
		}
		rates = append(rates, float64(len(rel.Tuples))/time.Since(t0).Seconds())
	}
	return median(rates), nil
}

// metrics turns the probe's totals into layer metrics.
func (p *probe) metrics(m map[string]float64) {
	n := float64(p.ops)
	self := selfTimes(p.rec.spans)
	perOpUs := func(name string) float64 { return float64(self[name]) / 1e3 / n }

	m["wire.encode_us_per_row"] = ratio(float64(p.encodeNs)/1e3, float64(p.wireRows))
	m["wire.decode_us_per_row"] = ratio(float64(p.decodeNs)/1e3, float64(p.wireRows))
	m["wire.bytes_per_row"] = ratio(float64(p.wireBytes), float64(p.wireRows))
	m["sql.parse_us"] = perOpUs("sql.parse")
	m["sql.normalize_us"] = perOpUs("sql.normalize")
	m["plan.build_us"] = mean(p.planBuildUs)
	m["plan.optimize_us"] = mean(p.planOptUs)
	if self["plan.build"] > 0 { // replanning workload: the spans are the measurement
		m["plan.build_us"], m["plan.optimize_us"] = perOpUs("plan.build"), perOpUs("plan.optimize")
	}
	m["db.snapshot_us"] = perOpUs("db.snapshot")
	m["db.unattributed_pct"] = 100 * ratio(float64(p.embNs-p.stagedNs), float64(p.embNs))
	m["trace.overhead_pct"] = 100 * ratio(float64(p.stagedNs-p.untracedNs), float64(p.untracedNs))
	m["conf.share_pct"] = 100 * ratio(float64(p.confNs), float64(p.embNs))

	for _, cl := range []string{"scan", "filter", "join", "agg", "sort"} {
		m["exec."+cl+"_self_ms"] = float64(p.byClass[cl]) / 1e6 / n
	}
	m["exec.ns_per_input_row"] = ratio(float64(p.pipelineNs), float64(p.scanRows))
	m["exec.rows_examined_per_result_row"] = ratio(float64(p.scanRows), float64(p.rootRows))

	m["lineage.build_ms"] = ratio(float64(p.lineageNs)/1e6, float64(p.confOps))
	var clauses, vars, exactMs, steps, wsMs, sproutMs, approxMs, trials []float64
	readOnce, maxRelErr := 0.0, 0.0
	for _, g := range p.groups {
		clauses = append(clauses, float64(g.clauses))
		vars = append(vars, float64(g.vars))
		exactMs = append(exactMs, g.exactMs)
		steps = append(steps, float64(g.exactSteps))
		wsMs = append(wsMs, g.wstreeMs)
		sproutMs = append(sproutMs, g.sproutMs)
		if g.readOnce {
			readOnce++
		}
		if g.approxTrials > 0 {
			approxMs = append(approxMs, g.approxMs)
			trials = append(trials, float64(g.approxTrials))
			maxRelErr = math.Max(maxRelErr, g.approxRelErr)
		}
	}
	m["lineage.clauses_per_group_p50"] = median(clauses)
	m["lineage.vars_per_group_p50"] = median(vars)
	m["conf.exact.ms_per_group_p50"] = median(exactMs)
	m["conf.exact.ms_per_group_p95"] = percentile(exactMs, 95)
	m["conf.exact.steps_per_group"] = mean(steps)
	m["wstree.build_ms_per_group"] = mean(wsMs)
	m["conf.sprout.readonce_ratio"] = ratio(readOnce, float64(len(p.groups)))
	m["conf.sprout.ms_per_group_p50"] = median(sproutMs)
	m["conf.approx.ms_per_group_p50"] = median(approxMs)
	m["conf.approx.samples_per_group"] = mean(trials)
	m["conf.approx.max_rel_err"] = maxRelErr
}
