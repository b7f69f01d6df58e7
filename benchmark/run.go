package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// metric is one reported number.
type metric struct {
	Name  string
	Value float64
	Unit  string
}

// result is the outcome of one run of one workload: with trace off its
// metrics are the end-to-end ones, with trace on the per-layer ones.
type result struct {
	Workload     string
	Trace        bool
	Correct      bool
	Attempted    int
	Failed       int
	Undersampled bool
	Metrics      []metric
	Failures     []string
	// Probed is how many operations the traced probe replayed.
	Probed int
}

// endToEndUnits and perLayerUnits name every metric this harness
// reports, in print order, with its unit; BENCHMARK.json lists the same
// names (the self-test holds the two together).
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayerUnits = [][2]string{
	{"server.rpc_overhead_us", "us"},
	{"wire.encode_us_per_row", "us"},
	{"wire.decode_us_per_row", "us"},
	{"wire.bytes_per_row", "B"},
	{"sql.parse_us", "us"},
	{"sql.normalize_us", "us"},
	{"plan.build_us", "us"},
	{"plan.optimize_us", "us"},
	{"db.plancache_hit_ratio", "ratio"},
	{"db.snapshot_us", "us"},
	{"db.snapshots_open_max", "count"},
	{"db.txn.commit_us_p50", "us"},
	{"db.txn.commit_us_p95", "us"},
	{"db.txn.read_us_p50", "us"},
	{"db.txn.conflict_ratio", "ratio"},
	{"db.txn.retries_per_op", "ratio"},
	{"db.unattributed_pct", "%"},
	{"exec.scan_self_ms", "ms"},
	{"exec.filter_self_ms", "ms"},
	{"exec.join_self_ms", "ms"},
	{"exec.agg_self_ms", "ms"},
	{"exec.sort_self_ms", "ms"},
	{"exec.ns_per_input_row", "ns"},
	{"exec.rows_examined_per_result_row", "ratio"},
	{"exec.parallel.partitions_per_query", "ratio"},
	{"exec.parallel.inline_run_ratio", "ratio"},
	{"exec.pool.busy_highwater", "count"},
	{"storage.scan_rows_per_s", "1/s"},
	{"storage.wal.bytes_per_commit", "B"},
	{"storage.wal.appends_per_commit", "ratio"},
	{"storage.wal.fsyncs_total", "count"},
	{"storage.disk.checkpoints", "count"},
	{"storage.disk.checkpoint_s_total", "s"},
	{"storage.disk.compactions", "count"},
	{"storage.disk.segments_live", "count"},
	{"storage.disk.bytes_per_user_byte", "ratio"},
	{"storage.disk.reopen_s", "s"},
	{"lineage.build_ms", "ms"},
	{"lineage.clauses_per_group_p50", "count"},
	{"lineage.vars_per_group_p50", "count"},
	{"conf.exact.ms_per_group_p50", "ms"},
	{"conf.exact.ms_per_group_p95", "ms"},
	{"conf.exact.steps_per_group", "count"},
	{"wstree.build_ms_per_group", "ms"},
	{"conf.sprout.readonce_ratio", "ratio"},
	{"conf.sprout.ms_per_group_p50", "ms"},
	{"conf.approx.ms_per_group_p50", "ms"},
	{"conf.approx.samples_per_group", "count"},
	{"conf.approx.max_rel_err", "ratio"},
	{"conf.share_pct", "%"},
	{"proc.alloc_bytes_per_op", "B"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cpu_pct", "%"},
	{"proc.gc_pause_ms_total", "ms"},
	{"proc.goroutines_max", "count"},
	{"trace.overhead_pct", "%"},
}

// ordered renders m in the given order; a metric a workload has nothing
// to say about (WAL counters on a memory-engine workload) reports 0.
func ordered(units [][2]string, m map[string]float64) ([]metric, error) {
	out := make([]metric, 0, len(units))
	for _, u := range units {
		v := m[u[0]]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", u[0], v)
		}
		out = append(out, metric{Name: u[0], Value: v, Unit: u[1]})
	}
	return out, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// An untraced run sets up again and again until setupBudget is spent,
// at least minSetups times; setup_s is the median. One set-up takes 15
// to 110 ms, and the median of nine still moved by a fifth between runs.
const (
	minSetups   = 9
	setupBudget = time.Second
)

// runWorkload performs one run: set-up, warm-up, the untraced window,
// answer and invariant checks, and, with trace on, the traced probe.
func runWorkload(cfg config) (*result, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}

	// Set-up is repeated and its median reported, so one slow load does
	// not decide setup_s; only the last instance is kept. A traced run
	// reports no set-up time and sets up once.
	var e *env
	var setupS []float64
	var spent time.Duration
	for e == nil || !cfg.trace && (len(setupS) < minSetups || spent < setupBudget) {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, fmt.Errorf("teardown: %v", err)
			}
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(cfg, w); err != nil {
			return nil, fmt.Errorf("set-up: %v", err)
		}
		d := time.Since(t0)
		spent += d
		setupS = append(setupS, d.Seconds())
	}
	defer func() { e.close() }()
	if err := w.prepare(e); err != nil {
		return nil, fmt.Errorf("expected answers: %v", err)
	}

	// peak_rss_mb is the serving path's: what the set-ups and the
	// reference executor left behind is given back before warm-up.
	resetPeakRSS()

	// Warm-up fills the plan cache and finishes lazy set-up. A failure
	// during it still makes the run incorrect (it is in e.failures).
	e.drive(cfg.sz.warmup)

	m := map[string]float64{}
	var before map[string]float64
	var p0 procCounters
	var g *gauges
	if cfg.trace {
		var err error
		if before, err = scrape(e.url); err != nil {
			return nil, err
		}
		if e.rw != nil {
			e.rw.keepSplits = true
		}
		p0 = readProc()
		g = startGauges(e.eng)
	}
	win := e.measure(seconds(cfg.seconds))
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Trace: cfg.trace, Attempted: win.attempted, Failed: win.failed}
	if cfg.trace {
		g.finish()
		p1 := readProc()
		after, err := scrape(e.url)
		if err != nil {
			return nil, err
		}
		counterMetrics(m, win, before, after, p0, p1, g)
		if e.rw != nil {
			e.rw.keepSplits = false
			var commit, read []float64
			for _, s := range e.rw.splits {
				commit = append(commit, us(s.commit))
				read = append(read, us(s.read))
			}
			m["db.txn.commit_us_p50"] = median(commit)
			m["db.txn.commit_us_p95"] = percentile(commit, 95)
			m["db.txn.read_us_p50"] = median(read)
		}
	}

	// aconf answers are estimates: each must be within ε of the exact
	// value for at least 1−δ of the groups checked.
	if groups := e.aconfGroups.Load(); groups > 0 {
		if out := e.aconfOutliers.Load(); float64(out) > aconfDelta*float64(groups) {
			res.Failed += int(out)
			e.noteFailure(fmt.Errorf("aconf: %d of %d group estimates were off by more than ε=%g", out, groups, aconfEps))
		}
	}
	if e.rw != nil {
		if err := rwInvariants(e.db.QueryFloat, cfg.sz.rwKeys, e.rw.acked.Load()); err != nil {
			res.Failed++
			e.noteFailure(err)
		}
	}

	if cfg.trace {
		p := newProbe(e)
		if err := p.run(); err != nil {
			return nil, err
		}
		res.Probed = p.ops
		p.metrics(m)
		rate, err := p.scanRate()
		if err != nil {
			return nil, err
		}
		m["storage.scan_rows_per_s"] = rate
		if err := writeTrace(cfg, p); err != nil {
			return nil, err
		}
	}

	if e.rw != nil {
		// Durability: reopen the data directory and check that every
		// acknowledged commit is there.
		userBytes := float64(rowBytes) * (float64(cfg.sz.rwKeys) + 2*float64(e.rw.acked.Load()))
		reopen, dirBytes, err := e.rwReopen()
		if err != nil {
			res.Failed++
			e.noteFailure(err)
		}
		m["storage.disk.reopen_s"] = reopen.Seconds()
		m["storage.disk.bytes_per_user_byte"] = ratio(float64(dirBytes), userBytes)
	}

	res.Failures = e.failures
	res.Correct = res.Failed == 0 && len(e.failures) == 0
	res.Undersampled = win.attempted < cfg.sz.minOps

	if cfg.trace {
		res.Metrics, err = ordered(perLayerUnits, m)
		return res, err
	}
	ops := float64(win.attempted - win.failed)
	m["setup_s"] = median(setupS)
	m["throughput_ops_s"] = sliceThroughput(win.samples, win.length, 5)
	m["latency_p50_ms"] = percentile(win.latMs, 50)
	m["latency_p95_ms"] = percentile(win.latMs, 95)
	m["cpu_ms_per_op"] = ratio(ms(win.cpu), ops)
	m["peak_rss_mb"] = peakRSS
	res.Metrics, err = ordered(endToEndUnits, m)
	return res, err
}

// traceFile is what benchmark/out/trace-<workload>.json holds.
type traceFile struct {
	Workload   string           `json:"workload"`
	Seed       int64            `json:"seed"`
	Operations int              `json:"operations"`
	SelfNs     map[string]int64 `json:"self_ns_by_layer"`
	Spans      []span           `json:"spans"`
}

func writeTrace(cfg config, p *probe) error {
	buf, err := json.Marshal(traceFile{
		Workload: cfg.workload, Seed: cfg.seed, Operations: p.ops,
		SelfNs: selfTimes(p.rec.spans), Spans: p.rec.spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json"), buf, 0o644)
}
