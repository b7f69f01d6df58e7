package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"maybms"
	"maybms/client"
	"maybms/internal/db"
	"maybms/internal/server"
)

// config is one run's parameters; everything a workload generates comes
// from seed.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	clients  int
	smoke    bool
	sz       sizes
	outDir   string
}

// workload is one traffic mix. load is the timed part of set-up (create
// and fill the tables); prepare builds the operation list and the
// expected answers by a second route and is not timed.
type workload struct {
	name    string
	disk    bool
	load    func(e *env) error
	prepare func(e *env) error
}

var workloads = []*workload{
	{name: "conf_exact", load: loadConf, prepare: func(e *env) error { return prepareConf(e, false) }},
	{name: "aconf_mc", load: loadConf, prepare: func(e *env) error { return prepareConf(e, true) }},
	{name: "scan_expr", load: loadScan, prepare: prepareScan},
	{name: "short_rpc", load: loadRPC, prepare: prepareRPC},
	{name: "rw_cycle", disk: true, load: loadRW, prepare: prepareRW},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// query is one read operation: the statement sent, and the rows it must
// return. Confidence queries also carry their un-aggregated form, which
// yields the lineage the confidence layer works on.
type query struct {
	sql   string
	plain string
	// eps and delta are set on aconf queries: p cells are then checked
	// against the exact value with relative tolerance eps.
	eps, delta float64
	want       [][]interface{}
}

// env is one set-up instance: an engine, the server in front of it on a
// loopback listener, and one client session per closed-loop client.
type env struct {
	cfg config
	db  *maybms.DB
	eng *db.Database
	srv *server.Server
	hs  *http.Server
	url string
	dir string

	served chan error
	sess   []*client.DB

	queries []query
	order   [][]int // per client: seeded visiting order of queries
	next    []int   // per client: operations issued so far
	op      func(c, i int) error
	rw      *rwState

	aconfGroups   atomic.Int64
	aconfOutliers atomic.Int64

	failMu   sync.Mutex
	failures []string
}

// rng derives an independent, reproducible stream from the run's seed.
func (e *env) rng(stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(e.cfg.seed ^ int64(h.Sum64())))
}

// structureSeed fixes the shape of generated data (which edges exist,
// which rows join) for every run. The run's seed draws the values,
// probabilities and literal order on top, so runs with different seeds
// do the same amount of work and their timings are comparable.
const structureSeed = 20090629

// setUp builds the workload's database, loads it, starts the server
// with `maybms serve` defaults and opens the client sessions. Its
// duration is the setup_s metric.
func setUp(cfg config, w *workload) (*env, error) {
	e := &env{cfg: cfg, next: make([]int, cfg.clients)}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	if w.disk {
		var err error
		if e.dir, err = os.MkdirTemp(cfg.outDir, "data-"+w.name+"-"); err != nil {
			return nil, err
		}
		// Fsync off is the `maybms serve -engine disk` default: the WAL
		// is synced by the engine's ~200 ms timer, not per commit.
		d, err := maybms.OpenDurable(maybms.Options{DataDir: e.dir, CheckpointBytes: cfg.sz.rwCheckpointBytes})
		if err != nil {
			return nil, err
		}
		e.db = d
	} else {
		e.db = maybms.Open()
	}
	e.eng = e.db.Engine()
	if err := w.load(e); err != nil {
		e.close()
		return nil, fmt.Errorf("load: %v", err)
	}
	e.srv = server.New(e.db, server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = "http://" + ln.Addr().String()
	e.hs = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	for c := 0; c < cfg.clients; c++ {
		s, err := client.Open(e.url)
		if err != nil {
			e.close()
			return nil, err
		}
		e.sess = append(e.sess, s)
	}
	return e, nil
}

// stopServing closes the sessions and the HTTP server and waits for the
// serving goroutine; the database stays open.
func (e *env) stopServing() {
	for _, s := range e.sess {
		s.Close() // the server drops remaining sessions on Close anyway
	}
	e.sess = nil
	if e.hs != nil {
		e.hs.Close()
		<-e.served
		e.hs = nil
	}
	if e.srv != nil {
		e.srv.Close()
		e.srv = nil
	}
}

// close tears the instance down and removes its data directory.
func (e *env) close() error {
	e.stopServing()
	var err error
	if e.db != nil {
		err = e.db.Close()
		e.db = nil
	}
	if e.dir != "" {
		if rerr := os.RemoveAll(e.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// exec runs a statement embedded, for loading.
func (e *env) exec(src string) error {
	_, err := e.db.Exec(src)
	return err
}

// insertRows bulk-loads n rows in multi-row INSERT statements; row
// renders the i-th row's value list.
func (e *env) insertRows(table string, n int, row func(b *strings.Builder, i int)) error {
	const chunk = 2000
	var b strings.Builder
	for lo := 0; lo < n; lo += chunk {
		b.Reset()
		b.WriteString("insert into " + table + " values ")
		for i := lo; i < lo+chunk && i < n; i++ {
			if i > lo {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			row(&b, i)
			b.WriteByte(')')
		}
		if err := e.exec(b.String()); err != nil {
			return err
		}
	}
	return nil
}

// reference computes a query's rows by the second route: the recursive
// reference executor over the unoptimized plan, bypassing the streaming
// pipeline, the optimizer and the plan cache.
func (e *env) reference(src string) ([][]interface{}, error) {
	rel, err := e.eng.QueryRel(src, true)
	if err != nil {
		return nil, fmt.Errorf("reference %s: %v", src, err)
	}
	return maybms.RowsFromRel(rel).Data, nil
}

// setQueries installs the read operations and gives each client its own
// seeded visiting order, so the normalised shapes repeat while the
// literal bytes rotate.
func (e *env) setQueries(qs []query) {
	e.queries = qs
	e.order = make([][]int, e.cfg.clients)
	for c := range e.order {
		e.order[c] = e.rng(fmt.Sprintf("order-%d", c)).Perm(len(qs))
	}
	e.op = func(c, i int) error {
		q := &e.queries[e.order[c][i%len(qs)]]
		rows, err := e.sess[c].Query(q.sql)
		if err != nil {
			return fmt.Errorf("%v: %s", err, q.sql)
		}
		return e.check(q, rows.Data)
	}
}

// sqlHash fingerprints the generated statements, for the same-seed /
// different-seed self-test.
func (e *env) sqlHash() uint64 {
	h := fnv.New64a()
	for c := range e.order {
		for _, qi := range e.order[c] {
			h.Write([]byte(e.queries[qi].sql))
			h.Write([]byte{0})
		}
	}
	if e.rw != nil {
		for _, k := range e.rw.keys {
			fmt.Fprintf(h, "%d,", k)
		}
	}
	return h.Sum64()
}

// check compares a response with the expected rows cell for cell.
func (e *env) check(q *query, got [][]interface{}) error {
	if len(got) != len(q.want) {
		return fmt.Errorf("wrong answer: %d rows, want %d: %s", len(got), len(q.want), q.sql)
	}
	for r := range got {
		if len(got[r]) != len(q.want[r]) {
			return fmt.Errorf("wrong answer: row %d has %d cells, want %d: %s", r, len(got[r]), len(q.want[r]), q.sql)
		}
		for c := range got[r] {
			g, w := got[r][c], q.want[r][c]
			if gf, ok := g.(float64); ok && q.eps > 0 {
				wf, _ := w.(float64)
				e.aconfGroups.Add(1)
				if math.IsNaN(gf) || math.IsInf(gf, 0) {
					return fmt.Errorf("wrong answer: row %d cell %d is %v: %s", r, c, gf, q.sql)
				}
				if math.Abs(gf-wf) > q.eps*wf {
					e.aconfOutliers.Add(1)
				}
				continue
			}
			if g != w {
				return fmt.Errorf("wrong answer: row %d cell %d = %v, want %v: %s", r, c, g, w, q.sql)
			}
		}
	}
	return nil
}

func (e *env) noteFailure(err error) {
	e.failMu.Lock()
	if len(e.failures) < 10 {
		e.failures = append(e.failures, err.Error())
	}
	e.failMu.Unlock()
}

// drive runs the closed loop for d: every client issues its next
// operation as soon as the previous reply has been checked. It returns
// every operation started inside the window.
func (e *env) drive(d time.Duration) []sample {
	start := time.Now()
	per := make([][]sample, e.cfg.clients)
	var wg sync.WaitGroup
	for c := 0; c < e.cfg.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := make([]sample, 0, 1<<14)
			for {
				t0 := time.Now()
				if t0.Sub(start) >= d {
					break
				}
				err := e.op(c, e.next[c])
				e.next[c]++
				t1 := time.Now()
				out = append(out, sample{done: t1.Sub(start), lat: t1.Sub(t0), ok: err == nil})
				if err != nil {
					e.noteFailure(err)
				}
			}
			per[c] = out
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the system and restarts the
// kernel's resident-set high-water mark at the current resident set.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: peak_rss_mb includes set-up: %v\n", err)
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc/self/status")
}

// window is the outcome of one measurement window.
type window struct {
	samples   []sample
	length    time.Duration
	cpu       time.Duration
	attempted int
	failed    int
	latMs     []float64
}

func (e *env) measure(d time.Duration) window {
	cpu0 := cpuTime()
	samples := e.drive(d)
	w := window{samples: samples, length: d, cpu: cpuTime() - cpu0, attempted: len(samples)}
	for _, s := range samples {
		if !s.ok {
			w.failed++
		}
		w.latMs = append(w.latMs, ms(s.lat))
	}
	return w
}
