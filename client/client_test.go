package client

import (
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maybms"
	"maybms/internal/server"
)

// startServer runs a MayBMS server on an httptest listener that counts
// accepted TCP connections. wrap, when non-nil, wraps the server's
// handler.
func startServer(t *testing.T, wrap func(http.Handler) http.Handler) (url string, conns *atomic.Int64, shutdown func()) {
	t.Helper()
	mdb := maybms.Open()
	mdb.MustExec(`create table nums (n int)`)
	for i := 0; i < 5; i++ {
		mdb.MustExec(fmt.Sprintf(`insert into nums values (%d)`, i))
	}
	srv := server.New(mdb, server.Options{})
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewUnstartedServer(h)
	conns = &atomic.Int64{}
	ts.Config.ConnState = func(c net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	return ts.URL, conns, func() {
		ts.Close()
		srv.Close()
	}
}

// Sequential requests over one client must reuse a single pooled
// connection: if keep-alive were broken (stale deadlines, transport
// misconfiguration), every request would dial anew.
func TestTransportReusesConnectionSequentially(t *testing.T) {
	url, conns, shutdown := startServer(t, nil)
	defer shutdown()
	db, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 12; i++ {
		if _, err := db.Query(`select n from nums order by n`); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("12 sequential queries dialled %d connections, want 1 (keep-alive reuse)", n)
	}
}

// A burst of parallel streaming queries needs one connection per
// stream, and the pool must keep every one of them warm: a second
// burst of the same size dials nothing, and neither do sequential
// queries after it. Both bursts are held on a barrier in the handler,
// so each runs exactly burstSize streams at once.
func TestTransportSurvivesParallelStreamBursts(t *testing.T) {
	const burstSize = 8
	type gate struct{ arrived, release chan struct{} }
	var cur atomic.Pointer[gate]
	hold := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if g := cur.Load(); g != nil && r.URL.Path == "/v1/query/stream" {
				g.arrived <- struct{}{}
				<-g.release
			}
			h.ServeHTTP(w, r)
		})
	}
	url, conns, shutdown := startServer(t, hold)
	defer shutdown()
	db, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	burst := func() {
		g := &gate{arrived: make(chan struct{}, burstSize), release: make(chan struct{})}
		cur.Store(g)
		defer cur.Store(nil)
		var wg sync.WaitGroup
		for i := 0; i < burstSize; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows, err := db.QueryRows(`select n from nums order by n`)
				if err != nil {
					t.Error(err)
					return
				}
				defer rows.Close()
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					t.Error(err)
				}
			}()
		}
		timeout := time.After(30 * time.Second)
	wait:
		for i := 0; i < burstSize; i++ {
			select {
			case <-g.arrived:
			case <-timeout:
				t.Errorf("only %d of %d streams reached the server", i, burstSize)
				break wait
			}
		}
		close(g.release)
		wg.Wait()
	}

	burst()
	after := conns.Load()
	if after > burstSize+1 { // session open + one conn per concurrent stream
		t.Fatalf("first burst dialled %d connections, want <= %d", after, burstSize+1)
	}
	burst()
	if n := conns.Load(); n != after {
		t.Errorf("second burst dialled %d new connections, want 0 (pool reuse)", n-after)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.Query(`select n from nums order by n`); err != nil {
			t.Fatal(err)
		}
	}
	if n := conns.Load(); n != after {
		t.Errorf("sequential queries after the bursts dialled %d new connections, want 0", n-after)
	}
}

// Trace ids round-trip through the client: a configured id is sent on
// every request and the server's echo is observable; without one the
// server's generated id still lands in LastTraceID, and streaming
// Rows carry theirs.
func TestTraceIDRoundTrip(t *testing.T) {
	url, _, shutdown := startServer(t, nil)
	defer shutdown()
	c, err := Open(url)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(`select n from nums limit 1`); err != nil {
		t.Fatal(err)
	}
	gen := c.LastTraceID()
	if len(gen) != 16 {
		t.Errorf("generated trace id %q, want 16 hex digits", gen)
	}

	c.SetTraceID("trace-roundtrip-7")
	if _, err := c.Query(`select n from nums limit 1`); err != nil {
		t.Fatal(err)
	}
	if got := c.LastTraceID(); got != "trace-roundtrip-7" {
		t.Errorf("LastTraceID = %q, want the configured id echoed", got)
	}

	rows, err := c.QueryRows(`select n from nums order by n`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if got := rows.TraceID(); got != "trace-roundtrip-7" {
		t.Errorf("stream TraceID = %q, want the configured id", got)
	}
	for rows.Next() {
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
}
