package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"maybms"
	"maybms/client"
)

// rwState is what the harness knows about the rw_cycle database without
// asking it: every acknowledged commit, per key, so that the final state
// and every read can be checked.
type rwState struct {
	keys     []int                   // seeded key sequence both clients draw from
	wantConf [rwGroups][]interface{} // expected conf() cell per group
	acked    atomic.Int64

	mu         sync.Mutex
	perKey     map[int]int64 // acknowledged increments per key
	splits     []cycleSplit
	keepSplits bool
}

// cycleSplit is one cycle's client-side timing: the transaction's
// BEGIN/COMMIT calls (retries included), and the read after it.
type cycleSplit struct{ commit, read time.Duration }

const (
	rwGroups = 64
	rwAlts   = 3
	// rowBytes is the user payload of one acct or log row: three ints.
	rowBytes = 24
)

// loadRW builds the read-write tables on the disk engine: 4096 counters,
// an append-only log, and a small repair-key relation the read joins
// the touched counter's group with.
func loadRW(e *env) error {
	if err := e.exec(`create table acct (k int, grp int, cnt int);
		create table log (k int, client int, seq int);
		create table src (grp int, alt int, w float)`); err != nil {
		return err
	}
	if err := e.insertRows("acct", e.cfg.sz.rwKeys, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, 0", i, i%rwGroups)
	}); err != nil {
		return err
	}
	vals := e.rng("rw-values")
	if err := e.insertRows("src", rwGroups*rwAlts, func(b *strings.Builder, i int) {
		fmt.Fprintf(b, "%d, %d, %g", i/rwAlts, i%rwAlts, 1+vals.Float64())
	}); err != nil {
		return err
	}
	return e.exec(`create table u as repair key grp in src weight by w`)
}

func rwUpdateSQL(k int) string {
	return fmt.Sprintf(`update acct set cnt = cnt + 1 where k = %d`, k)
}

func rwInsertSQL(k, client, seq int) string {
	return fmt.Sprintf(`insert into log values (%d, %d, %d)`, k, client, seq)
}

// rwRead is the post-commit read of key k, with its un-aggregated form.
func rwRead(k int) *query {
	const from = "acct a, u"
	where := fmt.Sprintf("a.k = %d and u.grp = a.grp and u.alt < 2", k)
	return &query{
		sql:   fmt.Sprintf("select a.cnt, conf() p from %s where %s group by a.cnt", from, where),
		plain: fmt.Sprintf("select a.cnt from %s where %s", from, where),
	}
}

func prepareRW(e *env) error {
	st := &rwState{perKey: map[int]int64{}}
	// Keys are requested unevenly (Zipf, s = 1.1): a few counters are hot,
	// so the two clients collide on roughly one cycle in a hundred and
	// the retry path is exercised without dominating.
	zipf := rand.NewZipf(e.rng("rw-keys"), 1.1, 1, uint64(e.cfg.sz.rwKeys-1))
	st.keys = make([]int, 1<<14)
	for i := range st.keys {
		st.keys[i] = int(zipf.Uint64())
	}
	// The read's confidence depends only on the key's group, which no
	// operation writes; one reference answer per group covers every read.
	for g := 0; g < rwGroups && g < e.cfg.sz.rwKeys; g++ {
		q := rwRead(g)
		want, err := e.reference(q.sql)
		if err != nil {
			return err
		}
		if len(want) != 1 {
			return fmt.Errorf("reference read returned %d rows: %s", len(want), q.sql)
		}
		q.want = want
		if err := e.checkNaive(q); err != nil {
			return err
		}
		st.wantConf[g] = want[0][1:]
	}
	e.rw = st
	e.op = e.rwCycle
	return nil
}

// rwCycle is one operation: a transaction through client.RunTxn that
// bumps one counter and appends one log row, then a conf() read over the
// touched counter's group. Both clients draw keys from the same skewed
// sequence, so two cycles occasionally collide and one commit is retried.
func (e *env) rwCycle(c, i int) error {
	st := e.rw
	k := st.keys[(i*e.cfg.clients+c)%len(st.keys)]
	sess := e.sess[c]
	t0 := time.Now()
	var body time.Duration
	err := sess.RunTxn(func(d *client.DB) error {
		b0 := time.Now()
		defer func() { body += time.Since(b0) }()
		if _, err := d.Exec(rwUpdateSQL(k)); err != nil {
			return err
		}
		_, err := d.Exec(rwInsertSQL(k, c, i))
		return err
	})
	txn := time.Since(t0)
	if err != nil {
		return fmt.Errorf("cycle on key %d: %v", k, err)
	}
	st.acked.Add(1)
	st.mu.Lock()
	st.perKey[k]++
	own := st.perKey[k]
	st.mu.Unlock()

	r0 := time.Now()
	src := rwRead(k).sql
	rows, err := sess.Query(src)
	read := time.Since(r0)
	if err != nil {
		return fmt.Errorf("%v: %s", err, src)
	}
	if st.keepSplits {
		st.mu.Lock()
		st.splits = append(st.splits, cycleSplit{commit: txn - body, read: read})
		st.mu.Unlock()
	}
	return e.checkRWRead(k, own, rows.Data, src)
}

// checkRWRead verifies a post-commit read: one row, a counter that
// includes every commit this harness has had acknowledged for the key at
// the time of the read, and the group's confidence cell for cell.
func (e *env) checkRWRead(k int, atLeast int64, got [][]interface{}, src string) error {
	if len(got) != 1 || len(got[0]) != 2 {
		return fmt.Errorf("wrong answer: %d rows: %s", len(got), src)
	}
	cnt, ok := got[0][0].(int64)
	if !ok || cnt < atLeast {
		return fmt.Errorf("wrong answer: cnt = %v, acknowledged commits on the key = %d: %s", got[0][0], atLeast, src)
	}
	if want := e.rw.wantConf[k%rwGroups][0]; got[0][1] != want {
		return fmt.Errorf("wrong answer: conf = %v, want %v: %s", got[0][1], want, src)
	}
	return nil
}

// rwInvariants checks the database against the acknowledged commits:
// every commit added exactly one log row and one counter increment.
func rwInvariants(q func(string) (float64, error), keys int, acked int64) error {
	for _, c := range []struct {
		sql  string
		want float64
	}{
		{`select count(*) from acct`, float64(keys)},
		{`select count(*) from log`, float64(acked)},
		{`select sum(cnt) from acct`, float64(acked)},
	} {
		got, err := q(c.sql)
		if err != nil {
			return fmt.Errorf("%s: %v", c.sql, err)
		}
		if got != c.want {
			return fmt.Errorf("invariant broken: %s = %v, acknowledged commits say %v", c.sql, got, c.want)
		}
	}
	return nil
}

// rwReopen closes the instance, reopens its data directory and checks
// the invariants again: an acknowledged commit that did not survive is
// an error. It returns the reopen time and the directory's size.
func (e *env) rwReopen() (reopen time.Duration, dirBytes int64, err error) {
	acked := e.rw.acked.Load()
	e.stopServing()
	if err := e.db.Close(); err != nil {
		return 0, 0, fmt.Errorf("close: %v", err)
	}
	e.db = nil
	dirBytes = dirSize(e.dir)
	t0 := time.Now()
	d, err := maybms.OpenDurable(maybms.Options{DataDir: e.dir})
	reopen = time.Since(t0)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen: %v", err)
	}
	e.db, e.eng = d, d.Engine()
	if err := rwInvariants(d.QueryFloat, e.cfg.sz.rwKeys, acked); err != nil {
		return 0, 0, fmt.Errorf("after reopen: %v", err)
	}
	return reopen, dirBytes, nil
}

func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
