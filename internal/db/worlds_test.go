package db

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"maybms/internal/schema"
	"maybms/internal/urel"
	"maybms/internal/ws"
)

// The central correctness property of the positive-RA translation
// (Antova et al., ICDE 2008): evaluating a query on U-relations and
// then looking at any world gives the same answer as looking at the
// world first and evaluating the query on the certain instance.
//
//	⟦Q⟧(rep)  in world w   ==   Q(rep in world w)

// worldFixture builds a database with two uncertain tables u1(k,v)
// and u2(k,w) over a handful of variables.
func worldFixture(t *testing.T) *Database {
	t.Helper()
	d := New()
	mustRun(t, d, `
		create table b1 (k int, v int, weight float);
		insert into b1 values (1, 10, 1), (1, 20, 3), (2, 30, 1), (2, 40, 1), (3, 50, 2);
		create table b2 (k int, w int, p float);
		insert into b2 values (1, 7, 0.5), (2, 8, 0.25), (3, 9, 0.75);
		create table u1 as repair key k in b1 weight by weight;
		create table u2 as select k, w from (pick tuples from b2 independently with probability p) pt;
	`)
	return d
}

// multisetKey renders a certain instance canonically.
func multisetKey(tuples []schema.Tuple) string {
	keys := make([]string, len(tuples))
	for i, tp := range tuples {
		keys[i] = tp.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// allVars lists every variable in the store.
func allVars(s *ws.Store) []ws.VarID {
	out := make([]ws.VarID, s.NumVars())
	for i := range out {
		out[i] = ws.VarID(i)
	}
	return out
}

// snapRel reads a stored table through a snapshot.
func snapRel(d *Database, name string) (*urel.Rel, error) {
	snap := d.Snapshot()
	defer snap.Close()
	return snap.TableRel(name)
}

// checkCommutes verifies the commutation property for one query. The
// query must reference only u1/u2; per world, the uncertain tables are
// replaced by their instance in that world.
func checkCommutes(t *testing.T, d *Database, query string) {
	t.Helper()
	res := mustRun(t, d, query)
	u1, _ := snapRel(d, "u1")
	u2, _ := snapRel(d, "u2")

	d.Store().EnumerateWorlds(allVars(d.Store()), func(assign map[ws.VarID]int, p float64) {
		// Expected: run the query in a fresh certain database holding
		// this world's instances.
		world := New()
		mustRun(t, world, "create table u1 (k int, v int)")
		mustRun(t, world, "create table u2 (k int, w int)")
		for _, tp := range u1.InWorld(assign) {
			mustRun(t, world, fmt.Sprintf("insert into u1 values (%d, %d)", tp[0].Int(), tp[1].Int()))
		}
		for _, tp := range u2.InWorld(assign) {
			mustRun(t, world, fmt.Sprintf("insert into u2 values (%d, %d)", tp[0].Int(), tp[1].Int()))
		}
		want := mustRun(t, world, query)

		var wantTuples []schema.Tuple
		for _, tp := range want.Rel.Tuples {
			wantTuples = append(wantTuples, tp.Data)
		}
		got := res.Rel.InWorld(assign)
		if multisetKey(got) != multisetKey(wantTuples) {
			t.Fatalf("world %v (p=%v) differs for %q:\n got  %v\n want %v",
				assign, p, query, got, wantTuples)
		}
	})
}

func TestQueryCommutesWithWorlds(t *testing.T) {
	queries := []string{
		`select v from u1 where v > 15`,
		`select k from u1`,
		`select u1.v, u2.w from u1, u2 where u1.k = u2.k`,
		`select u1.v from u1, u2 where u1.k = u2.k and u2.w > 7`,
		`select v from u1 where k = 1 union all select w from u2`,
		`select a.v from u1 a, u1 b where a.k < b.k and a.v + 10 = b.v`,
	}
	for _, q := range queries {
		d := worldFixture(t)
		checkCommutes(t, d, q)
	}
}

// TestConfMatchesWorldSemantics: conf() equals the total probability
// of the worlds where the tuple appears.
func TestConfMatchesWorldSemantics(t *testing.T) {
	d := worldFixture(t)
	res := mustRun(t, d, `select u1.k, conf() p from u1, u2 where u1.k = u2.k group by u1.k order by u1.k`)

	// Recompute by enumeration.
	joined := mustRun(t, d, `select u1.k from u1, u2 where u1.k = u2.k`)
	wantByK := map[int64]float64{}
	d.Store().EnumerateWorlds(allVars(d.Store()), func(assign map[ws.VarID]int, p float64) {
		seen := map[int64]bool{}
		for _, tp := range joined.Rel.InWorld(assign) {
			seen[tp[0].Int()] = true
		}
		for k := range seen {
			wantByK[k] += p
		}
	})
	for _, row := range res.Rel.Tuples {
		k := row.Data[0].Int()
		got := row.Data[1].Float()
		if math.Abs(got-wantByK[k]) > 1e-9 {
			t.Errorf("conf for k=%d: %v want %v", k, got, wantByK[k])
		}
		delete(wantByK, k)
	}
	for k, p := range wantByK {
		if p > 1e-12 {
			t.Errorf("missing group k=%d with probability %v", k, p)
		}
	}
}

// TestESumMatchesExpectation: esum/ecount equal the world-enumerated
// expectations.
func TestESumMatchesExpectation(t *testing.T) {
	d := worldFixture(t)
	res := mustRun(t, d, `select k, esum(v) s, ecount() c from u1 group by k order by k`)

	u1, _ := snapRel(d, "u1")
	wantSum := map[int64]float64{}
	wantCnt := map[int64]float64{}
	d.Store().EnumerateWorlds(allVars(d.Store()), func(assign map[ws.VarID]int, p float64) {
		for _, tp := range u1.InWorld(assign) {
			wantSum[tp[0].Int()] += p * float64(tp[1].Int())
			wantCnt[tp[0].Int()] += p
		}
	})
	for _, row := range res.Rel.Tuples {
		k := row.Data[0].Int()
		if math.Abs(row.Data[1].Float()-wantSum[k]) > 1e-9 {
			t.Errorf("esum k=%d: %v want %v", k, row.Data[1].Float(), wantSum[k])
		}
		if math.Abs(row.Data[2].Float()-wantCnt[k]) > 1e-9 {
			t.Errorf("ecount k=%d: %v want %v", k, row.Data[2].Float(), wantCnt[k])
		}
	}
}

// TestPossibleMatchesWorldSemantics: possible returns exactly the
// tuples appearing in at least one positive-probability world.
func TestPossibleMatchesWorldSemantics(t *testing.T) {
	d := worldFixture(t)
	res := mustRun(t, d, `select possible v from u1 order by v`)

	u1, _ := snapRel(d, "u1")
	want := map[int64]bool{}
	d.Store().EnumerateWorlds(allVars(d.Store()), func(assign map[ws.VarID]int, p float64) {
		for _, tp := range u1.InWorld(assign) {
			want[tp[1].Int()] = true
		}
	})
	if len(res.Rel.Tuples) != len(want) {
		t.Fatalf("possible: %d rows want %d", len(res.Rel.Tuples), len(want))
	}
	for _, row := range res.Rel.Tuples {
		if !want[row.Data[0].Int()] {
			t.Errorf("impossible tuple %v", row.Data)
		}
	}
}

// TestUncertainINCommutesWithWorlds: the semijoin translation of
// positive uncertain IN matches world semantics on the set of
// possible answers and their probabilities.
func TestUncertainINCommutesWithWorlds(t *testing.T) {
	d := worldFixture(t)
	res := mustRun(t, d, `select k, conf() p from u1 where k in (select k from u2) group by k order by k`)

	u1, _ := snapRel(d, "u1")
	u2, _ := snapRel(d, "u2")
	want := map[int64]float64{}
	d.Store().EnumerateWorlds(allVars(d.Store()), func(assign map[ws.VarID]int, p float64) {
		inU2 := map[int64]bool{}
		for _, tp := range u2.InWorld(assign) {
			inU2[tp[0].Int()] = true
		}
		seen := map[int64]bool{}
		for _, tp := range u1.InWorld(assign) {
			if inU2[tp[0].Int()] {
				seen[tp[0].Int()] = true
			}
		}
		for k := range seen {
			want[k] += p
		}
	})
	for _, row := range res.Rel.Tuples {
		k := row.Data[0].Int()
		if math.Abs(row.Data[1].Float()-want[k]) > 1e-9 {
			t.Errorf("IN conf k=%d: %v want %v", k, row.Data[1].Float(), want[k])
		}
	}
}

// TestRepeatedRepairKeyIndependence: two repair-key invocations over
// the same table are independent experiments (fresh variables), the
// property the paper's 2-step random walk relies on.
func TestRepeatedRepairKeyIndependence(t *testing.T) {
	d := New()
	mustRun(t, d, `create table c (f text, w float); insert into c values ('h',1),('t',1)`)
	res := mustRun(t, d, `
		select a.f, b.f, conf() p from
			(repair key in c weight by w) a,
			(repair key in c weight by w) b
		group by a.f, b.f`)
	if len(res.Rel.Tuples) != 4 {
		t.Fatalf("independent flips: %d combos", len(res.Rel.Tuples))
	}
	for _, row := range res.Rel.Tuples {
		if math.Abs(row.Data[2].Float()-0.25) > 1e-12 {
			t.Errorf("combo %v: %v want 0.25", row.Data[:2], row.Data[2])
		}
	}
}

var _ = urel.Tuple{} // keep the import for documentation examples
