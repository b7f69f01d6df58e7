package db

import (
	"bytes"
	"math"
	"testing"

	"maybms/internal/types"
	"maybms/internal/urel"
)

// mustRun executes a script and fails the test on error.
func mustRun(t *testing.T, d *Database, src string) *Result {
	t.Helper()
	r, err := d.Run(src)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return r
}

// mustFail asserts that the statement errors.
func mustFail(t *testing.T, d *Database, src string) {
	t.Helper()
	if _, err := d.Run(src); err == nil {
		t.Fatalf("Run(%q): expected error, got none", src)
	}
}

// rowsOf extracts the result data tuples as [][]types.Value.
func rowsOf(rel *urel.Rel) [][]types.Value {
	out := make([][]types.Value, len(rel.Tuples))
	for i, t := range rel.Tuples {
		out[i] = t.Data
	}
	return out
}

func TestDDLAndDML(t *testing.T) {
	d := New()
	mustRun(t, d, "create table r (a int, b text, c float)")
	mustRun(t, d, "insert into r values (1, 'x', 1.5), (2, 'y', 2.5)")
	mustRun(t, d, "insert into r (b, a) values ('z', 3)")
	res := mustRun(t, d, "select a, b, c from r order by a")
	rows := rowsOf(res.Rel)
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[2][0].Int() != 3 || rows[2][1].Text() != "z" || !rows[2][2].IsNull() {
		t.Errorf("row 3: %v", rows[2])
	}
	mustRun(t, d, "update r set c = 9.0 where a = 3")
	res = mustRun(t, d, "select c from r where a = 3")
	if got := res.Rel.Tuples[0].Data[0].Float(); got != 9.0 {
		t.Errorf("after update: %v", got)
	}
	r := mustRun(t, d, "delete from r where a >= 2")
	if r.RowsAffected != 2 {
		t.Errorf("delete affected %d", r.RowsAffected)
	}
	res = mustRun(t, d, "select count(*) from r")
	if res.Rel.Tuples[0].Data[0].Int() != 1 {
		t.Errorf("count after delete: %v", res.Rel.Tuples[0].Data)
	}
	mustFail(t, d, "create table r (a int)") // duplicate
	mustRun(t, d, "drop table r")
	mustFail(t, d, "select * from r")
	mustRun(t, d, "drop table if exists r")
}

func TestTypeChecking(t *testing.T) {
	d := New()
	mustRun(t, d, "create table r (a int, f float)")
	mustRun(t, d, "insert into r values (1, 2)") // int widens to float column
	mustFail(t, d, "insert into r values ('nope', 1.0)")
	mustFail(t, d, "insert into r values (1)")
	res := mustRun(t, d, "select f from r")
	if res.Rel.Tuples[0].Data[0].Kind() != types.KindFloat {
		t.Errorf("widening failed: %v", res.Rel.Tuples[0].Data[0].Kind())
	}
}

func TestTransactions(t *testing.T) {
	d := New()
	mustRun(t, d, "create table r (a int)")
	mustRun(t, d, "insert into r values (1)")
	mustRun(t, d, "begin")
	mustRun(t, d, "insert into r values (2)")
	mustRun(t, d, "update r set a = 10 where a = 1")
	mustRun(t, d, "create table s (b int)")
	mustRun(t, d, "rollback")
	res := mustRun(t, d, "select a from r order by a")
	rows := rowsOf(res.Rel)
	if len(rows) != 1 || rows[0][0].Int() != 1 {
		t.Errorf("rollback failed: %v", rows)
	}
	mustFail(t, d, "select * from s")

	mustRun(t, d, "begin")
	mustRun(t, d, "insert into r values (5)")
	mustRun(t, d, "commit")
	res = mustRun(t, d, "select count(*) from r")
	if res.Rel.Tuples[0].Data[0].Int() != 2 {
		t.Errorf("commit failed")
	}
	mustFail(t, d, "commit")   // no txn
	mustFail(t, d, "rollback") // no txn
}

func TestTransactionRollsBackVariables(t *testing.T) {
	d := New()
	mustRun(t, d, "create table r (a int, w float)")
	mustRun(t, d, "insert into r values (1, 0.5), (2, 0.5)")
	before := d.Store().NumVars()
	mustRun(t, d, "begin")
	mustRun(t, d, "create table u as repair key in r weight by w")
	// Variables a transaction's repair-key allocates live in its
	// private world-set overlay: invisible in the shared store until
	// commit publishes them...
	if got := d.Store().NumVars(); got != before {
		t.Fatalf("in-txn repair key leaked into the live store: %d vs %d", got, before)
	}
	// ...but visible to the transaction's own reads.
	res := mustRun(t, d, "select conf() from u")
	if got := res.Rel.Tuples[0].Data[0].Float(); math.Abs(got-1.0) > 1e-9 {
		t.Errorf("in-txn conf over repaired table: %v", got)
	}
	mustRun(t, d, "rollback")
	if got := d.Store().NumVars(); got != before {
		t.Errorf("rolled-back txn leaked world-set vars: %d vs %d", got, before)
	}
	mustFail(t, d, "select * from u")

	// Commit publishes the overlay's variables to the shared store.
	mustRun(t, d, "begin")
	mustRun(t, d, "create table v as repair key in r weight by w")
	mustRun(t, d, "commit")
	if got := d.Store().NumVars(); got != before+1 {
		t.Errorf("committed repair key published %d vars, want 1", got-before)
	}
	res = mustRun(t, d, "select a, tconf() from v order by a")
	rows := rowsOf(res.Rel)
	if len(rows) != 2 || math.Abs(rows[0][1].Float()-0.5) > 1e-9 {
		t.Errorf("post-commit marginals: %v", rows)
	}
}

func TestJoinsAndSubqueries(t *testing.T) {
	d := New()
	mustRun(t, d, `create table emp (id int, name text, dept int);
		create table dept (id int, dname text);
		insert into emp values (1,'ann',10),(2,'bob',20),(3,'carol',10);
		insert into dept values (10,'eng'),(20,'sales')`)
	res := mustRun(t, d, `select e.name, d.dname from emp e, dept d where e.dept = d.id order by e.name`)
	rows := rowsOf(res.Rel)
	if len(rows) != 3 || rows[0][1].Text() != "eng" || rows[1][1].Text() != "sales" {
		t.Errorf("join: %v", rows)
	}
	// IN with certain subquery.
	res = mustRun(t, d, `select name from emp where dept in (select id from dept where dname = 'eng') order by name`)
	rows = rowsOf(res.Rel)
	if len(rows) != 2 || rows[0][0].Text() != "ann" || rows[1][0].Text() != "carol" {
		t.Errorf("IN subquery: %v", rows)
	}
	// NOT IN.
	res = mustRun(t, d, `select name from emp where dept not in (select id from dept where dname = 'eng')`)
	if len(res.Rel.Tuples) != 1 || res.Rel.Tuples[0].Data[0].Text() != "bob" {
		t.Errorf("NOT IN: %v", rowsOf(res.Rel))
	}
	// EXISTS.
	res = mustRun(t, d, `select count(*) from emp where exists (select id from dept where dname = 'sales')`)
	if res.Rel.Tuples[0].Data[0].Int() != 3 {
		t.Errorf("EXISTS: %v", rowsOf(res.Rel))
	}
	// Subquery in FROM.
	res = mustRun(t, d, `select t.name from (select name, dept from emp where dept = 10) t order by t.name`)
	if len(res.Rel.Tuples) != 2 {
		t.Errorf("FROM subquery: %v", rowsOf(res.Rel))
	}
	// Cross product with filter.
	res = mustRun(t, d, `select count(*) from emp e1, emp e2 where e1.id < e2.id`)
	if res.Rel.Tuples[0].Data[0].Int() != 3 {
		t.Errorf("self product: %v", rowsOf(res.Rel))
	}
}

func TestGroupByAggregates(t *testing.T) {
	d := New()
	mustRun(t, d, `create table s (dept text, sal int);
		insert into s values ('a',10),('a',20),('b',5),('b',NULL)`)
	res := mustRun(t, d, `select dept, sum(sal), count(sal), count(*), avg(sal), min(sal), max(sal)
		from s group by dept order by dept`)
	rows := rowsOf(res.Rel)
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	a := rows[0]
	if a[1].Int() != 30 || a[2].Int() != 2 || a[3].Int() != 2 || a[4].Float() != 15 || a[5].Int() != 10 || a[6].Int() != 20 {
		t.Errorf("group a: %v", a)
	}
	b := rows[1]
	if b[1].Int() != 5 || b[2].Int() != 1 || b[3].Int() != 2 {
		t.Errorf("group b: %v", b)
	}
	// HAVING.
	res = mustRun(t, d, `select dept from s group by dept having sum(sal) > 10`)
	if len(res.Rel.Tuples) != 1 || res.Rel.Tuples[0].Data[0].Text() != "a" {
		t.Errorf("having: %v", rowsOf(res.Rel))
	}
	// Expression over aggregate and group key.
	res = mustRun(t, d, `select dept, sum(sal) + 1 bumped from s group by dept order by dept`)
	if res.Rel.Tuples[0].Data[1].Int() != 31 {
		t.Errorf("agg expr: %v", rowsOf(res.Rel))
	}
	// Aggregate without GROUP BY on empty input yields one row.
	mustRun(t, d, "create table empty1 (x int)")
	res = mustRun(t, d, "select count(*), sum(x) from empty1")
	if len(res.Rel.Tuples) != 1 || res.Rel.Tuples[0].Data[0].Int() != 0 || !res.Rel.Tuples[0].Data[1].IsNull() {
		t.Errorf("empty agg: %v", rowsOf(res.Rel))
	}
	// Aggregates in WHERE are rejected.
	mustFail(t, d, "select dept from s where sum(sal) > 3")
	// Non-grouped column in select list is rejected.
	mustFail(t, d, "select sal, count(*) from s group by dept")
}

func TestArgmax(t *testing.T) {
	d := New()
	mustRun(t, d, `create table g (team text, player text, pts int);
		insert into g values ('x','p1',30),('x','p2',30),('x','p3',10),('y','q1',7)`)
	res := mustRun(t, d, `select team, argmax(player, pts) from g group by team order by team, 2`)
	rows := rowsOf(res.Rel)
	if len(rows) != 3 {
		t.Fatalf("argmax fan-out: %v", rows)
	}
	if rows[0][1].Text() != "p1" || rows[1][1].Text() != "p2" || rows[2][1].Text() != "q1" {
		t.Errorf("argmax values: %v", rows)
	}
}

func TestRepairKeySemantics(t *testing.T) {
	d := New()
	mustRun(t, d, `create table coin (face text, w float);
		insert into coin values ('h', 3), ('t', 1)`)
	// Marginals via tconf.
	res := mustRun(t, d, `select face, tconf() p from (repair key in coin weight by w) c order by face`)
	rows := rowsOf(res.Rel)
	if len(rows) != 2 {
		t.Fatalf("repair key rows: %v", rows)
	}
	if math.Abs(rows[0][1].Float()-0.75) > 1e-12 || math.Abs(rows[1][1].Float()-0.25) > 1e-12 {
		t.Errorf("normalised weights: %v", rows)
	}
	// conf over the whole relation: alternatives are exclusive and
	// exhaustive.
	res = mustRun(t, d, `select conf() p from (repair key in coin weight by w) c`)
	if math.Abs(res.Rel.Tuples[0].Data[0].Float()-1.0) > 1e-12 {
		t.Errorf("exhaustive block: %v", rowsOf(res.Rel))
	}
	// Per-key blocks are independent.
	mustRun(t, d, `create table two (k int, v text, w float);
		insert into two values (1,'a',1),(1,'b',1),(2,'c',1),(2,'d',3)`)
	res = mustRun(t, d, `select v, tconf() from (repair key k in two weight by w) r order by v`)
	rows = rowsOf(res.Rel)
	want := []float64{0.5, 0.5, 0.25, 0.75}
	for i, w := range want {
		if math.Abs(rows[i][1].Float()-w) > 1e-12 {
			t.Errorf("block marginal %d: %v want %v", i, rows[i][1], w)
		}
	}
	// Weight by a zero-total block errors.
	mustRun(t, d, `create table zw (k int, w float); insert into zw values (1, 0), (1, 0)`)
	mustFail(t, d, `select conf() from (repair key k in zw weight by w) r`)
	// Negative weights error.
	mustRun(t, d, `create table nw (k int, w float); insert into nw values (1, -1), (1, 2)`)
	mustFail(t, d, `select conf() from (repair key k in nw weight by w) r`)
	// Repair key on uncertain input is rejected.
	mustRun(t, d, `create table u1 as repair key in coin weight by w`)
	mustFail(t, d, `select conf() from (repair key face in u1) r`)
}

func TestPickTuples(t *testing.T) {
	d := New()
	mustRun(t, d, `create table items (id int, p float);
		insert into items values (1, 0.5), (2, 0.9), (3, 1.0), (4, 0.0)`)
	res := mustRun(t, d, `select id, tconf() m from (pick tuples from items independently with probability p) t order by id`)
	rows := rowsOf(res.Rel)
	// p=0 tuple vanishes; p=1 tuple is certain.
	if len(rows) != 3 {
		t.Fatalf("pick tuples rows: %v", rows)
	}
	if math.Abs(rows[0][1].Float()-0.5) > 1e-12 || math.Abs(rows[1][1].Float()-0.9) > 1e-12 || rows[2][1].Float() != 1.0 {
		t.Errorf("marginals: %v", rows)
	}
	// Default probability is 0.5.
	res = mustRun(t, d, `select conf() from (pick tuples from items) t group by id order by id`)
	for _, r := range rowsOf(res.Rel) {
		if math.Abs(r[0].Float()-0.5) > 1e-12 {
			t.Errorf("default pick prob: %v", r)
		}
	}
	// Out-of-range probability errors.
	mustRun(t, d, `create table badp (id int, p float); insert into badp values (1, 1.5)`)
	mustFail(t, d, `select conf() from (pick tuples from badp with probability p) t`)
}

func TestConfAndPossible(t *testing.T) {
	d := New()
	mustRun(t, d, `create table votes (cand text, w float);
		insert into votes values ('a', 1), ('b', 1), ('c', 2)`)
	// conf of mutually exclusive alternatives groups duplicates.
	mustRun(t, d, `create table world as repair key in votes weight by w`)
	res := mustRun(t, d, `select cand, conf() p from world group by cand order by cand`)
	rows := rowsOf(res.Rel)
	want := []float64{0.25, 0.25, 0.5}
	for i := range want {
		if math.Abs(rows[i][1].Float()-want[i]) > 1e-12 {
			t.Errorf("conf %d: %v want %v", i, rows[i], want[i])
		}
	}
	// aconf approximates the same values.
	res = mustRun(t, d, `select cand, aconf(0.05, 0.05) p from world group by cand order by cand`)
	rows = rowsOf(res.Rel)
	for i := range want {
		if math.Abs(rows[i][1].Float()-want[i]) > 0.05*want[i]+0.02 {
			t.Errorf("aconf %d: %v want ~%v", i, rows[i], want[i])
		}
	}
	// possible lists all three candidates.
	res = mustRun(t, d, `select possible cand from world order by cand`)
	if len(res.Rel.Tuples) != 3 {
		t.Errorf("possible: %v", rowsOf(res.Rel))
	}
	if !res.Rel.IsCertain() {
		t.Error("possible must return a t-certain relation")
	}
	// Standard aggregates on uncertain relations are rejected.
	mustFail(t, d, "select sum(w) from world")
	mustFail(t, d, "select count(*) from world")
	// DISTINCT on uncertain is rejected; POSSIBLE is the substitute.
	mustFail(t, d, "select distinct cand from world")
}

func TestESumECount(t *testing.T) {
	d := New()
	mustRun(t, d, `create table sales (region text, amt float, p float);
		insert into sales values ('n', 100, 0.5), ('n', 50, 0.8), ('s', 10, 1.0)`)
	mustRun(t, d, `create table usales as pick tuples from sales independently with probability p`)
	res := mustRun(t, d, `select region, esum(amt) e, ecount() c from usales group by region order by region`)
	rows := rowsOf(res.Rel)
	if math.Abs(rows[0][1].Float()-(100*0.5+50*0.8)) > 1e-9 {
		t.Errorf("esum north: %v", rows[0])
	}
	if math.Abs(rows[0][2].Float()-1.3) > 1e-9 {
		t.Errorf("ecount north: %v", rows[0])
	}
	if math.Abs(rows[1][1].Float()-10) > 1e-9 || math.Abs(rows[1][2].Float()-1) > 1e-9 {
		t.Errorf("south: %v", rows[1])
	}
}

func TestUncertainInSubquery(t *testing.T) {
	d := New()
	mustRun(t, d, `create table people (name text);
		insert into people values ('ann'), ('bob');
		create table maybe (name text, p float);
		insert into maybe values ('ann', 0.5), ('zed', 0.3)`)
	// Positive IN against an uncertain subquery becomes a semijoin
	// with condition propagation.
	res := mustRun(t, d, `select name, conf() pr from people
		where name in (select name from (pick tuples from maybe with probability p) m)
		group by name`)
	rows := rowsOf(res.Rel)
	if len(rows) != 1 || rows[0][0].Text() != "ann" || math.Abs(rows[0][1].Float()-0.5) > 1e-12 {
		t.Errorf("uncertain IN: %v", rows)
	}
	// Negated uncertain IN is rejected.
	mustFail(t, d, `select name from people
		where name not in (select name from (pick tuples from maybe with probability p) m)`)
}

func TestUnion(t *testing.T) {
	d := New()
	mustRun(t, d, `create table a1 (x int); insert into a1 values (1),(2);
		create table b1 (x int); insert into b1 values (2),(3)`)
	res := mustRun(t, d, `select x from a1 union all select x from b1 order by x`)
	if len(res.Rel.Tuples) != 4 {
		t.Errorf("union all: %v", rowsOf(res.Rel))
	}
	res = mustRun(t, d, `select x from a1 union select x from b1 order by x`)
	if len(res.Rel.Tuples) != 3 {
		t.Errorf("union distinct: %v", rowsOf(res.Rel))
	}
	mustFail(t, d, `select x from a1 union select x from b1 union select 'nope'`)
	// UNION ALL of uncertain relations keeps multiset semantics.
	mustRun(t, d, `create table w1 (x int, p float); insert into w1 values (7, 0.5)`)
	res = mustRun(t, d, `select x, conf() from
		((select x from (pick tuples from w1 with probability p) u1)
		 union all
		 (select x from (pick tuples from w1 with probability p) u2)) both
		group by x`)
	// Two independent 0.5 events: P = 1 - 0.25 = 0.75.
	if math.Abs(res.Rel.Tuples[0].Data[1].Float()-0.75) > 1e-12 {
		t.Errorf("union of uncertain: %v", rowsOf(res.Rel))
	}
}

func TestOrderLimitExpressions(t *testing.T) {
	d := New()
	mustRun(t, d, `create table n1 (x int); insert into n1 values (3),(1),(2)`)
	res := mustRun(t, d, `select x from n1 order by x desc limit 2`)
	rows := rowsOf(res.Rel)
	if len(rows) != 2 || rows[0][0].Int() != 3 || rows[1][0].Int() != 2 {
		t.Errorf("order/limit: %v", rows)
	}
	// Scalar expressions, CASE-less arithmetic, LIKE, BETWEEN, CAST.
	res = mustRun(t, d, `select x*10 + 1 from n1 where x between 2 and 3 order by 1`)
	rows = rowsOf(res.Rel)
	if len(rows) != 2 || rows[0][0].Int() != 21 || rows[1][0].Int() != 31 {
		t.Errorf("arith: %v", rows)
	}
	res = mustRun(t, d, `select cast(x as text) from n1 where cast(x as text) like '%1%'`)
	if len(res.Rel.Tuples) != 1 {
		t.Errorf("like/cast: %v", rowsOf(res.Rel))
	}
	res = mustRun(t, d, `select 1 + 2 * 3`)
	if res.Rel.Tuples[0].Data[0].Int() != 7 {
		t.Errorf("select without FROM: %v", rowsOf(res.Rel))
	}
}

// TestFigure1RandomWalk reproduces the paper's Figure 1 and Section 3
// queries: the k-step random walk probabilities must equal the k-th
// power of the stochastic matrix.
func TestFigure1RandomWalk(t *testing.T) {
	d := New()
	mustRun(t, d, `
		create table ft (player text, init text, final text, p float);
		insert into ft values
			('Bryant','F','F',0.8), ('Bryant','F','SE',0.05), ('Bryant','F','SL',0.15),
			('Bryant','SE','F',0.1), ('Bryant','SE','SE',0.6), ('Bryant','SE','SL',0.3),
			('Bryant','SL','F',0.8), ('Bryant','SL','SL',0.2);
		create table states (player text, state text);
		insert into states values ('Bryant','F');
	`)
	// Figure 1's R2: the 1-step walk U-relation has the same 8 rows
	// with marginals equal to the matrix entries.
	res := mustRun(t, d, `select init, final, tconf() pr from (repair key player, init in ft weight by p) r order by init, final`)
	if len(res.Rel.Tuples) != 8 {
		t.Fatalf("R2 rows: %d", len(res.Rel.Tuples))
	}
	for _, row := range rowsOf(res.Rel) {
		var want float64
		switch row[0].Text() + row[1].Text() {
		case "FF":
			want = 0.8
		case "FSE":
			want = 0.05
		case "FSL":
			want = 0.15
		case "SEF":
			want = 0.1
		case "SESE":
			want = 0.6
		case "SESL":
			want = 0.3
		case "SLF":
			want = 0.8
		case "SLSL":
			want = 0.2
		}
		if math.Abs(row[2].Float()-want) > 1e-12 {
			t.Errorf("R2 marginal %v %v: %v want %v", row[0], row[1], row[2], want)
		}
	}

	// The paper's FT2 query: 2-step walk from the initial state.
	mustRun(t, d, `
		create table ft2 as
		select r1.player, r1.init, r2.final, conf() as p from
			(repair key player, init in ft weight by p) r1,
			(repair key player, init in ft weight by p) r2, states s
		where r1.player = s.player and r1.init = s.state
			and r1.final = r2.init and r1.player = r2.player
		group by r1.player, r1.init, r2.final`)
	res = mustRun(t, d, `select final, p from ft2 order by final`)
	rows := rowsOf(res.Rel)
	// M^2 row F: F=0.765, SE=0.07, SL=0.165.
	want2 := map[string]float64{"F": 0.765, "SE": 0.07, "SL": 0.165}
	if len(rows) != 3 {
		t.Fatalf("ft2: %v", rows)
	}
	for _, r := range rows {
		if math.Abs(r[1].Float()-want2[r[0].Text()]) > 1e-9 {
			t.Errorf("2-step %s: %v want %v", r[0].Text(), r[1].Float(), want2[r[0].Text()])
		}
	}

	// The paper's second query: 3-step walk.
	res = mustRun(t, d, `
		select r1.player, r2.final as state, conf() as p from
			(repair key player, init in ft2 weight by p) r1,
			(repair key player, init in ft weight by p) r2
		where r1.final = r2.init and r1.player = r2.player
		group by r1.player, r2.final
		order by r2.final`)
	rows = rowsOf(res.Rel)
	want3 := map[string]float64{"F": 0.751, "SE": 0.08025, "SL": 0.16875}
	if len(rows) != 3 {
		t.Fatalf("3-step: %v", rows)
	}
	for _, r := range rows {
		if math.Abs(r[2].Float()-want3[r[1].Text()]) > 1e-9 {
			t.Errorf("3-step %s: %v want %v", r[1].Text(), r[2].Float(), want3[r[1].Text()])
		}
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	d := New()
	mustRun(t, d, `create table base (k int, v text, w float);
		insert into base values (1,'a',1),(1,'b',3),(2,'c',1)`)
	mustRun(t, d, `create table u as repair key k in base weight by w`)
	before := mustRun(t, d, `select v, conf() from u group by v order by v`)

	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	d2 := New()
	if err := d2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	after := mustRun(t, d2, `select v, conf() from u group by v order by v`)
	br, ar := rowsOf(before.Rel), rowsOf(after.Rel)
	if len(br) != len(ar) {
		t.Fatalf("row counts differ: %d vs %d", len(br), len(ar))
	}
	for i := range br {
		if br[i][0].Text() != ar[i][0].Text() || math.Abs(br[i][1].Float()-ar[i][1].Float()) > 1e-12 {
			t.Errorf("row %d differs: %v vs %v", i, br[i], ar[i])
		}
	}
	// The restored database remains writable and consistent.
	mustRun(t, d2, "insert into base values (3,'d',1)")
	res := mustRun(t, d2, "select count(*) from base")
	if res.Rel.Tuples[0].Data[0].Int() != 4 {
		t.Errorf("post-load insert failed")
	}
}

func TestTconfRestrictions(t *testing.T) {
	d := New()
	mustRun(t, d, `create table r2 (x int, p float); insert into r2 values (1, 0.5)`)
	mustRun(t, d, `create table u2 as pick tuples from r2 with probability p`)
	mustFail(t, d, `select x, tconf() from u2 group by x`)
	mustFail(t, d, `select tconf(), conf() from u2`)
	mustFail(t, d, `select tconf(x) from u2`)
}

func TestCreateTableAsPreservesUncertainty(t *testing.T) {
	d := New()
	mustRun(t, d, `create table r3 (x int, p float); insert into r3 values (1,0.5),(2,0.25)`)
	mustRun(t, d, `create table u3 as pick tuples from r3 with probability p`)
	snap := d.Snapshot()
	defer snap.Close()
	certain, err := snap.TableCertain("u3")
	if err != nil || certain {
		t.Errorf("u3 should be uncertain: %v %v", certain, err)
	}
	res := mustRun(t, d, `select x, conf() from u3 group by x order by x`)
	rows := rowsOf(res.Rel)
	if math.Abs(rows[0][1].Float()-0.5) > 1e-12 || math.Abs(rows[1][1].Float()-0.25) > 1e-12 {
		t.Errorf("stored lineage: %v", rows)
	}
}
