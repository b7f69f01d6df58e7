package db

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestExplainStatement(t *testing.T) {
	d := New()
	mustRun(t, d, `create table r (a int, b int); create table s (b int, c int)`)
	res := mustRun(t, d, `explain select r.a from r, s where r.b = s.b and r.a > 1`)
	var out strings.Builder
	for _, row := range res.Rel.Tuples {
		out.WriteString(row.Data[0].Text())
		out.WriteByte('\n')
	}
	plan := out.String()
	for _, want := range []string{"Project", "HashJoin", "Filter", "Scan"} {
		if !strings.Contains(plan, want) {
			t.Errorf("explain missing %s:\n%s", want, plan)
		}
	}
	// EXPLAIN of an uncertain query shows uncertain subtrees.
	mustRun(t, d, `create table w (x int, p float); insert into w values (1, 0.5)`)
	res = mustRun(t, d, `explain select x, conf() from (pick tuples from w with probability p) u group by x`)
	var text strings.Builder
	for _, row := range res.Rel.Tuples {
		text.WriteString(row.Data[0].Text())
	}
	if !strings.Contains(text.String(), "uncertain") || !strings.Contains(text.String(), "PickTuples") {
		t.Errorf("uncertain explain:\n%s", text.String())
	}
}

func TestInsertSelectFromUncertainPreservesConditions(t *testing.T) {
	d := New()
	mustRun(t, d, `create table base (x int, p float); insert into base values (1,0.5),(2,0.25)`)
	mustRun(t, d, `create table dest (x int)`)
	mustRun(t, d, `insert into dest select x from (pick tuples from base with probability p) u`)
	snap := d.Snapshot()
	certain, _ := snap.TableCertain("dest")
	snap.Close()
	if certain {
		t.Fatal("INSERT SELECT must carry conditions")
	}
	res := mustRun(t, d, `select x, conf() from dest group by x order by x`)
	rows := rowsOf(res.Rel)
	if math.Abs(rows[0][1].Float()-0.5) > 1e-12 || math.Abs(rows[1][1].Float()-0.25) > 1e-12 {
		t.Errorf("conditions lost: %v", rows)
	}
}

func TestUpdatePreservesConditions(t *testing.T) {
	d := New()
	mustRun(t, d, `create table base (x int, p float); insert into base values (1,0.5)`)
	mustRun(t, d, `create table u as pick tuples from base with probability p`)
	mustRun(t, d, `update u set x = 99`)
	res := mustRun(t, d, `select x, conf() from u group by x`)
	rows := rowsOf(res.Rel)
	if rows[0][0].Int() != 99 || math.Abs(rows[0][1].Float()-0.5) > 1e-12 {
		t.Errorf("update on uncertain table: %v", rows)
	}
}

func TestDeleteFromUncertainTable(t *testing.T) {
	d := New()
	mustRun(t, d, `create table base (x int, p float); insert into base values (1,0.5),(2,0.5)`)
	mustRun(t, d, `create table u as pick tuples from base with probability p`)
	r := mustRun(t, d, `delete from u where x = 1`)
	if r.RowsAffected != 1 {
		t.Errorf("affected: %d", r.RowsAffected)
	}
	res := mustRun(t, d, `select possible x from u`)
	if len(res.Rel.Tuples) != 1 || res.Rel.Tuples[0].Data[0].Int() != 2 {
		t.Errorf("after delete: %v", rowsOf(res.Rel))
	}
}

func TestTransactionUndoAcrossMixedOps(t *testing.T) {
	d := New()
	mustRun(t, d, `create table t1 (a int); insert into t1 values (1), (2)`)
	before := mustRun(t, d, `select a from t1 order by a`)
	mustRun(t, d, `begin`)
	mustRun(t, d, `update t1 set a = a * 10`)
	mustRun(t, d, `delete from t1 where a = 20`)
	mustRun(t, d, `insert into t1 values (7)`)
	mustRun(t, d, `drop table t1`)
	mustRun(t, d, `create table t1 (a int, b int)`)
	mustRun(t, d, `rollback`)
	after := mustRun(t, d, `select a from t1 order by a`)
	ba, aa := rowsOf(before.Rel), rowsOf(after.Rel)
	if len(ba) != len(aa) {
		t.Fatalf("row count: %d vs %d", len(ba), len(aa))
	}
	for i := range ba {
		if ba[i][0].Int() != aa[i][0].Int() {
			t.Errorf("row %d: %v vs %v", i, ba[i], aa[i])
		}
	}
	if sch, _ := d.SchemaOf("t1"); sch.Len() != 1 {
		t.Error("recreated table should have been rolled back to the original")
	}
}

func TestBeginInsideTxnFails(t *testing.T) {
	d := New()
	mustRun(t, d, "begin")
	mustFail(t, d, "begin")
	mustRun(t, d, "commit")
}

func TestSnapshotDuringTxnFails(t *testing.T) {
	d := New()
	mustRun(t, d, "begin")
	var buf bytes.Buffer
	if err := d.Save(&buf); err == nil {
		t.Error("snapshot during txn must fail")
	}
	if err := d.Load(&buf); err == nil {
		t.Error("load during txn must fail")
	}
	mustRun(t, d, "rollback")
}

func TestConcurrentQueries(t *testing.T) {
	d := New()
	mustRun(t, d, `create table c (f text, w float); insert into c values ('h',1),('t',1)`)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i%2 == 0 {
				_, err = d.Run(`select conf() from (repair key in c weight by w) r group by f`)
			} else {
				_, err = d.Run(fmt.Sprintf(`insert into c values ('x%d', 1)`, i))
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	d := New()
	if err := d.Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Error("garbage snapshot must fail")
	}
	// Truncated snapshot.
	good := New()
	mustRun(t, good, "create table t (a int); insert into t values (1)")
	var buf bytes.Buffer
	if err := good.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if err := d.Load(bytes.NewReader(truncated)); err == nil {
		t.Error("truncated snapshot must fail")
	}
}

func TestEmptyScript(t *testing.T) {
	d := New()
	r, err := d.Run("  ;; -- nothing\n")
	if err != nil || r == nil {
		t.Errorf("%v %v", r, err)
	}
}

func TestSelfJoinAliasesResolve(t *testing.T) {
	d := New()
	mustRun(t, d, `create table e (id int, mgr int);
		insert into e values (1, 0), (2, 1), (3, 1)`)
	res := mustRun(t, d, `select a.id, b.id from e a, e b where a.mgr = b.id order by a.id`)
	rows := rowsOf(res.Rel)
	if len(rows) != 2 || rows[0][0].Int() != 2 || rows[0][1].Int() != 1 {
		t.Errorf("self join: %v", rows)
	}
}

func TestLineageSharingAcrossStoredTables(t *testing.T) {
	// Two tables derived from the same repair-key share variables, so
	// their join must respect the correlation.
	d := New()
	mustRun(t, d, `create table c (f text, w float); insert into c values ('h',1),('t',1)`)
	mustRun(t, d, `create table world as repair key in c weight by w`)
	mustRun(t, d, `create table left1 as select f from world`)
	mustRun(t, d, `create table right1 as select f from world`)
	// Joining on inequality pairs h with t: contradictory conditions
	// (the same coin cannot land both ways), so P = 0.
	res := mustRun(t, d, `select conf() p from left1 a, right1 b where a.f <> b.f`)
	if p := res.Rel.Tuples[0].Data[0].Float(); p != 0 {
		t.Errorf("correlated join must be impossible: %v", p)
	}
	// Joining on equality is certain: P = 1.
	res = mustRun(t, d, `select conf() p from left1 a, right1 b where a.f = b.f`)
	if p := res.Rel.Tuples[0].Data[0].Float(); math.Abs(p-1) > 1e-12 {
		t.Errorf("correlated equality join: %v", p)
	}
}
