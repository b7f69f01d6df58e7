package maybms

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenExecQuery(t *testing.T) {
	db := Open()
	res, err := db.Exec("create table t (a int, b text)")
	if err != nil || !strings.Contains(res.Msg, "CREATE TABLE") {
		t.Fatalf("%v %v", res, err)
	}
	res, err = db.Exec("insert into t values (1, 'x'), (2, 'y')")
	if err != nil || res.RowsAffected != 2 {
		t.Fatalf("%v %v", res, err)
	}
	rows, err := db.Query("select a, b from t order by a")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Len() != 2 || rows.Columns[0] != "a" || rows.Columns[1] != "b" {
		t.Fatalf("%+v", rows)
	}
	if rows.Data[0][0].(int64) != 1 || rows.Data[1][1].(string) != "y" {
		t.Errorf("%v", rows.Data)
	}
	if !rows.Certain {
		t.Error("plain select is certain")
	}
}

func TestQueryErrors(t *testing.T) {
	db := Open()
	if _, err := db.Query("select * from missing"); err == nil {
		t.Error("missing table")
	}
	if _, err := db.Query("create table t (a int)"); err == nil {
		t.Error("DDL through Query should fail")
	}
	if _, err := db.Exec("not sql at all"); err == nil {
		t.Error("garbage should fail")
	}
}

func TestUncertainRowsCarryLineage(t *testing.T) {
	db := Open()
	db.MustExec(`create table c (f text, w float); insert into c values ('h',1),('t',1)`)
	rows := db.MustQuery(`select f from (repair key in c weight by w) r`)
	if rows.Certain {
		t.Fatal("repair-key result must be uncertain")
	}
	if len(rows.Lineage) != rows.Len() {
		t.Fatalf("lineage length %d vs %d rows", len(rows.Lineage), rows.Len())
	}
	for _, l := range rows.Lineage {
		if !strings.Contains(l, "->") {
			t.Errorf("lineage rendering: %q", l)
		}
	}
	// String() renders the lineage column.
	if !strings.Contains(rows.String(), "[") {
		t.Error("String should show conditions for uncertain results")
	}
}

func TestQueryFloat(t *testing.T) {
	db := Open()
	db.MustExec(`create table c (f text, w float); insert into c values ('h',3),('t',1)`)
	p, err := db.QueryFloat(`select conf() from (repair key in c weight by w) r where f = 'h'`)
	if err != nil || math.Abs(p-0.75) > 1e-12 {
		t.Errorf("%v %v", p, err)
	}
	if _, err := db.QueryFloat(`select f, w from c`); err == nil {
		t.Error("multi-cell should fail")
	}
	if _, err := db.QueryFloat(`select f from c limit 1`); err == nil {
		t.Error("text cell should fail")
	}
}

func TestSaveAndOpenFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.mdb")
	db := Open()
	db.MustExec(`create table c (f text, w float); insert into c values ('h',1),('t',1);
		create table u as repair key in c weight by w`)
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := db2.QueryFloat(`select conf() from u where f = 'h'`)
	if err != nil || math.Abs(p-0.5) > 1e-12 {
		t.Errorf("restored conf: %v %v", p, err)
	}
	if _, err := OpenFile(filepath.Join(dir, "missing.mdb")); err == nil {
		t.Error("missing snapshot should fail")
	}
	// Corrupt file.
	bad := filepath.Join(dir, "bad.mdb")
	os.WriteFile(bad, []byte("not a snapshot"), 0o644)
	if _, err := OpenFile(bad); err == nil {
		t.Error("corrupt snapshot should fail")
	}
}

func TestSetSeedReproducible(t *testing.T) {
	run := func() float64 {
		db := Open()
		db.SetSeed(42)
		db.MustExec(`create table c (f text, w float);
			insert into c values ('a',1),('b',1),('c',1),('d',1)`)
		p, err := db.QueryFloat(`select aconf(0.1, 0.1) from (repair key in c weight by w) r where f < 'c'`)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	if run() != run() {
		t.Error("seeded aconf must be deterministic")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	db := Open()
	db.MustExec("create table people (name text, age int, score float)")
	in := "name,age,score\nann,30,1.5\nbob,25,\ncarol o'hara,40,2.25\n"
	n, err := db.ImportCSV("people", strings.NewReader(in))
	if err != nil || n != 3 {
		t.Fatalf("import: %d %v", n, err)
	}
	rows := db.MustQuery("select name, age, score from people order by name")
	if rows.Data[1][2] != nil {
		t.Errorf("empty cell should be NULL: %v", rows.Data[1])
	}
	if rows.Data[2][0].(string) != "carol o'hara" {
		t.Errorf("quote escaping: %v", rows.Data[2])
	}
	var buf bytes.Buffer
	if err := db.ExportCSV(&buf, "select name, age from people order by name"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "name,age\n") || !strings.Contains(out, "ann,30") {
		t.Errorf("export: %q", out)
	}
	// Import into a missing table fails cleanly.
	if _, err := db.ImportCSV("missing", strings.NewReader("a\n1\n")); err == nil {
		t.Error("missing table should fail")
	}
}

func TestTablesListing(t *testing.T) {
	db := Open()
	db.MustExec("create table zzz (a int); create table aaa (a int)")
	got := db.Tables()
	if len(got) != 2 || got[0] != "aaa" || got[1] != "zzz" {
		t.Errorf("tables: %v", got)
	}
}

func TestMustQueryRelAndWorldStore(t *testing.T) {
	db := Open()
	db.MustExec(`create table c (f text, w float); insert into c values ('h',1),('t',1);
		create table flip as repair key in c weight by w`)
	rel := db.MustQueryRel(`select f from flip`)
	if rel.IsCertain() || rel.Len() != 2 {
		t.Fatalf("rel: %v", rel)
	}
	store := db.WorldStore()
	if store.NumVars() == 0 {
		t.Error("repair key should have registered variables")
	}
	if p := rel.TupleProb(0, store); math.Abs(p-0.5) > 1e-12 {
		t.Errorf("marginal: %v", p)
	}
}

func TestTransactionsThroughAPI(t *testing.T) {
	db := Open()
	db.MustExec("create table t (a int)")
	db.MustExec("begin; insert into t values (1); rollback")
	rows := db.MustQuery("select count(*) from t")
	if rows.Data[0][0].(int64) != 0 {
		t.Error("rollback through API")
	}
}

func TestConditionOn(t *testing.T) {
	db := Open()
	db.MustExec(`create table c (f text, w float); insert into c values ('h',1),('t',1);
		create table flip1 as repair key in c weight by w;
		create table flip2 as select f from (repair key in c weight by w) r`)
	// Evidence: flip1 landed heads.
	post, err := db.ConditionOn(`select f from flip1 where f = 'h'`)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(post.EvidenceProb()-0.5) > 1e-12 {
		t.Errorf("P(B)=%v", post.EvidenceProb())
	}
	// Given flip1=heads: P(flip1=tails | B) = 0.
	p, err := post.Prob(`select f from flip1 where f = 't'`)
	if err != nil || p != 0 {
		t.Errorf("contradiction: %v %v", p, err)
	}
	// The independent second flip is unaffected.
	p, err = post.Prob(`select f from flip2 where f = 'h'`)
	if err != nil || math.Abs(p-0.5) > 1e-12 {
		t.Errorf("independent flip: %v %v", p, err)
	}
	// Conditioning on impossible evidence fails.
	if _, err := db.ConditionOn(`select f from flip1 where f = 'x'`); err == nil {
		t.Error("impossible evidence must fail")
	}
	// Disjunctive evidence creates correlation: given h1 ∨ h2 over two
	// independent coins, P(h1 | B) = 2/3.
	post, err = db.ConditionOn(`
		select f from flip1 where f = 'h'
		union all
		select f from flip2 where f = 'h'`)
	if err != nil {
		t.Fatal(err)
	}
	p, err = post.Prob(`select f from flip1 where f = 'h'`)
	if err != nil || math.Abs(p-2.0/3) > 1e-9 {
		t.Errorf("P(h1 | h1∨h2) = %v want 2/3 (%v)", p, err)
	}
	// A query's own repair key has statement-local lineage: both the
	// evidence and the posterior query refuse it.
	const adHoc = `select f from (repair key in c weight by w) r where f = 'h'`
	if _, err := db.ConditionOn(adHoc); !errors.Is(err, ErrStatementLineage) {
		t.Errorf("ConditionOn over ad-hoc repair key: %v, want ErrStatementLineage", err)
	}
	if _, err := post.Prob(adHoc); !errors.Is(err, ErrStatementLineage) {
		t.Errorf("Prob over ad-hoc repair key: %v, want ErrStatementLineage", err)
	}
}
