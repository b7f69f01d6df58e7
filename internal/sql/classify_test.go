package sql

import "testing"

func classify(t *testing.T, src string) bool {
	t.Helper()
	stmts, err := ParseAll(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("want one statement in %q, got %d", src, len(stmts))
	}
	return ReadOnly(stmts[0])
}

func allocates(t *testing.T, src string) bool {
	t.Helper()
	stmts, err := ParseAll(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return Allocates(stmts[0])
}

func TestReadOnlyClassification(t *testing.T) {
	reads := []string{
		`select * from t`,
		`select a, conf() from t group by a`,
		`select aconf(0.1, 0.1) from t`,
		`select tconf() from t`,
		`select possible a from t`,
		`select * from t where a in (select b from u)`,
		`select * from t where exists (select 1 from u)`,
		`select * from (select a from t) s where a > 1`,
		`select * from t union all select * from u`,
		`explain select * from t`,
		// EXPLAIN never executes, so even over repair key it allocates
		// nothing.
		`explain select * from (repair key a in t weight by w) r`,
		`select esum(a) from t`,
	}
	for _, src := range reads {
		if !classify(t, src) {
			t.Errorf("want read-only: %q", src)
		}
		if allocates(t, src) {
			t.Errorf("want no allocation: %q", src)
		}
	}
	// repair key / pick tuples allocate world-set variables, in a
	// private overlay of the store: the queries are still reads.
	allocating := []string{
		`select * from (repair key a in t weight by w) r`,
		`repair key a in t weight by w`,
		`pick tuples from t with probability p`,
		`select * from (pick tuples from t) p`,
		`select * from t where a in (select b from (repair key k in u) r)`,
		`select * from t where exists (select 1 from (pick tuples from u) p)`,
		`select * from t union all select * from (repair key k in u) r`,
		`select * from (select * from (repair key k in u) r) s`,
	}
	for _, src := range allocating {
		if !classify(t, src) {
			t.Errorf("want read-only: %q", src)
		}
		if !allocates(t, src) {
			t.Errorf("want allocation: %q", src)
		}
	}
	writes := []string{
		`create table t (a int)`,
		`drop table t`,
		`insert into t values (1)`,
		`update t set a = 2`,
		`delete from t`,
		`begin`,
		`commit`,
		`rollback`,
		`create table c as select * from t`,
		// A write keeps what it allocates; Allocates speaks of reads.
		`create table c as repair key a in t weight by w`,
	}
	for _, src := range writes {
		if classify(t, src) {
			t.Errorf("want write: %q", src)
		}
		if allocates(t, src) {
			t.Errorf("Allocates is for reads only: %q", src)
		}
	}
}
