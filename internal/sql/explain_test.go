package sql

import (
	"strings"
	"testing"
)

func parseOne(t *testing.T, src string) Statement {
	t.Helper()
	stmts, err := ParseAll(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if len(stmts) != 1 {
		t.Fatalf("want one statement in %q, got %d", src, len(stmts))
	}
	return stmts[0]
}

func TestParseExplainAnalyze(t *testing.T) {
	cases := []struct {
		src     string
		analyze bool
	}{
		{`explain select a from t`, false},
		{`explain analyze select a from t`, true},
		{`EXPLAIN ANALYZE select a from t where a > 1 order by a limit 3`, true},
		{`explain analyze select a from t union all select b from u`, true},
		{`explain analyze select name from (repair key name in cand weight by w) r`, true},
	}
	for _, c := range cases {
		s, ok := parseOne(t, c.src).(*ExplainStmt)
		if !ok {
			t.Errorf("%q: want *ExplainStmt, got %T", c.src, parseOne(t, c.src))
			continue
		}
		if s.Analyze != c.analyze {
			t.Errorf("%q: Analyze = %v, want %v", c.src, s.Analyze, c.analyze)
		}
		if s.Query == nil {
			t.Errorf("%q: nil query", c.src)
		}
	}
}

// EXPLAIN is a statement prefix, not an expression or query arm: it
// cannot nest inside a UNION branch or a subquery.
func TestExplainNotNestable(t *testing.T) {
	bad := []string{
		`select 1 union all explain select 2`,
		`explain select 1 union all explain select 2`,
		`select * from (explain select a from t) s`,
		`explain analyze explain select a from t`,
		`explain analyze`,
	}
	for _, src := range bad {
		if _, err := ParseAll(src); err == nil {
			t.Errorf("parse %q: want error, got none", src)
		}
	}
}

// "analyze" stays available as an ordinary identifier outside the
// EXPLAIN prefix position.
func TestAnalyzeAsIdentifier(t *testing.T) {
	if _, err := ParseAll(`select analyze from t where analyze > 1`); err != nil {
		t.Errorf("analyze as column name: %v", err)
	}
	if _, err := ParseAll(`explain select analyze from t`); err != nil {
		t.Errorf("explain over analyze column: %v", err)
	}
}

// Every EXPLAIN is a read. Plain EXPLAIN never executes, so it
// allocates nothing even over repair key or pick tuples; EXPLAIN
// ANALYZE really runs the query, so it allocates when the query does.
func TestExplainAnalyzeClassification(t *testing.T) {
	cases := []struct {
		src       string
		allocates bool
	}{
		{`explain select * from (repair key a in t weight by w) r`, false},
		{`explain analyze select * from t`, false},
		{`explain analyze select a, conf() from t group by a`, false},
		{`explain analyze select * from (repair key a in t weight by w) r`, true},
		{`explain analyze select * from (pick tuples from t independently) p`, true},
	}
	for _, c := range cases {
		s := parseOne(t, c.src)
		if !ReadOnly(s) {
			t.Errorf("ReadOnly(%q) = false, want true", c.src)
		}
		if got := Allocates(s); got != c.allocates {
			t.Errorf("Allocates(%q) = %v, want %v", c.src, got, c.allocates)
		}
	}
}

// A malformed analyzed query surfaces the parser's own error rather
// than something about EXPLAIN.
func TestExplainAnalyzeBadQuery(t *testing.T) {
	_, err := ParseAll(`explain analyze insert into t values (1)`)
	if err == nil {
		t.Fatal("want parse error for EXPLAIN ANALYZE over a non-query statement, got none")
	}
	if strings.Contains(err.Error(), "panic") {
		t.Fatalf("unexpected error text: %v", err)
	}
}
