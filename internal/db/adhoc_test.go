package db

import (
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"

	"maybms/internal/urel"
)

// Queries that introduce uncertainty themselves. Each allocates
// world-set variables, in a statement-private overlay.
const (
	adHocRepairKey = `select k, v from (repair key k in r weight by w) x order by k, v`
	adHocPick      = `select k, v from (pick tuples from r independently with probability p) x order by k, v`
	adHocWarmRead  = `select k from r where v = 1 order by k`
)

func adHocDB(t *testing.T, dir string) *Database {
	t.Helper()
	d, err := Open(Options{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	mustRun(t, d, `create table r (k int, v int, w float, p float)`)
	mustRun(t, d, `insert into r values (1, 1, 1, 0.5), (1, 2, 3, 0.25), (2, 1, 1, 0.9), (2, 2, 1, 0.1), (3, 1, 2, 1)`)
	return d
}

// dirBytes sums the sizes of the files in a (flat) data directory.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		n += info.Size()
	}
	return n
}

// timing strips what EXPLAIN ANALYZE measures rather than computes.
var timing = regexp.MustCompile(`(time|close|trace_id)=\S+`)

// adHocEntries run one query through each entry point and render its
// rows with their conditions.
var adHocEntries = []struct {
	name string
	run  func(t *testing.T, d *Database, q string) string
}{
	{"run", func(t *testing.T, d *Database, q string) string {
		return relString(mustRun(t, d, q).Rel)
	}},
	{"cursor", func(t *testing.T, d *Database, q string) string {
		cur, err := d.OpenQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		rel := urel.New(cur.Sch())
		for {
			b, err := cur.Next()
			if err == io.EOF {
				return relString(rel)
			}
			if err != nil {
				t.Fatal(err)
			}
			rel.Tuples = append(rel.Tuples, b.Tuples...)
		}
	}},
	{"explain-analyze", func(t *testing.T, d *Database, q string) string {
		return timing.ReplaceAllString(relString(mustRun(t, d, "explain analyze "+q).Rel), "")
	}},
	{"txn", func(t *testing.T, d *Database, q string) string {
		mustRun(t, d, "begin")
		out := relString(mustRun(t, d, q).Rel)
		mustRun(t, d, "commit")
		return out
	}},
}

// TestAdHocUncertaintyIsARead: a query with its own repair key or pick
// tuples, through every entry point and on both engines, leaves the
// shared world-set store, the WAL, the data directory and the plan
// cache as it found them, and answers identically every time.
func TestAdHocUncertaintyIsARead(t *testing.T) {
	for _, engine := range []string{"memory", "disk"} {
		for _, entry := range adHocEntries {
			t.Run(engine+"/"+entry.name, func(t *testing.T) {
				dir := ""
				if engine == "disk" {
					dir = t.TempDir()
				}
				d := adHocDB(t, dir)
				mustRun(t, d, adHocWarmRead)
				mustRun(t, d, adHocWarmRead)
				vars := d.WSVars()
				appends := d.StorageStats().WALAppends
				var bytes int64
				if dir != "" {
					bytes = dirBytes(t, dir)
				}
				for _, q := range []string{adHocRepairKey, adHocPick} {
					first := entry.run(t, d, q)
					if !strings.Contains(first, "->") && !strings.Contains(first, "[uncertain]") {
						t.Fatalf("%s: want an uncertain result, got:\n%s", q, first)
					}
					for i := 1; i < 50; i++ {
						if got := entry.run(t, d, q); got != first {
							t.Fatalf("%s run %d differs from the first:\n got: %s\nwant: %s", q, i, got, first)
						}
					}
				}
				if got := d.WSVars(); got != vars {
					t.Errorf("world-set variables: %d -> %d", vars, got)
				}
				if got := d.StorageStats().WALAppends; got != appends {
					t.Errorf("WAL appends: %d -> %d", appends, got)
				}
				if dir != "" {
					if got := dirBytes(t, dir); got != bytes {
						t.Errorf("data directory bytes: %d -> %d", bytes, got)
					}
				}
				h0, m0, _ := d.PlanCacheStats()
				mustRun(t, d, adHocWarmRead)
				if h1, m1, _ := d.PlanCacheStats(); h1 != h0+1 || m1 != m0 {
					t.Errorf("warmed read after ad-hoc queries: want a hit, got hits %d->%d misses %d->%d", h0, h1, m0, m1)
				}
			})
		}
	}
}

// TestAdHocUncertaintyConcurrentWithWriter: readers running ad-hoc
// repair-key and pick-tuples queries share the read path with a
// writer inserting into their source table (run under -race).
func TestAdHocUncertaintyConcurrentWithWriter(t *testing.T) {
	d := adHocDB(t, "")
	const readers, rounds = 4, 25
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := d.Run(fmt.Sprintf("insert into r values (%d, 1, 1, 0.5)", 10+i)); err != nil {
				errs <- err
				return
			}
		}
	}()
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				q := adHocRepairKey
				if (g+i)%2 == 1 {
					q = adHocPick
				}
				if _, err := d.Run(q); err != nil {
					errs <- err
					return
				}
				if _, err := d.Run("select k, conf() from (repair key k in r weight by w) x group by k"); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := d.WSVars(); n != 0 {
		t.Errorf("ad-hoc reads left %d variables in the shared store", n)
	}
	if n := d.SnapshotsOpen(); n != 0 {
		t.Errorf("%d snapshots left open", n)
	}
	if got := relString(mustRun(t, d, "select count(*) from r").Rel); !strings.Contains(got, fmt.Sprint(5+rounds)) {
		t.Errorf("writer's inserts: %s", got)
	}
}
