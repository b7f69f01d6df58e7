package maybms

import (
	"fmt"
	"math/rand"
	"testing"

	"maybms/internal/conf/approx"
	"maybms/internal/conf/exact"
	"maybms/internal/conf/naive"
	"maybms/internal/conf/sprout"
	"maybms/internal/lineage"
	"maybms/internal/workload"
	"maybms/internal/ws"
)

// The benchmarks mirror the experiment tables E1–E8 of
// internal/experiments: one bench per table the reproduction tracks.
// cmd/bench prints the human-readable tables; these testing.B targets
// measure the same code paths under the standard Go benchmark harness.

// figure1DB builds the paper's Figure 1 database.
func figure1DB() *DB {
	db := Open()
	db.MustExec(`
		create table ft (player text, init text, final text, p float);
		insert into ft values
			('Bryant','F','F',0.8), ('Bryant','F','SE',0.05), ('Bryant','F','SL',0.15),
			('Bryant','SE','F',0.1), ('Bryant','SE','SE',0.6), ('Bryant','SE','SL',0.3),
			('Bryant','SL','F',0.8), ('Bryant','SL','SL',0.2);
		create table states (player text, state text);
		insert into states values ('Bryant','F');
	`)
	return db
}

// BenchmarkE1RandomWalk measures the paper's Figure 1 / Section 3
// 3-step random-walk query composition (repair-key + join + conf).
func BenchmarkE1RandomWalk(b *testing.B) {
	db := figure1DB()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustExec(`drop table if exists ft2`)
		db.MustExec(`
			create table ft2 as
			select r1.player, r1.init, r2.final, conf() as p from
				(repair key player, init in ft weight by p) r1,
				(repair key player, init in ft weight by p) r2, states s
			where r1.player = s.player and r1.init = s.state
				and r1.final = r2.init and r1.player = r2.player
			group by r1.player, r1.init, r2.final`)
		db.MustQuery(`
			select r2.final as state, conf() as p from
				(repair key player, init in ft2 weight by p) r1,
				(repair key player, init in ft weight by p) r2
			where r1.final = r2.init and r1.player = r2.player
			group by r1.player, r2.final`)
	}
}

// e2DNFs pre-generates DNF instances at a variable-to-clause ratio.
func e2DNFs(ratio float64, n int) ([]lineage.DNF, *ws.Store) {
	rng := rand.New(rand.NewSource(2009))
	store := ws.NewStore()
	vars := int(ratio * 14)
	if vars < 1 {
		vars = 1
	}
	out := make([]lineage.DNF, n)
	for i := range out {
		out[i] = workload.RandomDNF(rng, store, workload.DNFConfig{
			Vars: vars, MaxDomain: 2, Clauses: 14, MaxWidth: 3,
		})
	}
	return out, store
}

// BenchmarkE2ExactVsApprox sweeps the variable-to-clause ratio for
// both confidence computation strategies (Koch & Olteanu VLDB'08
// shape: exact wins outside a narrow ratio band).
func BenchmarkE2ExactVsApprox(b *testing.B) {
	for _, ratio := range []float64{0.5, 1, 2, 4} {
		dnfs, store := e2DNFs(ratio, 16)
		b.Run(fmt.Sprintf("exact/ratio=%g", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.Prob(dnfs[i%len(dnfs)], store)
			}
		})
		b.Run(fmt.Sprintf("aconf/ratio=%g", ratio), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := approx.ConfSeeded(dnfs[i%len(dnfs)], store, 0.1, 0.1, int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		if ratio <= 1 {
			b.Run(fmt.Sprintf("naive/ratio=%g", ratio), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					naive.Prob(dnfs[i%len(dnfs)], store)
				}
			})
		}
	}
}

// readOnceLineage builds hierarchical (read-once) lineage of a given
// breadth, the shape SPROUT's tractable queries produce.
func readOnceLineage(width int) (lineage.DNF, *ws.Store) {
	rng := rand.New(rand.NewSource(7))
	store := ws.NewStore()
	var d lineage.DNF
	for i := 0; i < width; i++ {
		sub := workload.ReadOnceDNF(rng, store, 2, 3)
		d = append(d, sub...)
	}
	return d, store
}

// BenchmarkE3Sprout compares SPROUT's read-once factorisation against
// the exact d-tree and Monte Carlo on hierarchical lineage (ICDE'09
// shape: SPROUT scales best).
func BenchmarkE3Sprout(b *testing.B) {
	for _, width := range []int{4, 16, 64} {
		d, store := readOnceLineage(width)
		b.Run(fmt.Sprintf("sprout/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, ok := sprout.Prob(d, store); !ok {
					b.Fatal("lineage must be read-once")
				}
			}
		})
		b.Run(fmt.Sprintf("exact/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				exact.Prob(d, store)
			}
		})
		b.Run(fmt.Sprintf("aconf/width=%d", width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := approx.ConfSeeded(d, store, 0.1, 0.1, int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// e4DB builds matching certain and uncertain join inputs.
func e4DB(rows int) *DB {
	db := Open()
	db.MustExec(`create table r (a int, b int); create table s (b int, c int)`)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < rows; i++ {
		db.MustExec(fmt.Sprintf("insert into r values (%d, %d)", i, rng.Intn(rows/2+1)))
		db.MustExec(fmt.Sprintf("insert into s values (%d, %d)", rng.Intn(rows/2+1), i))
	}
	db.MustExec(`
		create table ur as pick tuples from r independently with probability 0.9;
		create table us as pick tuples from s independently with probability 0.9;
	`)
	return db
}

// BenchmarkE4Translation measures the overhead of the positive-RA
// translation: the same join on certain tables vs U-relations
// (ICDE'08 shape: small constant factor).
func BenchmarkE4Translation(b *testing.B) {
	db := e4DB(500)
	b.Run("certain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.MustQuery(`select r.a, s.c from r, s where r.b = s.b`)
		}
	})
	b.Run("urelation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.MustQuery(`select ur.a, us.c from ur, us where ur.b = us.b`)
		}
	})
}

// e5DB builds the self-join workload contrasting expectation
// aggregates with confidence computation.
func e5DB(groupSize int) *DB {
	db := Open()
	db.MustExec(`create table base (grp int, v int, p float)`)
	rng := rand.New(rand.NewSource(5))
	for grp := 0; grp < 4; grp++ {
		for i := 0; i < groupSize; i++ {
			db.MustExec(fmt.Sprintf("insert into base values (%d, %d, %.3f)", grp, i, 0.3+0.6*rng.Float64()))
		}
	}
	db.MustExec(`create table u as pick tuples from base independently with probability p`)
	return db
}

// BenchmarkE5Expected shows esum staying cheap while conf pays the
// #P price on the same non-read-once self-join lineage.
func BenchmarkE5Expected(b *testing.B) {
	for _, g := range []int{6, 12} {
		db := e5DB(g)
		b.Run(fmt.Sprintf("esum/group=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.MustQuery(`select a.grp, esum(a.v + b.v) from u a, u b where a.grp = b.grp and a.v < b.v group by a.grp`)
			}
		})
		b.Run(fmt.Sprintf("conf/group=%d", g), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db.MustQuery(`select a.grp, conf() from u a, u b where a.grp = b.grp and a.v < b.v group by a.grp`)
			}
		})
	}
}

// BenchmarkE6RepairKey measures uncertainty-introduction throughput.
func BenchmarkE6RepairKey(b *testing.B) {
	db := Open()
	db.MustExec(`create table base (k int, v int, w float)`)
	for i := 0; i < 2000; i++ {
		db.MustExec(fmt.Sprintf("insert into base values (%d, %d, 1)", i/10, i))
	}
	b.Run("repair-key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.MustExec(`drop table if exists rk`)
			db.MustExec(`create table rk as repair key k in base weight by w`)
		}
	})
	b.Run("pick-tuples", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			db.MustExec(`drop table if exists pk`)
			db.MustExec(`create table pk as pick tuples from base independently with probability 0.5`)
		}
	})
}

// BenchmarkE7AconfAccuracy measures the cost of tightening ε (trials
// grow ~1/ε²).
func BenchmarkE7AconfAccuracy(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	store := ws.NewStore()
	d := workload.RandomDNF(rng, store, workload.DNFConfig{
		Vars: 10, MaxDomain: 2, Clauses: 8, MaxWidth: 3,
	})
	for _, eps := range []float64{0.2, 0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := approx.ConfSeeded(d, store, eps, 0.05, int64(i), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQueryPipeline measures the end-to-end engine on a plain
// certain SQL workload, as a baseline for the probabilistic overheads.
func BenchmarkQueryPipeline(b *testing.B) {
	db := Open()
	db.MustExec(`create table t (a int, b text)`)
	for i := 0; i < 1000; i++ {
		db.MustExec(fmt.Sprintf("insert into t values (%d, 'v%d')", i, i%10))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.MustQuery(`select b, count(*), sum(a) from t where a % 2 = 0 group by b order by b`)
	}
}
