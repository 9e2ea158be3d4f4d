// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7). Each benchmark family corresponds to one figure;
// run with
//
//	go test -bench=. -benchmem
//
// Absolute times are hardware- and language-dependent; the reproduced
// quantities are the qualitative shapes (see EXPERIMENTS.md): growth and
// saturation in c (Figure 7), linear growth in L (Figure 8b), the
// easy/hard/easy phase transition in #v (Figure 8a) and #l/#cl (Figure 9),
// the asymmetric behaviour of two-sided comparisons (Figure 10), and the
// polynomial ⟦·⟧/P(·) overhead on TPC-H (Figure 11). The benchmark
// parameters are scaled down from the paper's so that the full suite
// completes in minutes; cmd/experiments -preset paper runs the original
// parameters.
package pvcagg_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/benchx"
	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/engine"
	"pvcagg/internal/gen"
	"pvcagg/internal/pvc"
	"pvcagg/internal/server"
	"pvcagg/internal/tpch"
	"pvcagg/internal/value"
)

// benchBase mirrors Section 7.1's base parameters, scaled down
// (#v=15, L=40 instead of #v=25, L=200).
func benchBase() gen.Params { return benchx.QuickBase() }

func distOnce(b *testing.B, p gen.Params) {
	b.Helper()
	inst := gen.MustNew(p)
	pl := core.New(algebra.Boolean, inst.Registry)
	pl.Options = compile.Options{MaxNodes: 5_000_000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ExpA: Experiment A (Figure 7) — vary the constant c for
// each aggregation monoid and comparison operator.
func BenchmarkFig7ExpA(b *testing.B) {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum}
	thetas := []value.Theta{value.EQ, value.LE, value.GE}
	cs := []int64{0, 50, 100, 200, 300}
	for _, agg := range aggs {
		for _, th := range thetas {
			for _, c := range cs {
				name := fmt.Sprintf("%s/%s/c=%d", agg, thName(th), c)
				b.Run(name, func(b *testing.B) {
					p := benchBase()
					p.AggL = agg
					p.Theta = th
					p.C = c
					if agg == algebra.Sum {
						p.C = c * 20 // the paper scales SUM's axis by maxv/2
					}
					p.Seed = 1
					distOnce(b, p)
				})
			}
		}
	}
}

// BenchmarkFig8bExpB: Experiment B (Figure 8b) — vary the number of terms
// L at constant #v.
func BenchmarkFig8bExpB(b *testing.B) {
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Max, algebra.Count, algebra.Sum} {
		for _, l := range []int{10, 40, 100, 200} {
			b.Run(fmt.Sprintf("%s/L=%d", agg, l), func(b *testing.B) {
				p := benchBase()
				p.AggL = agg
				p.Theta = value.EQ
				p.L = l
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig8aExpC: Experiment C (Figure 8a) — vary the number of
// distinct variables #v at constant expression size (easy/hard/easy).
func BenchmarkFig8aExpC(b *testing.B) {
	for _, v := range []int{4, 8, 12, 16, 24, 40, 80} {
		b.Run(fmt.Sprintf("v=%d", v), func(b *testing.B) {
			p := benchBase()
			p.L = 30
			p.NumClauses = 2
			p.NumLiterals = 2
			p.MaxV = 5
			p.C = 3
			p.Theta = value.EQ
			p.NumVars = v
			p.Seed = 1
			distOnce(b, p)
		})
	}
}

// BenchmarkFig9ExpD: Experiment D (Figure 9) — vary literals per clause
// (a) and clauses per term (b).
func BenchmarkFig9ExpD(b *testing.B) {
	for _, agg := range []algebra.Agg{algebra.Min, algebra.Count} {
		for _, l := range []int{1, 2, 4, 8, 16} {
			b.Run(fmt.Sprintf("literals/%s/l=%d", agg, l), func(b *testing.B) {
				p := benchBase()
				p.L = 30
				p.MaxV = 5
				p.C = 3
				p.Theta = value.LE
				p.AggL = agg
				p.NumLiterals = l
				p.Seed = 1
				distOnce(b, p)
			})
		}
		for _, cl := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("clauses/%s/cl=%d", agg, cl), func(b *testing.B) {
				p := benchBase()
				p.L = 30
				p.MaxV = 5
				p.C = 3
				p.Theta = value.LE
				p.AggL = agg
				p.NumClauses = cl
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig10ExpE: Experiment E (Figure 10) — two-sided comparisons
// with different aggregations per side, varying L then R.
func BenchmarkFig10ExpE(b *testing.B) {
	pairs := []benchx.AggPair{
		{L: algebra.Min, R: algebra.Max},
		{L: algebra.Min, R: algebra.Count},
		{L: algebra.Max, R: algebra.Sum},
	}
	for _, pair := range pairs {
		for _, l := range []int{10, 40, 80} {
			b.Run(fmt.Sprintf("%s-%s/L=%d", pair.L, pair.R, l), func(b *testing.B) {
				p := benchBase()
				p.NumClauses = 2
				p.NumLiterals = 2
				p.AggL, p.AggR = pair.L, pair.R
				p.L, p.R = l, 20
				p.Theta = value.LE
				p.Seed = 1
				distOnce(b, p)
			})
		}
		for _, r := range []int{10, 40, 80} {
			b.Run(fmt.Sprintf("%s-%s/R=%d", pair.L, pair.R, r), func(b *testing.B) {
				p := benchBase()
				p.NumClauses = 2
				p.NumLiterals = 2
				p.AggL, p.AggR = pair.L, pair.R
				p.L, p.R = 20, r
				p.Theta = value.LE
				p.Seed = 1
				distOnce(b, p)
			})
		}
	}
}

// BenchmarkFig11ExpF: Experiment F (Figure 11) — TPC-H Q1 and Q2 at
// increasing scale factors, separating Q0 (deterministic), ⟦·⟧
// (expression construction) and P(·) (probability computation).
func BenchmarkFig11ExpF(b *testing.B) {
	for _, sf := range []float64{0.0002, 0.0005, 0.001} {
		det, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		prb, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
		if err != nil {
			b.Fatal(err)
		}
		plans := []struct {
			name string
			plan engine.Plan
		}{
			{"Q1", tpch.Q1(1200)},
			{"Q2", tpch.Q2(1, "AFRICA")},
		}
		for _, q := range plans {
			b.Run(fmt.Sprintf("%s/Q0/sf=%g", q.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.plan.Eval(det); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/JK/sf=%g", q.name, sf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := q.plan.Eval(prb); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/P/sf=%g", q.name, sf), func(b *testing.B) {
				rel, err := q.plan.Eval(prb)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := engine.Probabilities(prb, rel, compile.Options{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// Paired sequential/parallel benchmarks for the concurrent execution
// layer: the same workload runs once through the sequential path and
// once through the bounded worker pool, so the reported ratio is the
// engine-level speedup (≈1× at GOMAXPROCS=1, growing with cores).

// BenchmarkParallelProbabilities: batched per-tuple probability
// computation on a multi-tuple TPC-H-style workload (Q1's grouped
// aggregates at growing scale factors).
func BenchmarkParallelProbabilities(b *testing.B) {
	for _, sf := range []float64{0.001, 0.002} {
		prb, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
		if err != nil {
			b.Fatal(err)
		}
		plan := tpch.Q1(1200)
		rel, err := plan.Eval(prb)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("sequential/sf=%g", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.Probabilities(prb, rel, compile.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("parallel/sf=%g", sf), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := engine.ProbabilitiesParallel(prb, rel, compile.Options{},
					engine.ParallelOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelCompile: single-expression compilation at
// parallelism 1, 2 and 4 (independent sub-problems and Shannon branches
// fanned out) on a hard random instance (two-sided comparison).
func BenchmarkParallelCompile(b *testing.B) {
	p := benchBase()
	p.NumClauses = 2
	p.NumLiterals = 2
	p.AggL, p.AggR = algebra.Min, algebra.Count
	p.L, p.R = 30, 20
	p.Theta = value.LE
	p.Seed = 1
	inst := gen.MustNew(p)
	pl := core.New(algebra.Boolean, inst.Registry)
	pl.Options = compile.Options{MaxNodes: 20_000_000}
	for _, par := range []int{1, 2, 4} {
		pl.Parallelism = par
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkApproxVsExact: the anytime approximate engine against exact
// compilation on a hard two-sided comparison with skewed marginals — the
// regime where unexpanded Shannon branches carry little probability mass
// and the anytime engine converges after expanding a fraction of the
// d-tree. The reported ratio is the anytime speedup at each ε.
func BenchmarkApproxVsExact(b *testing.B) {
	p := benchBase()
	p.NumClauses = 2
	p.NumLiterals = 2
	p.AggL, p.AggR = algebra.Min, algebra.Count
	p.L, p.R = 30, 15
	p.NumVars = 20
	p.Theta = value.LE
	p.VarProb = 0.95
	p.Seed = 1
	inst := gen.MustNew(p)
	pl := core.New(algebra.Boolean, inst.Registry)
	pl.Options = compile.Options{MaxNodes: 20_000_000}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("approx/eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, rep, err := pl.TruthProbabilityApprox(context.Background(), inst.Expr, compile.ApproxOptions{Eps: eps})
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Converged {
					b.Fatal("did not converge")
				}
			}
		})
	}
}

// Ablation benchmarks for the design choices called out in DESIGN.md.

func ablationParams() gen.Params {
	p := benchBase()
	p.AggL = algebra.Count
	p.Theta = value.LE
	p.C = 5
	p.L = 60
	p.Seed = 1
	return p
}

// BenchmarkAblationNoPruning: pruning + capping on vs off. The workload
// is the paper's own pruning example shape: [Σmin Φi⊗vi ≤ c] with a small
// c, where most terms have vi > c and are provably redundant.
func BenchmarkAblationNoPruning(b *testing.B) {
	params := benchBase()
	params.AggL = algebra.Min
	params.Theta = value.LE
	params.C = 20 // vi are uniform in [0, 200]: ~90% of terms prune away
	params.L = 60
	params.Seed = 1
	for _, off := range []bool{false, true} {
		name := "pruning=on"
		if off {
			name = "pruning=off"
		}
		b.Run(name, func(b *testing.B) {
			inst := gen.MustNew(params)
			pl := core.New(algebra.Boolean, inst.Registry)
			pl.Options = compile.Options{DisablePruning: off, MaxNodes: 5_000_000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoMemo: sub-expression memoisation on vs off.
func BenchmarkAblationNoMemo(b *testing.B) {
	p := ablationParams()
	p.L = 25
	p.NumVars = 10
	for _, off := range []bool{false, true} {
		name := "memo=on"
		if off {
			name = "memo=off"
		}
		b.Run(name, func(b *testing.B) {
			inst := gen.MustNew(p)
			pl := core.New(algebra.Boolean, inst.Registry)
			pl.Options = compile.Options{DisableMemo: off, MaxNodes: 20_000_000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationVarOrder: Shannon variable-choice heuristics.
func BenchmarkAblationVarOrder(b *testing.B) {
	orders := []struct {
		name string
		ord  compile.VarOrder
	}{
		{"most-occurrences", compile.MostOccurrences},
		{"least-occurrences", compile.LeastOccurrences},
		{"lexicographic", compile.Lexicographic},
	}
	p := ablationParams()
	p.L = 25
	p.NumVars = 12
	for _, o := range orders {
		b.Run(o.name, func(b *testing.B) {
			inst := gen.MustNew(p)
			pl := core.New(algebra.Boolean, inst.Registry)
			pl.Options = compile.Options{Order: o.ord, MaxNodes: 20_000_000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Distribution(context.Background(), inst.Expr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNoFactoring: read-once factoring on vs off, on the
// hierarchical-style annotations where factoring is the whole game.
func BenchmarkAblationNoFactoring(b *testing.B) {
	// Example 14-style read-once module sum: x_i(y_i1⊗v + y_i2⊗v).
	build := func(n int) (pvcagg.Expr, *pvcagg.Registry) {
		reg := pvcagg.NewRegistry()
		s := "["
		for i := 0; i < n; i++ {
			xi := fmt.Sprintf("x%d", i)
			y1 := fmt.Sprintf("y%da", i)
			y2 := fmt.Sprintf("y%db", i)
			reg.DeclareBool(xi, 0.5)
			reg.DeclareBool(y1, 0.5)
			reg.DeclareBool(y2, 0.5)
			if i > 0 {
				s += ", "
			} else {
				s = "[min("
			}
			s += fmt.Sprintf("%s*%s @min %d, %s*%s @min %d", xi, y1, 10+i, xi, y2, 20+i)
		}
		s += ") <= 15]"
		return pvcagg.MustParseExpr(s), reg
	}
	e, reg := build(12)
	for _, off := range []bool{false, true} {
		name := "factoring=on"
		if off {
			name = "factoring=off"
		}
		b.Run(name, func(b *testing.B) {
			pl := pvcagg.NewPipeline(pvcagg.Boolean, reg)
			pl.Options = compile.Options{DisableFactoring: off, MaxNodes: 20_000_000}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := pl.Distribution(context.Background(), e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSharedCache: the cross-tuple compilation cache (WithSharedCache)
// on a pvc-table whose tuples share their selection comparison — the
// workload the cache exists for. The paired off/on runs report the
// ablation directly.
func BenchmarkSharedCache(b *testing.B) {
	db, rel := sharedAnnotationTable(b, 64)
	for _, cached := range []bool{false, true} {
		name := "cache=off"
		if cached {
			name = "cache=on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := pvcagg.ExecTable(context.Background(), db, rel,
					pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1), pvcagg.WithSharedCache(cached))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func thName(th value.Theta) string {
	switch th {
	case value.EQ:
		return "eq"
	case value.LE:
		return "le"
	case value.GE:
		return "ge"
	default:
		return th.String()
	}
}

// The Exec benchmark family measures the unified entrypoint in each
// strategy on the same TPC-H Q1 workload, so exact-vs-anytime-vs-parallel
// trajectories accumulate across PRs. Run ad hoc with -bench=Exec, or
// emit machine-readable JSON with
//
//	go test -run TestEmitBenchJSON -benchjson BENCH_exec.json
//
// (TestEmitBenchJSON drives the same closures through testing.Benchmark
// and writes them via benchx.WriteBenchJSON.)

var benchJSONPath = flag.String("benchjson", "", "write the Exec benchmark results as JSON to this file")

// execBenchCase is one named Exec workload.
type execBenchCase struct {
	name string
	fn   func(b *testing.B)
}

// execBenchCases builds the named Exec workloads shared by BenchmarkExec
// and TestEmitBenchJSON, in a fixed emission order.
func execBenchCases(sf float64) ([]execBenchCase, error) {
	db, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
	if err != nil {
		return nil, err
	}
	plan := tpch.Q1(1200)
	run := func(opts ...pvcagg.Option) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pvcagg.Exec(context.Background(), db, plan, opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	stream := func(opts ...pvcagg.Option) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pvcagg.Exec(context.Background(), db, plan, opts...)
				if err != nil {
					b.Fatal(err)
				}
				for _, err := range res.Results() {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	// traced mirrors run with a fresh Trace per iteration — the overhead
	// row for the <3% tracing budget (a shared trace would accumulate
	// spans across iterations and measure slice growth, not tracing).
	traced := func(opts ...pvcagg.Option) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pvcagg.Exec(context.Background(), db, plan,
					append(opts[:len(opts):len(opts)], pvcagg.WithTrace(pvcagg.NewTrace()))...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []execBenchCase{
		{"exact/seq", run(pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))},
		{"exact/seq+trace", traced(pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))},
		{"exact/par", run(pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(0))},
		{"exact/stream", stream(pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(0))},
		{"exact/seq+cache", run(pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1), pvcagg.WithSharedCache(true))},
		{"anytime/0.05", run(pvcagg.WithMode(pvcagg.Anytime), pvcagg.WithEps(0.05))},
		{"auto", run(pvcagg.WithEps(0.05))},
		{"sample/10k", run(pvcagg.WithMode(pvcagg.Sample), pvcagg.WithSeed(1))},
	}, nil
}

// BenchmarkExec: the unified entrypoint across strategies on TPC-H Q1.
func BenchmarkExec(b *testing.B) {
	cases, err := execBenchCases(0.0005)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, c.fn)
	}
}

// tpchQ1PVQLBench is TPC-H Q1 as PVQL text, the workload of
// BenchmarkExecQuery.
const tpchQ1PVQLBench = `SELECT l_returnflag, l_linestatus, COUNT(*) AS count_order
  FROM lineitem WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus`

// execQueryBenchCases builds the PVQL frontend workloads: compile-only
// (parse + bind + optimize) and the full parse+optimize+run path, so the
// frontend's overhead is tracked alongside engine performance.
func execQueryBenchCases(sf float64) ([]execBenchCase, error) {
	db, err := tpch.Generate(tpch.Config{SF: sf, Seed: 1, Probabilistic: true})
	if err != nil {
		return nil, err
	}
	return []execBenchCase{
		{"compile", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pvcagg.ParseQuery(db, tpchQ1PVQLBench); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"exact/seq", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := pvcagg.ExecQuery(context.Background(), db, tpchQ1PVQLBench,
					pvcagg.WithMode(pvcagg.Exact), pvcagg.WithParallelism(1))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := res.Collect(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}

// BenchmarkExecQuery: the PVQL frontend (parse + optimize + run) on
// TPC-H Q1; compare with BenchmarkExec/exact/seq for the frontend
// overhead.
func BenchmarkExecQuery(b *testing.B) {
	cases, err := execQueryBenchCases(0.0005)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, c.fn)
	}
}

// evalPathBenchCases builds the streaming-vs-materialized step-I
// ablation on join/product-heavy plans where the materializing engine
// buffers a large intermediate the streaming path never allocates:
//
//   - product-select: σ[u≤w ∧ w≤u](PA × PB) — a θ-product of 360×360 =
//     129,600 pairs of which ~65 survive. Materializing builds the full
//     product relation first; streaming fuses the σ atoms into the pair
//     iterator and allocates output cells and annotations only for
//     survivors.
//   - join-filter-group: $[a; COUNT](σ[u≤5](JA ⋈ JB)) — a selective
//     filter over a wide hash join feeding a grouping sink. The
//     materializing path buffers the whole join output; streaming keeps
//     only the build table and the per-group accumulators.
//
// Both run engine.EvalPlan vs engine.StreamEvalPlan directly (step I
// only — step II is identical by construction), with allocations
// reported, so BENCH_exec.json records the memory cliff.
func evalPathBenchCases() ([]execBenchCase, error) {
	rng := rand.New(rand.NewSource(7))
	db := pvc.NewDatabase(algebra.Boolean)
	add := func(name string, cols [2]string, n int, row func(i int) [2]int64) error {
		rel := pvc.NewRelation(name, pvc.Schema{
			{Name: cols[0], Type: pvc.TValue},
			{Name: cols[1], Type: pvc.TValue},
		})
		for i := 0; i < n; i++ {
			r := row(i)
			if _, err := db.InsertIndependent(rel, 0.5, pvc.IntCell(r[0]), pvc.IntCell(r[1])); err != nil {
				return err
			}
		}
		db.Add(rel)
		return nil
	}
	if err := add("PA", [2]string{"a", "u"}, 360, func(i int) [2]int64 {
		return [2]int64{int64(i), rng.Int63n(2000)}
	}); err != nil {
		return nil, err
	}
	if err := add("PB", [2]string{"b", "w"}, 360, func(i int) [2]int64 {
		return [2]int64{int64(i), rng.Int63n(2000)}
	}); err != nil {
		return nil, err
	}
	if err := add("JA", [2]string{"a", "u"}, 400, func(i int) [2]int64 {
		return [2]int64{rng.Int63n(50), rng.Int63n(100)}
	}); err != nil {
		return nil, err
	}
	if err := add("JB", [2]string{"a", "v"}, 200, func(i int) [2]int64 {
		return [2]int64{rng.Int63n(50), int64(i)}
	}); err != nil {
		return nil, err
	}
	productSelect := &engine.Select{
		Input: &engine.Product{L: &engine.Scan{Table: "PA"}, R: &engine.Scan{Table: "PB"}},
		Pred:  engine.Where(engine.ColThetaCol("u", value.LE, "w"), engine.ColThetaCol("w", value.LE, "u")),
	}
	joinFilterGroup := &engine.GroupAgg{
		Input: &engine.Select{
			Input: &engine.Join{L: &engine.Scan{Table: "JA"}, R: &engine.Scan{Table: "JB"}},
			Pred:  engine.Where(engine.ColTheta("u", value.LE, pvc.IntCell(5))),
		},
		GroupBy: []string{"a"},
		Aggs:    []engine.AggSpec{{Out: "n", Agg: algebra.Count}},
	}
	mk := func(plan engine.Plan, streaming bool) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if streaming {
					_, _, err = engine.StreamEvalPlan(context.Background(), db, plan)
				} else {
					_, _, err = engine.EvalPlan(context.Background(), db, plan)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	return []execBenchCase{
		{"product-select/materialized", mk(productSelect, false)},
		{"product-select/streaming", mk(productSelect, true)},
		{"join-filter-group/materialized", mk(joinFilterGroup, false)},
		{"join-filter-group/streaming", mk(joinFilterGroup, true)},
	}, nil
}

// BenchmarkEvalPath: streaming vs materialized step-I execution on
// join/product-heavy plans (see evalPathBenchCases).
func BenchmarkEvalPath(b *testing.B) {
	cases, err := evalPathBenchCases()
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range cases {
		b.Run(c.name, c.fn)
	}
}

// TestEmitBenchJSON runs the Exec benchmark family through
// testing.Benchmark and writes the measurements to the file named by
// -benchjson (skipped when the flag is unset), so CI and scripts can
// accumulate BENCH_exec.json without parsing -bench output.
func TestEmitBenchJSON(t *testing.T) {
	if *benchJSONPath == "" {
		t.Skip("-benchjson not set")
	}
	cases, err := execBenchCases(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	queryCases, err := execQueryBenchCases(0.0005)
	if err != nil {
		t.Fatal(err)
	}
	evalCases, err := evalPathBenchCases()
	if err != nil {
		t.Fatal(err)
	}
	records := make([]benchx.BenchRecord, 0, len(cases)+len(queryCases)+len(evalCases))
	emit := func(prefix string, cs []execBenchCase) {
		for _, c := range cs {
			// Level the heap between cases: earlier cases' garbage
			// otherwise skews the GC pacing (and so the ns/op) of
			// later ones, which run in one shared process here unlike
			// under `go test -bench`.
			runtime.GC()
			r := testing.Benchmark(c.fn)
			records = append(records, benchx.BenchRecord{
				Name:        prefix + c.name,
				N:           r.N,
				NsPerOp:     float64(r.NsPerOp()),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			})
		}
	}
	emit("Exec/", cases)
	emit("ExecQuery/", queryCases)
	emit("EvalPath/", evalCases)
	storeRecs, err := storeBenchRecords()
	if err != nil {
		t.Fatal(err)
	}
	records = append(records, storeRecs...)
	rep, err := pvcdWorkloadReport()
	if err != nil {
		t.Fatal(err)
	}
	records = append(records, rep.BenchRecords("pvcd/mixed")...)
	if err := benchx.WriteBenchJSON(*benchJSONPath, records); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d records to %s", len(records), *benchJSONPath)
}

// pvcdWorkloadReport drives the benchx workload driver against an
// in-process query service on the same probabilistic TPC-H database as
// the Exec family, producing the pvcd/* tail-latency rows (p50/p95/p99
// over a mixed exact/anytime/sample request stream with a tight-deadline
// component) of BENCH_exec.json.
func pvcdWorkloadReport() (benchx.WorkloadReport, error) {
	db, err := tpch.Generate(tpch.Config{SF: 0.0005, Seed: 1, Probabilistic: true})
	if err != nil {
		return benchx.WorkloadReport{}, err
	}
	s := server.New(db, server.Config{
		Workers:      2,
		QueueDepth:   8,
		MaxQueueWait: 500 * time.Millisecond,
		DegradeAfter: 100 * time.Millisecond,
	})
	mkBody := func(extra map[string]any) string {
		m := map[string]any{"query": tpchQ1PVQLBench}
		for k, v := range extra {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return benchx.RunWorkload(ctx, s.Handler(), benchx.WorkloadConfig{
		Clients:  8,
		Requests: 6,
		Seed:     1,
		Bodies: []string{
			mkBody(map[string]any{"mode": "exact"}),
			mkBody(map[string]any{"mode": "anytime", "eps": 0.1}),
			mkBody(map[string]any{"mode": "sample", "seed": 7, "samples": 1000}),
			mkBody(map[string]any{"timeout_ms": 1}),
		},
	})
}
