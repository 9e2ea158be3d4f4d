// Differential and determinism tests for the compilation schedules: the
// one Compiler at every parallelism of parallelisms vs. brute-force
// possible-worlds enumeration, over randomized instances with fixed
// seeds. The external test package lets the harness use the gen and
// worlds packages (gen imports engine, which imports compile).
package compile_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/gen"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/worlds"
)

// parallelisms are the rows every schedule-sensitive test runs: inline,
// and forked with one and three spare workers.
var parallelisms = []int{1, 2, 4}

// compileAt compiles e with the one Compiler at parallelism par and
// evaluates the d-tree, checking Definition 7 on the way.
func compileAt(t *testing.T, s algebra.Semiring, inst gen.Instance, opts compile.Options, par int) prob.Dist {
	t.Helper()
	res, err := compile.NewParallel(s, inst.Registry, opts, par).Compile(inst.Expr)
	if err != nil {
		t.Fatalf("parallelism %d: compile: %v", par, err)
	}
	d, _, err := dtree.Evaluate(evalRoot(t, res), dtree.Env{Semiring: s, Registry: inst.Registry})
	if err != nil {
		t.Fatalf("parallelism %d: evaluate: %v", par, err)
	}
	return d
}

// diffParams enumerates the randomized instance grid of the differential
// harness: 3 sizes × 3 shapes × 4 aggregation monoids × 3 comparison
// operators = 108 instances, each with its own seed.
func diffParams() []gen.Params {
	aggs := []algebra.Agg{algebra.Min, algebra.Max, algebra.Sum, algebra.Count}
	thetas := []value.Theta{value.LE, value.GE, value.EQ}
	var out []gen.Params
	seed := int64(0)
	for _, size := range []struct{ v, l, r int }{{4, 3, 0}, {6, 5, 0}, {8, 6, 3}} {
		for _, shape := range []struct{ cl, lit int }{{1, 2}, {2, 1}, {2, 2}} {
			for _, agg := range aggs {
				for _, th := range thetas {
					seed++
					out = append(out, gen.Params{
						L:           size.l,
						R:           size.r,
						NumVars:     size.v,
						NumClauses:  shape.cl,
						NumLiterals: shape.lit,
						MaxV:        10,
						AggL:        agg,
						AggR:        agg,
						Theta:       th,
						C:           5,
						Seed:        seed,
					})
				}
			}
		}
	}
	return out
}

func evalRoot(t *testing.T, res compile.Result) dtree.Node {
	t.Helper()
	if err := dtree.Validate(res.Root); err != nil {
		t.Fatalf("d-tree violates Definition 7: %v", err)
	}
	return res.Root
}

// TestParallelCompileDifferential compiles 108 randomized conditional
// expressions at every parallelism and by brute-force enumeration, and
// requires every row to match enumeration and the rows to agree.
func TestParallelCompileDifferential(t *testing.T) {
	params := diffParams()
	if len(params) < 100 {
		t.Fatalf("differential grid has %d < 100 instances", len(params))
	}
	s := algebra.SemiringFor(algebra.Boolean)
	for _, p := range params {
		p := p
		name := fmt.Sprintf("%s/%s/v%d/L%d/R%d/seed%d", p.AggL, p.Theta, p.NumVars, p.L, p.R, p.Seed)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			inst := gen.MustNew(p)
			brute, err := worlds.Enumerate(inst.Expr, inst.Registry, s)
			if err != nil {
				t.Fatalf("enumerate: %v", err)
			}
			ref := compileAt(t, s, inst, compile.Options{}, 1)
			for _, par := range parallelisms {
				d := compileAt(t, s, inst, compile.Options{}, par)
				if !d.Equal(ref, 1e-12) {
					t.Fatalf("parallelism %d: %v != parallelism 1 %v", par, d, ref)
				}
				if !d.Equal(brute, 1e-9) {
					t.Fatalf("parallelism %d: %v != possible worlds %v", par, d, brute)
				}
			}
		})
	}
}

// TestParallelCompileOptions checks every parallelism under every
// ablation switch and variable order against brute force.
func TestParallelCompileOptions(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	p := gen.Params{
		L: 6, NumVars: 7, NumClauses: 2, NumLiterals: 2,
		MaxV: 10, AggL: algebra.Min, Theta: value.LE, C: 6, Seed: 7,
	}
	inst := gen.MustNew(p)
	brute, err := worlds.Enumerate(inst.Expr, inst.Registry, s)
	if err != nil {
		t.Fatal(err)
	}
	opts := []compile.Options{
		{},
		{DisablePruning: true},
		{DisableMemo: true},
		{DisableFactoring: true},
		{Order: compile.LeastOccurrences},
		{Order: compile.Lexicographic},
	}
	for i, o := range opts {
		for _, par := range parallelisms {
			if d := compileAt(t, s, inst, o, par); !d.Equal(brute, 1e-9) {
				t.Fatalf("options %d, parallelism %d: %v != possible worlds %v", i, par, d, brute)
			}
		}
	}
}

// TestParallelCompileDeterminism requires bit-identical distributions
// across repeated runs and across every parallelism and GOMAXPROCS.
func TestParallelCompileDeterminism(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	p := gen.Params{
		L: 10, NumVars: 10, NumClauses: 2, NumLiterals: 2,
		MaxV: 15, AggL: algebra.Sum, Theta: value.LE, C: 20, Seed: 42,
	}
	inst := gen.MustNew(p)
	ref := compileAt(t, s, inst, compile.Options{}, 1)
	for _, par := range append(parallelisms, runtime.GOMAXPROCS(0)) {
		for rep := 0; rep < 3; rep++ {
			if d := compileAt(t, s, inst, compile.Options{}, par); !d.Equal(ref, 0) {
				t.Fatalf("parallelism %d rep %d: %v != reference %v", par, rep, d, ref)
			}
		}
	}
}

// TestParallelCompileMaxNodes checks that the node budget aborts the
// compilation with ErrNodeBudget at every parallelism, and that Stats
// still account for the nodes created before the abort.
func TestParallelCompileMaxNodes(t *testing.T) {
	s := algebra.SemiringFor(algebra.Boolean)
	p := gen.Params{
		L: 12, NumVars: 12, NumClauses: 2, NumLiterals: 2,
		MaxV: 15, AggL: algebra.Sum, Theta: value.EQ, C: 9, Seed: 3,
	}
	inst := gen.MustNew(p)
	for _, par := range parallelisms {
		res, err := compile.NewParallel(s, inst.Registry, compile.Options{MaxNodes: 5}, par).Compile(inst.Expr)
		if !errors.Is(err, compile.ErrNodeBudget) || !strings.Contains(err.Error(), "exceeds 5 nodes") {
			t.Fatalf("parallelism %d: error = %v, want the 5-node budget error", par, err)
		}
		if res.Stats.Nodes == 0 {
			t.Errorf("parallelism %d: failed compile reports no nodes created", par)
		}
	}
}
