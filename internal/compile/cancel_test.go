package compile_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
	"pvcagg/internal/gen"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// cancelInstance is a generated hard (non-Qind/Qhie) instance whose exact
// compilation takes hundreds of milliseconds at least (the same shape as
// TestApproxHardInstance's acceptance instance): long enough that a
// cancellation arriving a few milliseconds in is guaranteed to interrupt
// mid-compile on every path.
func cancelInstance(t *testing.T) gen.Instance {
	t.Helper()
	p := gen.Params{
		L: 30, R: 15, NumVars: 22, NumClauses: 2, NumLiterals: 2,
		MaxV: 200, AggL: algebra.Min, AggR: algebra.Count, Theta: value.LE,
		VarProb: 0.95, Seed: 1,
	}
	return gen.MustNew(p)
}

// promptness is the acceptance bound on how long a cancelled compilation
// may keep running after cancel() fires: compilations poll ctx every 256
// created nodes, which is microseconds of work.
const promptness = 100 * time.Millisecond

// assertCancels runs f with a context cancelled after a few milliseconds
// and asserts that f returns context.Canceled within the promptness bound
// of the cancellation.
func assertCancels(t *testing.T, path string, f func(ctx context.Context) error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- f(ctx) }()
	// Let the compilation get going before pulling the plug; if it
	// finishes faster than the fuse the instance was not hard enough.
	fuse := 10 * time.Millisecond
	select {
	case err := <-errc:
		t.Fatalf("%s: compilation finished in under %v (err=%v); instance not hard enough to test cancellation", path, fuse, err)
	case <-time.After(fuse):
	}
	t0 := time.Now()
	cancel()
	select {
	case err := <-errc:
		if elapsed := time.Since(t0); elapsed > promptness {
			t.Errorf("%s: returned %v after cancel, want < %v", path, elapsed, promptness)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error = %v, want context.Canceled", path, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: compilation did not return within 5s of cancellation", path)
	}
}

// TestCancelCompile: a cancelled context aborts compilation
// mid-Shannon-expansion, promptly, at every parallelism — inline, and in
// every branch of a fork.
func TestCancelCompile(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	for _, par := range parallelisms {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			assertCancels(t, fmt.Sprintf("parallelism %d", par), func(ctx context.Context) error {
				_, err := compile.NewParallel(s, inst.Registry, compile.Options{}, par).CompileCtx(ctx, inst.Expr)
				return err
			})
		})
	}
}

// TestCancelApproximate: cancellation aborts the anytime frontier loop
// and its exact leaf closures. ε is far below what the instance can reach
// quickly, so the engine is guaranteed to still be expanding when the
// cancellation lands.
func TestCancelApproximate(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	assertCancels(t, "anytime", func(ctx context.Context) error {
		_, _, err := compile.ApproximateCtx(ctx, s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 1e-9})
		return err
	})
}

// TestCancelShannonDescent: the annotation shape of a selection over a
// wide MAX aggregate — [MAX-sum over n variables ≤ c] · (x1 + … + xn) —
// sends the compiler down a Shannon descent that conditions one variable
// per level, does O(n) substitution work per level, and materialises its
// decision nodes only post-order. A cancellation poll keyed on created
// nodes alone never fires during that descent (minutes of work for tens
// of thousands of tuples), so the compiler also polls on recursion
// steps; this is the regression test for that descent-side poll.
func TestCancelShannonDescent(t *testing.T) {
	const n = 6000
	reg := vars.NewRegistry()
	aggTerms := make([]expr.Expr, n)
	presence := make([]expr.Expr, n)
	for i := range aggTerms {
		name := fmt.Sprintf("x%d", i)
		reg.DeclareBool(name, 0.5)
		aggTerms[i] = expr.Scale(algebra.Max, expr.V(name), value.Int(int64(i%97)))
		presence[i] = expr.V(name)
	}
	e := expr.Product(
		expr.Compare(value.LE, expr.MSum(algebra.Max, aggTerms...), expr.MConst{V: value.Int(50)}),
		expr.Sum(presence...),
	)
	s := algebra.SemiringFor(algebra.Boolean)
	for _, par := range parallelisms {
		assertCancels(t, fmt.Sprintf("descent at parallelism %d", par), func(ctx context.Context) error {
			_, err := compile.NewParallel(s, reg, compile.Options{}, par).CompileCtx(ctx, e)
			return err
		})
	}
}

// TestCancelBeforeStart: an already-cancelled context aborts before any
// expansion work, at every parallelism and in the anytime engine.
func TestCancelBeforeStart(t *testing.T) {
	inst := cancelInstance(t)
	s := algebra.SemiringFor(algebra.Boolean)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, par := range parallelisms {
		if _, err := compile.NewParallel(s, inst.Registry, compile.Options{}, par).CompileCtx(ctx, inst.Expr); !errors.Is(err, context.Canceled) {
			t.Errorf("parallelism %d: error = %v, want context.Canceled", par, err)
		}
	}
	if _, _, err := compile.ApproximateCtx(ctx, s, inst.Registry, inst.Expr, compile.ApproxOptions{Eps: 1e-9}); !errors.Is(err, context.Canceled) {
		t.Errorf("anytime: error = %v, want context.Canceled", err)
	}
}
