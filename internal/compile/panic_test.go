package compile_test

import (
	"fmt"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

// TestPanicInBranch: a panic raised while compiling a sub-problem — here
// the Natural semiring's PROD action meeting a negative exponent inside
// the factor groups of a split — reaches the goroutine that called
// Compile at every parallelism, where it can be recovered, instead of
// killing the process from a forked branch.
func TestPanicInBranch(t *testing.T) {
	reg := vars.NewRegistry()
	reg.Declare("px", prob.FromPairs([]prob.Pair{{V: value.Int(1), P: 0.5}, {V: value.Int(2), P: 0.5}}))
	for _, name := range []string{"py", "pz"} {
		reg.Declare(name, prob.FromPairs([]prob.Pair{{V: value.Int(-1), P: 0.5}, {V: value.Int(1), P: 0.5}}))
	}
	e := expr.MustParse("prod(px*py @prod 2, px*pz @prod 3, py*pz @prod 5, px @prod 7)")
	s := algebra.SemiringFor(algebra.Natural)
	for _, par := range parallelisms {
		recovered := func() (p any) {
			defer func() { p = recover() }()
			_, err := compile.NewParallel(s, reg, compile.Options{}, par).Compile(e)
			t.Errorf("parallelism %d: Compile returned (err=%v) instead of panicking", par, err)
			return nil
		}()
		if !strings.Contains(fmt.Sprint(recovered), "negative exponent") {
			t.Errorf("parallelism %d: recovered %v, want the PROD-action panic", par, recovered)
		}
	}
}
