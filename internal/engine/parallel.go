package engine

import (
	"context"
	"runtime"
	"time"

	"pvcagg/internal/compile"
	"pvcagg/internal/pvc"
)

// This file implements the batched parallel probability step: every
// result tuple's semimodule expressions compile and evaluate
// independently (they only share the read-only registry), so the tuples
// of a pvc-table fan out to a bounded worker pool. When tuples are
// scarcer than workers, the leftover parallelism moves *inside* each
// tuple's compilation (the compiler fans independent sub-problems and
// Shannon branches out, see compile.NewParallel), so a single hard tuple
// still saturates the machine.

// ParallelOptions configure batched parallel probability computation.
type ParallelOptions struct {
	// Parallelism bounds the number of goroutines doing compilation and
	// evaluation work, across tuples and inside tuples combined.
	// Parallelism <= 0 selects runtime.GOMAXPROCS(0); Parallelism == 1
	// reproduces the sequential path exactly.
	Parallelism int
}

// split divides the parallelism budget for a batch of n tuples into
// tuple-level workers and per-tuple (intra-compilation) parallelism.
func (o ParallelOptions) split(n int) (workers, inner int) {
	par := o.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	workers = par
	if n < workers {
		workers = n
	}
	inner = par / workers
	if inner < 1 {
		inner = 1
	}
	return workers, inner
}

// ProbabilitiesParallel is Probabilities with the result tuples
// distributed over a bounded worker pool. Results are returned in tuple
// order and are identical to the sequential ones (the per-tuple
// computation is deterministic and tuples are independent). Unlike
// Probabilities, which stops at the first failing tuple, every failing
// tuple is reported: the returned error joins one error per tuple.
//
// Deprecated: use Outcomes with an ExecConfig (or the facade's Exec).
func ProbabilitiesParallel(db *pvc.Database, rel *pvc.Relation, opts compile.Options, par ParallelOptions) ([]TupleResult, error) {
	outs, err := Outcomes(context.Background(), db, rel, ExecConfig{Compile: opts, Parallelism: par.Parallelism})
	if err != nil {
		return nil, err
	}
	res := make([]TupleResult, len(outs))
	for i, o := range outs {
		res[i] = o.AsTupleResult()
	}
	return res, nil
}

// RunParallel is Run with the probability step parallelised. Expression
// construction (⟦·⟧, step I) stays sequential — it is a small fraction
// of end-to-end cost on probabilistic workloads (Experiment F) — so the
// timing split remains comparable with Run's.
func RunParallel(db *pvc.Database, plan Plan, opts compile.Options, par ParallelOptions) (*pvc.Relation, []TupleResult, RunTiming, error) {
	return runWith(db, plan, func(rel *pvc.Relation) ([]TupleResult, error) {
		return ProbabilitiesParallel(db, rel, opts, par)
	})
}

// runWith chains the two query-evaluation steps with the given
// probability step — the shared body of Run, RunParallel and RunApprox
// (which differ only in the per-tuple result type).
func runWith[T any](db *pvc.Database, plan Plan, probabilities func(*pvc.Relation) ([]T, error)) (*pvc.Relation, []T, RunTiming, error) {
	var timing RunTiming
	t0 := time.Now()
	rel, err := plan.Eval(db)
	if err != nil {
		return nil, nil, timing, err
	}
	rel.Sort()
	timing.Construct = time.Since(t0)
	t1 := time.Now()
	results, err := probabilities(rel)
	if err != nil {
		return nil, nil, timing, err
	}
	timing.Probability = time.Since(t1)
	return rel, results, timing, nil
}
