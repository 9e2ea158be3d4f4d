package engine

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pvcagg/internal/compile"
	"pvcagg/internal/core"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/worlds"
)

// This file implements the unified probability step behind the facade's
// Exec API: one worker pool computes TupleOutcomes under any strategy
// (exact, anytime, sampling), either as an ordered batch (Outcomes) or as
// a stream that surfaces tuples in completion order (Stream), and the
// whole computation honours a context — cancellation reaches into the
// per-tuple compilations, which poll ctx at expansion steps.

// ExecConfig selects and parameterises one execution strategy. The zero
// value is the exact strategy at GOMAXPROCS parallelism.
type ExecConfig struct {
	// Compile configures exact compilation: the annotation under the
	// exact strategy and the aggregation columns under every strategy.
	Compile compile.Options
	// Parallelism bounds the number of goroutines across tuples and
	// inside tuples combined, as in ParallelOptions (<= 0 ⇒ GOMAXPROCS).
	Parallelism int
	// Approx, when non-nil, selects the anytime strategy: annotation
	// confidences are bracketed within Approx.Eps instead of computed
	// exactly.
	Approx *compile.ApproxOptions
	// Samples, when > 0, selects the Monte Carlo strategy: annotation
	// confidences are estimated from this many sampled worlds with a 95%
	// Hoeffding interval. Sampling requires an explicit Seed — there is
	// no ambient randomness anywhere in the engine.
	Samples int
	// Seed drives the sampling strategy; tuple i draws from a stream
	// derived as Seed + i·stride, so results are reproducible from the
	// single logged seed at any parallelism.
	Seed int64
	// OnBounds, when non-nil, observes each tuple's confidence bounds:
	// under the anytime strategy after every frontier expansion (via
	// Approx.OnBounds), under the exact and sampling strategies once per
	// tuple with the final interval. With Parallelism > 1 it is invoked
	// concurrently and must be safe for concurrent use.
	OnBounds func(compile.Bounds)
	// FailFast stops the run at the first failing tuple (in claim order)
	// and returns that tuple's error alone, instead of computing every
	// remaining tuple and joining all failures — the legacy sequential
	// Probabilities contract, kept for the deprecated wrappers.
	FailFast bool
}

// worker computes outcomes for one goroutine of the pool: it owns a
// pipeline, compiling at the leftover intra-tuple parallelism, and the
// per-tuple strategy dispatch. Tuples share nothing beyond the read-only
// registry.
type worker struct {
	pl  *core.Pipeline
	cfg *ExecConfig
}

func newWorker(db *pvc.Database, cfg *ExecConfig, inner int) *worker {
	return &worker{
		pl:  &core.Pipeline{Semiring: db.Semiring(), Registry: db.Registry, Options: cfg.Compile, Parallelism: inner},
		cfg: cfg,
	}
}

// outcome computes the full probabilistic interpretation of one result
// tuple under the configured strategy. Errors identify the tuple.
func (w *worker) outcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (TupleOutcome, error) {
	if t.Ann.Kind() != expr.KindSemiring {
		return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s is not a semiring expression", t.Key())
	}
	out := TupleOutcome{Index: idx, Tuple: t}
	switch {
	case w.cfg.Approx != nil:
		b, rep, err := w.pl.TruthProbabilityApprox(ctx, t.Ann, *w.cfg.Approx)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Key(), err)
		}
		out.Confidence = b
		out.Report.Approx = &rep
	case w.cfg.Samples > 0:
		b, err := w.sampleConfidence(ctx, idx, t.Ann)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Key(), err)
		}
		out.Confidence = b
		out.Report.Samples = w.cfg.Samples
	default:
		d, rep, err := w.pl.Distribution(ctx, t.Ann)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: annotation of tuple %s: %w", t.Key(), err)
		}
		out.Confidence = compile.Point(d.TruthProbability())
		out.Report.Exact = rep
	}
	// Anytime observation happens per expansion through Approx.OnBounds;
	// the other strategies report each tuple's final interval once, so
	// the callback is never silently dead under any strategy.
	if w.cfg.OnBounds != nil && w.cfg.Approx == nil {
		w.cfg.OnBounds(out.Confidence)
	}
	for _, ci := range moduleCols {
		e, err := t.Cells[ci].ModuleExpr()
		if err != nil {
			return TupleOutcome{}, err
		}
		d, rep, err := w.pl.Distribution(ctx, e)
		if err != nil {
			return TupleOutcome{}, fmt.Errorf("engine: aggregation value %s: %w", expr.String(e), err)
		}
		out.AggDists = append(out.AggDists, d)
		out.Report.addAggregate(rep)
	}
	return out, nil
}

// PanicError is a panic recovered in a worker-pool goroutine, converted
// to a typed per-tuple error: the panicking tuple fails, the other
// tuples of the batch are unaffected, and the process survives.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: panic computing tuple %d: %v", e.Index, e.Value)
}

// IsPanic reports whether err is (or wraps) a contained worker panic.
func IsPanic(err error) bool {
	var pe *PanicError
	return errors.As(err, &pe)
}

// safeOutcome is outcome with panic containment.
func (w *worker) safeOutcome(ctx context.Context, idx int, t pvc.Tuple, moduleCols []int) (out TupleOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			out = TupleOutcome{}
			err = &PanicError{Index: idx, Value: r, Stack: debug.Stack()}
		}
	}()
	return w.outcome(ctx, idx, t, moduleCols)
}

// sampleConfidence estimates the annotation's truth probability from
// Samples explicitly-seeded worlds, returning a 95% Hoeffding interval
// (statistical, unlike the anytime engine's guaranteed bounds).
func (w *worker) sampleConfidence(ctx context.Context, idx int, ann expr.Expr) (compile.Bounds, error) {
	rng := rand.New(rand.NewSource(int64(uint64(w.cfg.Seed) + uint64(idx)*tupleSeedStride)))
	d, err := worlds.MonteCarloCtx(ctx, ann, w.pl.Registry, w.pl.Semiring, w.cfg.Samples, rng)
	if err != nil {
		return compile.Bounds{}, err
	}
	lo, hi := worlds.Hoeffding95(d.TruthProbability(), w.cfg.Samples)
	return compile.Bounds{Lo: lo, Hi: hi}, nil
}

// Outcomes computes the outcome of every tuple of rel in tuple order,
// distributing tuples over a bounded worker pool; when tuples are scarcer
// than workers, the leftover parallelism moves inside each tuple's exact
// compilations. Every failing tuple is reported, joined into one error;
// a cancelled context aborts the in-flight compilations and returns
// ctx.Err().
func Outcomes(ctx context.Context, db *pvc.Database, rel *pvc.Relation, cfg ExecConfig) ([]TupleOutcome, error) {
	n := len(rel.Tuples)
	if n == 0 {
		return []TupleOutcome{}, nil
	}
	workers, inner := ParallelOptions{Parallelism: cfg.Parallelism}.split(n)
	moduleCols := rel.Schema.ModuleColumns()
	out := make([]TupleOutcome, n)
	errs := make([]error, n)
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := newWorker(db, &cfg, inner)
			for {
				if ctx.Err() != nil || aborted.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = wk.safeOutcome(ctx, i, rel.Tuples[i], moduleCols)
				if errs[i] != nil && cfg.FailFast {
					aborted.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cfg.FailFast {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	var failed []error
	for _, err := range errs {
		if err != nil {
			failed = append(failed, err)
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("engine: %d of %d tuples failed: %w", len(failed), n, errors.Join(failed...))
	}
	return out, nil
}

// Stream computes the outcome of every tuple of rel and yields each as
// soon as its worker finishes — completion order, not tuple order — so
// large workloads surface answers without a barrier. Per-tuple failures
// are yielded as (zero outcome, error) and the stream continues; breaking
// out of the iteration cancels the remaining work. When the context is
// cancelled before every tuple has been yielded, one final (zero outcome,
// ctx.Err()) is yielded.
func Stream(ctx context.Context, db *pvc.Database, rel *pvc.Relation, cfg ExecConfig) iter.Seq2[TupleOutcome, error] {
	return func(yield func(TupleOutcome, error) bool) {
		n := len(rel.Tuples)
		if n == 0 {
			return
		}
		sctx, cancel := context.WithCancel(ctx)
		defer cancel()
		workers, inner := ParallelOptions{Parallelism: cfg.Parallelism}.split(n)
		moduleCols := rel.Schema.ModuleColumns()
		type item struct {
			out TupleOutcome
			err error
		}
		ch := make(chan item, workers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wk := newWorker(db, &cfg, inner)
				for {
					if sctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					out, err := wk.safeOutcome(sctx, i, rel.Tuples[i], moduleCols)
					select {
					case ch <- item{out, err}:
					case <-sctx.Done():
						return
					}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		yielded := 0
		for it := range ch {
			if !yield(it.out, it.err) {
				cancel()
				for range ch { // unblock remaining workers until close
				}
				return
			}
			yielded++
		}
		if yielded < n {
			if err := ctx.Err(); err != nil {
				yield(TupleOutcome{}, err)
			}
		}
	}
}

// EvalPlan runs step I of query evaluation — computing the result tuples
// and their annotation and aggregation expressions (⟦·⟧) — returning the
// sorted result pvc-table and the construction time. The context is
// checked before and after (plan evaluation itself is polynomial; the
// exponential danger lives in step II's compilations).
func EvalPlan(ctx context.Context, db *pvc.Database, plan Plan) (*pvc.Relation, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	rel, err := plan.Eval(db)
	if err != nil {
		return nil, 0, err
	}
	rel.Sort()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return rel, time.Since(t0), nil
}
