package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/compile"
	"pvcagg/internal/engine"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/pvc"
	"pvcagg/internal/testutil"
	"pvcagg/internal/value"
)

// streamDB builds a pvc-table with some healthy tuples and two tuples
// annotated with undeclared variables (so their outcome computation
// fails), to exercise the per-tuple error semantics of the unified
// runners.
func streamDB(t *testing.T) (*pvc.Database, *pvc.Relation) {
	t.Helper()
	db := pvc.NewDatabase(algebra.Boolean)
	rel := pvc.NewRelation("R", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	for i := int64(0); i < 5; i++ {
		if _, err := db.InsertIndependent(rel, 0.5, pvc.IntCell(i)); err != nil {
			t.Fatal(err)
		}
	}
	rel.Tuples = append(rel.Tuples,
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(100)}, Ann: expr.V("ghost1")},
		pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(101)}, Ann: expr.V("ghost2")},
	)
	db.Add(rel)
	return db, rel
}

// TestStreamPerTupleErrors: failing tuples are yielded as (zero, err)
// while the healthy ones still arrive, at every parallelism.
func TestStreamPerTupleErrors(t *testing.T) {
	db, rel := streamDB(t)
	for _, par := range []int{1, 4} {
		ok, failed := 0, 0
		for o, err := range engine.Stream(context.Background(), db, rel, engine.ExecConfig{Parallelism: par}) {
			if err != nil {
				if !strings.Contains(err.Error(), "ghost") {
					t.Errorf("parallelism %d: unexpected error %v", par, err)
				}
				failed++
				continue
			}
			if o.Confidence.Lo != 0.5 || o.Confidence.Hi != 0.5 {
				t.Errorf("parallelism %d tuple %d: confidence %v, want [0.5, 0.5]", par, o.Index, o.Confidence)
			}
			ok++
		}
		if ok != 5 || failed != 2 {
			t.Errorf("parallelism %d: %d ok / %d failed, want 5/2", par, ok, failed)
		}
	}
	// The barrier version joins all failures into one error.
	if _, err := engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Parallelism: 4}); err == nil {
		t.Fatal("Outcomes: want error")
	} else {
		for _, want := range []string{"2 of 7 tuples failed", "ghost1", "ghost2"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Outcomes error %q does not mention %q", err, want)
			}
		}
	}
}

// TestStreamCancelled: a context cancelled before the stream starts
// yields a final context.Canceled instead of hanging or silently
// truncating.
func TestStreamCancelled(t *testing.T) {
	db, rel := streamDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawCancel := false
	n := 0
	for _, err := range engine.Stream(ctx, db, rel, engine.ExecConfig{Parallelism: 4}) {
		if err != nil && errors.Is(err, context.Canceled) {
			sawCancel = true
			continue
		}
		if err == nil {
			n++
		}
	}
	if !sawCancel {
		t.Error("no context.Canceled yielded from a cancelled stream")
	}
	if n == len(rel.Tuples) {
		t.Error("cancelled stream still yielded every tuple")
	}
}

// TestPanicContainment: a panic while computing one tuple (here a nil
// annotation) is recovered in the worker goroutine and surfaces as a
// typed *PanicError for that tuple only — the other tuples still arrive,
// no goroutine dies with the process, and none leak.
func TestPanicContainment(t *testing.T) {
	checkLeaks := testutil.CheckGoroutines(t)
	db, rel := streamDB(t)
	rel.Tuples = rel.Tuples[:5]
	rel.Tuples = append(rel.Tuples, pvc.Tuple{Cells: []pvc.Cell{pvc.IntCell(200)}, Ann: nil})
	for _, par := range []int{1, 4} {
		ok, panics := 0, 0
		for o, err := range engine.Stream(context.Background(), db, rel, engine.ExecConfig{Parallelism: par}) {
			if err != nil {
				if !engine.IsPanic(err) {
					t.Errorf("parallelism %d: non-panic error %v", par, err)
					continue
				}
				var pe *engine.PanicError
				if !errors.As(err, &pe) || pe.Index != 5 || len(pe.Stack) == 0 {
					t.Errorf("parallelism %d: PanicError = %+v, want index 5 with a stack", par, pe)
				}
				panics++
				continue
			}
			ok++
			_ = o
		}
		if ok != 5 || panics != 1 {
			t.Errorf("parallelism %d: %d ok / %d panics, want 5/1", par, ok, panics)
		}
	}
	// The barrier runner reports the panic in its joined error.
	if _, err := engine.Outcomes(context.Background(), db, rel, engine.ExecConfig{Parallelism: 4}); err == nil {
		t.Fatal("Outcomes: want error")
	} else if !engine.IsPanic(err) || !strings.Contains(err.Error(), "panic computing tuple 5") {
		t.Errorf("Outcomes error %q is not the contained panic", err)
	}
	// One tuple on four workers compiles with intra-tuple parallelism 4,
	// and its annotation panics inside a forked branch (the Natural
	// semiring's PROD action meeting a negative exponent): the panic
	// still surfaces as that tuple's PanicError.
	natDB := pvc.NewDatabase(algebra.Natural)
	natDB.Registry.Declare("px", prob.FromPairs([]prob.Pair{{V: value.Int(1), P: 0.5}, {V: value.Int(2), P: 0.5}}))
	for _, name := range []string{"py", "pz"} {
		natDB.Registry.Declare(name, prob.FromPairs([]prob.Pair{{V: value.Int(-1), P: 0.5}, {V: value.Int(1), P: 0.5}}))
	}
	natRel := pvc.NewRelation("N", pvc.Schema{{Name: "a", Type: pvc.TValue}})
	natRel.Tuples = []pvc.Tuple{{
		Cells: []pvc.Cell{pvc.IntCell(0)},
		Ann:   expr.MustParse("[prod(px*py @prod 2, px*pz @prod 3, py*pz @prod 5, px @prod 7) <= 100]"),
	}}
	natDB.Add(natRel)
	yielded := 0
	for _, err := range engine.Stream(context.Background(), natDB, natRel, engine.ExecConfig{Parallelism: 4}) {
		yielded++
		var pe *engine.PanicError
		if !errors.As(err, &pe) || pe.Index != 0 || !strings.Contains(err.Error(), "negative exponent") {
			t.Errorf("forked compile: error = %v, want tuple 0's PanicError", err)
		}
	}
	if yielded != 1 {
		t.Errorf("forked compile: %d outcomes, want 1", yielded)
	}
	checkLeaks()
}

// TestOutcomesSamplingDeterminism: the sampling strategy is reproducible
// from (seed, tuple index) at any parallelism, and different seeds give
// different estimates.
func TestOutcomesSamplingDeterminism(t *testing.T) {
	db, rel := streamDB(t)
	rel.Tuples = rel.Tuples[:5] // drop the failing tuples
	cfg := engine.ExecConfig{Samples: 2000, Seed: 3}
	a, err := engine.Outcomes(context.Background(), db, rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallelism = 4
	b, err := engine.Outcomes(context.Background(), db, rel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	differentSeed := engine.ExecConfig{Samples: 2000, Seed: 4}
	c, err := engine.Outcomes(context.Background(), db, rel, differentSeed)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range a {
		if a[i].Confidence != b[i].Confidence {
			t.Errorf("tuple %d: seed 3 not parallelism-invariant: %v != %v", i, a[i].Confidence, b[i].Confidence)
		}
		if !a[i].Confidence.Contains(0.5, 0.1) {
			t.Errorf("tuple %d: sampled %v too far from 0.5", i, a[i].Confidence)
		}
		if a[i].Confidence != c[i].Confidence {
			changed = true
		}
		if a[i].Report.Samples != 2000 {
			t.Errorf("tuple %d: Report.Samples = %d, want 2000", i, a[i].Report.Samples)
		}
	}
	if !changed {
		t.Error("changing the seed changed no estimate")
	}
}

// TestOutcomesAnytimeMatchesLegacy: the unified runner with Approx set
// reproduces the legacy ProbabilitiesApprox bit-for-bit (the conversion
// the deprecated facade wrappers rely on).
func TestOutcomesAnytimeMatchesLegacy(t *testing.T) {
	db, rel := streamDB(t)
	rel.Tuples = rel.Tuples[:5]
	opts := compile.ApproxOptions{Eps: 0.01}
	legacy, err := engine.ProbabilitiesApprox(db, rel, opts, engine.ParallelOptions{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	outs, err := engine.Outcomes(context.Background(), db, rel,
		engine.ExecConfig{Parallelism: 2, Approx: &opts})
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		if legacy[i].Confidence != outs[i].Confidence {
			t.Errorf("tuple %d: %v != %v", i, legacy[i].Confidence, outs[i].Confidence)
		}
	}
}
