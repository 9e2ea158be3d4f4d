package core

import (
	"math"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
	"pvcagg/internal/vars"
)

func TestAverageTwoTuples(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	reg.DeclareBool("y", 0.5)
	p := New(algebra.Boolean, reg)
	d, err := p.AverageOfGroup(ctx,
		[]expr.Expr{expr.V("x"), expr.V("y")},
		[]value.V{value.Int(10), value.Int(20)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Worlds: {} (avg undefined, 0.25), {x} avg 10 (0.25), {y} avg 20
	// (0.25), {x,y} avg 15 (0.25).
	if math.Abs(d.PEmpty-0.25) > 1e-12 {
		t.Errorf("PEmpty = %v", d.PEmpty)
	}
	want := map[Ratio]float64{
		{10, 1}: 0.25,
		{15, 1}: 0.25,
		{20, 1}: 0.25,
	}
	if len(d.Outcomes) != len(want) {
		t.Fatalf("outcomes = %v", d.Outcomes)
	}
	for _, o := range d.Outcomes {
		if math.Abs(want[o.Avg]-o.P) > 1e-12 {
			t.Errorf("P[avg=%v] = %v, want %v", o.Avg, o.P, want[o.Avg])
		}
	}
	if math.Abs(d.Expectation()-15) > 1e-12 {
		t.Errorf("E[avg | non-empty] = %v, want 15", d.Expectation())
	}
}

func TestAverageNonIntegerRatios(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("a", 0.5)
	reg.DeclareBool("b", 0.5)
	reg.DeclareBool("c", 0.5)
	p := New(algebra.Boolean, reg)
	d, err := p.AverageOfGroup(ctx,
		[]expr.Expr{expr.V("a"), expr.V("b"), expr.V("c")},
		[]value.V{value.Int(1), value.Int(2), value.Int(4)},
	)
	if err != nil {
		t.Fatal(err)
	}
	// The world {a, b, c} has avg 7/3.
	found := false
	for _, o := range d.Outcomes {
		if o.Avg == (Ratio{7, 3}) {
			found = true
			if math.Abs(o.P-0.125) > 1e-12 {
				t.Errorf("P[7/3] = %v, want 0.125", o.P)
			}
		}
	}
	if !found {
		t.Fatalf("outcome 7/3 missing: %v", d.Outcomes)
	}
	// Ratios are reduced: {a,b} gives (1+2)/2 = 3/2, {b,c} gives 6/2 = 3.
	for _, o := range d.Outcomes {
		if gcd(abs(o.Avg.Num), o.Avg.Den) != 1 {
			t.Errorf("unreduced ratio %v", o.Avg)
		}
	}
	// Total mass: outcomes + empty = 1.
	mass := d.PEmpty
	for _, o := range d.Outcomes {
		mass += o.P
	}
	if math.Abs(mass-1) > 1e-12 {
		t.Errorf("total mass = %v", mass)
	}
}

func TestAverageEmptyGroup(t *testing.T) {
	reg := vars.NewRegistry()
	p := New(algebra.Boolean, reg)
	d, err := p.AverageOfGroup(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.PEmpty != 1 || len(d.Outcomes) != 0 {
		t.Errorf("empty group: %+v", d)
	}
}

func TestAverageErrors(t *testing.T) {
	reg := vars.NewRegistry()
	reg.DeclareBool("x", 0.5)
	p := New(algebra.Boolean, reg)
	if _, err := p.Average(ctx, expr.V("x"), expr.V("x")); err == nil {
		t.Errorf("semiring inputs accepted")
	}
	if _, err := p.AverageOfGroup(ctx, []expr.Expr{expr.V("x")}, nil); err == nil {
		t.Errorf("length mismatch accepted")
	}
}

func TestRatioString(t *testing.T) {
	r := Ratio{7, 3}
	if r.String() != "7/3" {
		t.Errorf("String = %q", r.String())
	}
	if math.Abs(r.Float()-7.0/3.0) > 1e-15 {
		t.Errorf("Float = %v", r.Float())
	}
}
