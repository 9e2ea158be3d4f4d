package core

import (
	"context"
	"fmt"
	"sort"

	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/value"
)

// sumAgg is the monoid both AVG components aggregate in.
const sumAgg = algebra.Sum

// The paper notes (Section 2.2) that more complicated aggregations such
// as AVG "can conceptually be composed from simpler ones (e.g., SUM and
// COUNT)". This file implements that composition: the exact distribution
// of the average of an uncertain group is derived from the *joint*
// distribution of its SUM and COUNT expressions, which the Section 5
// joint-compilation machinery computes by mutex decomposition on shared
// variables.

// Ratio is an exact rational average outcome Num/Den (Den > 0), in lowest
// terms.
type Ratio struct {
	Num, Den int64
}

// Float returns the ratio as a float64.
func (r Ratio) Float() float64 { return float64(r.Num) / float64(r.Den) }

func (r Ratio) String() string { return fmt.Sprintf("%d/%d", r.Num, r.Den) }

// AvgOutcome is one outcome of an average distribution.
type AvgOutcome struct {
	Avg Ratio
	P   float64
}

// AvgDist is the exact distribution of an average: its defined outcomes
// and the probability that the group is empty (COUNT = 0), where the
// average is undefined.
type AvgDist struct {
	Outcomes []AvgOutcome
	PEmpty   float64
}

// Expectation returns the conditional expectation E[avg | group non-empty].
func (d AvgDist) Expectation() float64 {
	mass, acc := 0.0, 0.0
	for _, o := range d.Outcomes {
		mass += o.P
		acc += o.Avg.Float() * o.P
	}
	if mass == 0 {
		return 0
	}
	return acc / mass
}

// Average computes the exact distribution of sum/count for a SUM
// expression and a COUNT expression over the same group (they share
// variables; the joint distribution handles the correlation). The count
// expression must take non-negative integer values.
func (p *Pipeline) Average(ctx context.Context, sum, count expr.Expr) (AvgDist, error) {
	if sum.Kind() != expr.KindModule || count.Kind() != expr.KindModule {
		return AvgDist{}, fmt.Errorf("core: Average expects two semimodule expressions")
	}
	joint, err := p.Joint(ctx, []expr.Expr{sum, count})
	if err != nil {
		return AvgDist{}, err
	}
	acc := map[Ratio]float64{}
	var out AvgDist
	for _, o := range joint {
		sv, err := value.Parse(o.Values[0])
		if err != nil {
			return AvgDist{}, fmt.Errorf("core: non-numeric SUM outcome %q", o.Values[0])
		}
		cv, err := value.Parse(o.Values[1])
		if err != nil {
			return AvgDist{}, fmt.Errorf("core: non-numeric COUNT outcome %q", o.Values[1])
		}
		if !cv.IsInt() || cv.Int64() < 0 {
			return AvgDist{}, fmt.Errorf("core: COUNT outcome %v is not a non-negative integer", cv)
		}
		if cv.IsZero() {
			out.PEmpty += o.P
			continue
		}
		if !sv.IsInt() {
			return AvgDist{}, fmt.Errorf("core: infinite SUM outcome %v", sv)
		}
		acc[reduce(sv.Int64(), cv.Int64())] += o.P
	}
	for r, pr := range acc {
		out.Outcomes = append(out.Outcomes, AvgOutcome{Avg: r, P: pr})
	}
	sort.Slice(out.Outcomes, func(i, j int) bool {
		a, b := out.Outcomes[i].Avg, out.Outcomes[j].Avg
		return a.Num*b.Den < b.Num*a.Den
	})
	return out, nil
}

// AverageOfGroup builds the SUM and COUNT expressions of one group from
// its tuple annotations and values, then computes the average
// distribution: the exact semantics of AVG(B) over an uncertain group.
func (p *Pipeline) AverageOfGroup(ctx context.Context, anns []expr.Expr, values []value.V) (AvgDist, error) {
	if len(anns) != len(values) {
		return AvgDist{}, fmt.Errorf("core: %d annotations for %d values", len(anns), len(values))
	}
	if len(anns) == 0 {
		return AvgDist{PEmpty: 1}, nil
	}
	sumTerms := make([]expr.Expr, len(anns))
	cntTerms := make([]expr.Expr, len(anns))
	for i := range anns {
		sumTerms[i] = expr.Scale(sumAgg, anns[i], values[i])
		cntTerms[i] = expr.Scale(sumAgg, anns[i], value.Int(1))
	}
	return p.Average(ctx, expr.MSum(sumAgg, sumTerms...), expr.MSum(sumAgg, cntTerms...))
}

func reduce(num, den int64) Ratio {
	g := gcd(abs(num), den)
	if g == 0 {
		return Ratio{num, den}
	}
	return Ratio{num / g, den / g}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
