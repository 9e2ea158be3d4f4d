package main

import (
	"fmt"
	"math"

	"pvcagg/internal/prob"
)

// Every lineitem tuple is annotated with its own Boolean variable of
// marginal p, so every answer of the benchmark's queries has a closed
// form in the number n of matching rows, which the benchmark counts from
// the rows it generated. Answers must match within tol.

const (
	tupleProb = 0.9
	tol       = 1e-9
)

// presence is P[at least one of n independent rows exists] = 1 − (1 − p)^n.
func presence(n int) float64 { return -math.Expm1(float64(n) * math.Log1p(-tupleProb)) }

// binomial is the Binomial(n, p) probability mass function over 0..n.
func binomial(n int) []float64 {
	lp, lq := math.Log(tupleProb), math.Log1p(-tupleProb)
	lgn, _ := math.Lgamma(float64(n + 1))
	pmf := make([]float64, n+1)
	for k := range pmf {
		lk, _ := math.Lgamma(float64(k + 1))
		lnk, _ := math.Lgamma(float64(n - k + 1))
		pmf[k] = math.Exp(lgn - lk - lnk + float64(k)*lp + float64(n-k)*lq)
	}
	return pmf
}

func near(got, want float64) bool { return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want)) }

// checkPoint checks an exact confidence interval [lo, hi] against want;
// an anytime interval (degraded service) must contain it.
func checkPoint(what string, lo, hi, want float64, exact bool) error {
	if exact && near(lo, want) && near(hi, want) {
		return nil
	}
	if !exact && lo-tol <= want && want <= hi+tol {
		return nil
	}
	return fmt.Errorf("%s: confidence [%v, %v], oracle %v", what, lo, hi, want)
}

// checkBinomial checks a COUNT distribution against Binomial(n, p),
// value by value over 0..n.
func checkBinomial(what string, d prob.Dist, pmf []float64) error {
	pairs := d.Pairs()
	i := 0
	for k, want := range pmf {
		got := 0.0
		if i < len(pairs) && pairs[i].V.IsInt() && pairs[i].V.Int64() == int64(k) {
			got = pairs[i].P
			i++
		}
		if !near(got, want) {
			return fmt.Errorf("%s: P[COUNT = %d] = %v, oracle %v", what, k, got, want)
		}
	}
	if i != len(pairs) {
		return fmt.Errorf("%s: COUNT takes value %v outside 0..%d", what, pairs[i].V, len(pmf)-1)
	}
	return nil
}
