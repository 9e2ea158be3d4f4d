package compile

import (
	"fmt"
	"sync"
	"testing"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/vars"
)

// cacheTestInstance builds a registry and a family of expressions that
// share sub-structure, mimicking the tuples of one pvc-table (each tuple's
// annotation repeats the same group-presence comparisons).
func cacheTestInstance(t *testing.T, n int) (*vars.Registry, []expr.Expr) {
	t.Helper()
	reg := vars.NewRegistry()
	for i := 0; i < 8; i++ {
		reg.DeclareBool(fmt.Sprintf("shc%d", i), 0.5)
	}
	common := expr.MustParse("[min(shc0*shc1 @min 3, shc2 @min 5, shc3*shc4 @min 7) <= 5]")
	es := make([]expr.Expr, n)
	for i := 0; i < n; i++ {
		es[i] = expr.Product(expr.V(fmt.Sprintf("shc%d", i%8)), common)
	}
	return reg, es
}

// TestSharedCacheBitForBit: compiling a family of overlapping expressions
// with a shared cache yields distributions bit-for-bit identical to
// compiling each alone, while the cache records hits.
func TestSharedCacheBitForBit(t *testing.T) {
	reg, es := cacheTestInstance(t, 12)
	s := algebra.SemiringFor(algebra.Boolean)

	cache := NewSharedCache(0)
	sharedNodes, aloneNodes := 0, 0
	for _, e := range es {
		alone := New(s, reg, Options{})
		resA, err := alone.Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		dA, _, err := dtree.Evaluate(resA.Root, dtree.Env{Semiring: s, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		shared := New(s, reg, Options{Shared: cache})
		resS, err := shared.Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		dS, _, err := dtree.EvaluateShared(resS.Root, dtree.Env{Semiring: s, Registry: reg}, cache.EvalCache())
		if err != nil {
			t.Fatal(err)
		}
		if !dA.Equal(dS, 0) {
			t.Fatalf("shared-cache distribution differs: %v vs %v", dS, dA)
		}
		if resS.Stats.SharedHits > resS.Stats.CacheHits {
			t.Fatalf("SharedHits %d exceeds CacheHits %d", resS.Stats.SharedHits, resS.Stats.CacheHits)
		}
		sharedNodes += resS.Stats.Nodes
		aloneNodes += resA.Stats.Nodes
	}
	st := cache.Stats()
	if st.Hits == 0 {
		t.Error("no shared-cache hits across overlapping compilations")
	}
	if st.Entries == 0 {
		t.Error("shared cache stored no entries")
	}
	if st.DistHits == 0 {
		t.Error("no evaluator distribution-cache hits")
	}
	if sharedNodes >= aloneNodes {
		t.Errorf("shared cache did not reduce created nodes: %d vs %d", sharedNodes, aloneNodes)
	}
	if rate := st.HitRate(); rate <= 0 || rate > 1 {
		t.Errorf("hit rate %v out of range", rate)
	}
}

// TestSharedCacheParallelCompiler: compiling with a shared cache at
// every parallelism stays bit-for-bit with compiling inline without one.
func TestSharedCacheParallelCompiler(t *testing.T) {
	reg, es := cacheTestInstance(t, 8)
	s := algebra.SemiringFor(algebra.Boolean)
	for _, par := range []int{1, 2, 4} {
		cache := NewSharedCache(0)
		for _, e := range es {
			res, err := New(s, reg, Options{}).Compile(e)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
			if err != nil {
				t.Fatal(err)
			}
			resP, err := NewParallel(s, reg, Options{Shared: cache}, par).Compile(e)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := dtree.EvaluateShared(resP.Root, dtree.Env{Semiring: s, Registry: reg}, cache.EvalCache())
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("parallelism %d: shared-cache distribution differs: %v vs %v", par, got, want)
			}
		}
	}
}

// TestSharedCacheConcurrent hammers one cache and one forking Compiler
// from many goroutines — the shape of the engine's worker pool — and
// checks every result against the uncached oracle. Run under -race in CI.
func TestSharedCacheConcurrent(t *testing.T) {
	reg, es := cacheTestInstance(t, 16)
	s := algebra.SemiringFor(algebra.Boolean)

	// Oracle distributions, computed without any sharing.
	want := make([]string, len(es))
	for i, e := range es {
		res, err := New(s, reg, Options{}).Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		d, _, err := dtree.Evaluate(res.Root, dtree.Env{Semiring: s, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = d.String()
	}

	cache := NewSharedCache(0)
	// One Compiler serves every worker: CompileCtx keeps its state per
	// call, so the compiler is shared as freely as the cache.
	c := NewParallel(s, reg, Options{Shared: cache}, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i, e := range es {
					res, err := c.Compile(e)
					if err != nil {
						errs <- err
						return
					}
					d, _, err := dtree.EvaluateShared(res.Root, dtree.Env{Semiring: s, Registry: reg}, cache.EvalCache())
					if err != nil {
						errs <- err
						return
					}
					if d.String() != want[i] {
						errs <- fmt.Errorf("worker %d expr %d: %s != %s", w, i, d.String(), want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if cache.Stats().Hits == 0 {
		t.Error("concurrent compilations produced no cache hits")
	}
}

// TestSharedCacheBound: a tiny cache stops inserting at its bound instead
// of growing or evicting.
func TestSharedCacheBound(t *testing.T) {
	reg, es := cacheTestInstance(t, 16)
	s := algebra.SemiringFor(algebra.Boolean)
	cache := NewSharedCache(3)
	for _, e := range es {
		if _, err := New(s, reg, Options{Shared: cache}).Compile(e); err != nil {
			t.Fatal(err)
		}
	}
	// The insert path admits the entry that trips the bound, so allow a
	// one-entry overshoot per shard race; with a sequential test it is
	// exactly bound+<=1.
	if got := cache.Stats().Entries; got > 4 {
		t.Errorf("bounded cache holds %d entries, want <= 4", got)
	}
}

// TestSharedCacheNilSafe: nil caches are inert.
func TestSharedCacheNilSafe(t *testing.T) {
	var c *SharedCache
	if c.Stats() != (CacheStats{}) {
		t.Error("nil cache stats not zero")
	}
	if c.EvalCache() != nil {
		t.Error("nil cache returned an eval cache")
	}
}

// TestSharedCacheBailOut: on a workload whose compilations share nothing,
// the adaptive bail-out disables the cache after the configured streak of
// consecutive misses; probe counters freeze and later compilations stop
// inserting. Hits reset the streak, so a genuinely sharing workload with
// the same probe volume never trips.
func TestSharedCacheBailOut(t *testing.T) {
	reg := vars.NewRegistry()
	for i := 0; i < 64; i++ {
		reg.DeclareBool(fmt.Sprintf("bo%d", i), 0.5)
	}
	s := algebra.SemiringFor(algebra.Boolean)
	// Disjoint expressions: every probe is a miss.
	disjoint := func(i int) expr.Expr {
		return expr.MustParse(fmt.Sprintf(
			"[min(bo%d*bo%d @min 3, bo%d @min 5) <= 4]", i%64, (i+1)%64, (i+2)%64))
	}

	cache := NewSharedCacheBailOut(0, 16)
	for i := 0; i < 40; i++ {
		c := New(s, reg, Options{Shared: cache})
		if _, err := c.Compile(disjoint(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if !st.Disabled {
		t.Fatalf("bail-out did not engage on a disjoint workload: %+v", st)
	}
	// Counters freeze at the streak length (inserts before the trip may
	// have counted a few probes past it from the same compilation).
	if st.Hits+st.Misses+st.DistHits+st.DistMisses > 64 {
		t.Errorf("probes kept accumulating after bail-out: %+v", st)
	}
	frozen := cache.Stats()
	c := New(s, reg, Options{Shared: cache})
	if _, err := c.Compile(disjoint(100)); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after != frozen {
		t.Errorf("disabled cache still counting: before %+v after %+v", frozen, after)
	}

	// The same probe volume with sharing: hits reset the streak, the
	// cache stays alive.
	sharing := NewSharedCacheBailOut(0, 16)
	common := expr.MustParse("[min(bo0*bo1 @min 3, bo2 @min 5, bo3*bo4 @min 7) <= 5]")
	for i := 0; i < 40; i++ {
		c := New(s, reg, Options{Shared: sharing})
		if _, err := c.Compile(expr.Product(expr.V(fmt.Sprintf("bo%d", i%64)), common)); err != nil {
			t.Fatal(err)
		}
	}
	sst := sharing.Stats()
	if sst.Disabled {
		t.Errorf("bail-out engaged on a sharing workload: %+v", sst)
	}
	if sst.Hits == 0 {
		t.Errorf("sharing workload recorded no hits: %+v", sst)
	}

	// Bail-out disabled: probing continues forever.
	never := NewSharedCacheBailOut(0, -1)
	for i := 0; i < 40; i++ {
		c := New(s, reg, Options{Shared: never})
		if _, err := c.Compile(disjoint(i)); err != nil {
			t.Fatal(err)
		}
	}
	nst := never.Stats()
	if nst.Disabled {
		t.Errorf("bail-out engaged with bailOutMisses <= 0: %+v", nst)
	}
	if nst.Misses <= 64 {
		t.Errorf("expected unbounded probing without bail-out, got %+v", nst)
	}
}
