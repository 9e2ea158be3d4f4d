package main

import (
	"context"
	"math/rand"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// bench is one set-up workload: its dataset, its clients' request draws
// and its oracle.
type bench interface {
	clients() int
	// request issues client c's next request, checks the answer against
	// the oracle and returns the request's latency. A nil tracer means
	// an untraced request.
	request(ctx context.Context, c int, rng *rand.Rand, tr *tracer, id int64) (time.Duration, error)
	// resetCounters starts a new phase of the workload's own counters.
	resetCounters()
	// layers derives the per-layer metrics of the traced phase ph.
	layers(ctx context.Context, tr *tracer, ph *phase) (*layerSet, error)
	// info is the workload's part of the provenance record; setupHeap is
	// the live heap the set-up left behind.
	info(setupHeap uint64) map[string]any
	close()
}

// clientRNGs gives each client its own stream, derived from the seed
// alone; the streams continue from warm-up into the measured phases.
func clientRNGs(seed int64, n int) []*rand.Rand {
	rngs := make([]*rand.Rand, n)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
	}
	return rngs
}

// phase is what one closed-loop phase measured.
type phase struct {
	lats       []float64 // ms, answered untraced requests
	tracedLats []float64 // ms, answered traced requests
	attempted  int64
	failed     int64
	firstErr   string
	elapsed    time.Duration
	allocBytes float64
	heapPeak   float64 // bytes, 99th percentile of the live-heap samples
}

func (ph *phase) result() result {
	return result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed}
}

func (ph *phase) qps() float64 { return float64(len(ph.lats)) / ph.elapsed.Seconds() }

func (ph *phase) allocMBPerQuery() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return ph.allocBytes / float64(ph.attempted) / 1e6
}

const (
	allocsMetric = "/gc/heap/allocs:bytes"
	heapMetric   = "/memory/classes/heap/objects:bytes"
)

// runPhase drives b's clients in a closed loop: each sends its next
// request when the previous one has been answered, until d has passed
// and it has sent at least minReqs. A nil tracer traces no request.
// Allocation and the live heap are read from runtime/metrics, which does
// not stop the world. The heap's high-water mark is taken as the 99th
// percentile of samples every 5 ms: the maximum would be the single
// largest overshoot of a concurrent collection, which varies from run to
// run far more than the heap the workload needs.
func runPhase(ctx context.Context, b bench, rngs []*rand.Rand, d time.Duration, minReqs int, tr *tracer) *phase {
	ph := &phase{}
	samples := []metrics.Sample{{Name: allocsMetric}, {Name: heapMetric}}
	metrics.Read(samples)
	alloc0 := samples[0].Value.Uint64()
	heap := []float64{float64(samples[1].Value.Uint64())}

	stop := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		s := []metrics.Sample{{Name: heapMetric}}
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				metrics.Read(s)
				heap = append(heap, float64(s[0].Value.Uint64()))
			}
		}
	}()

	var mu sync.Mutex
	var ids atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := range b.clients() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < minReqs || time.Now().Before(deadline); n++ {
				// With a tracer, every other request is traced, so traced
				// and untraced requests share the same host conditions.
				rt := tr
				if n%2 == 0 {
					rt = nil
				}
				lat, err := b.request(ctx, c, rngs[c], rt, ids.Add(1))
				ms := float64(lat) / float64(time.Millisecond)
				mu.Lock()
				ph.attempted++
				switch {
				case err != nil:
					ph.failed++
					if ph.firstErr == "" {
						ph.firstErr = err.Error()
					}
				case rt != nil:
					ph.tracedLats = append(ph.tracedLats, ms)
				default:
					ph.lats = append(ph.lats, ms)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(t0)
	close(stop)
	<-sampled
	metrics.Read(samples)
	ph.allocBytes = float64(samples[0].Value.Uint64() - alloc0)
	ph.heapPeak = quantile(append(heap, float64(samples[1].Value.Uint64())), 0.99)
	return ph
}
