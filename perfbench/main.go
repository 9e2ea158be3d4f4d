// Command perfbench is the repository benchmark. One run sets up one
// workload, drives it with closed-loop clients for a fixed time, checks
// every answer against a closed-form oracle and prints every metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": 312, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
// end_to_end list). With -trace 1 untraced and traced requests alternate,
// and the metrics are the per-layer ones: span-derived layer times, the
// replayed step-II split and the tracing overhead.
//
// Workloads (see BENCHMARK.json for why each exists):
//
//	q1-count     1 client, in-memory TPC-H SF 0.002, the paper's Q1 COUNT
//	serve-store  2 clients, pvcd handler over a PVB1 store at SF 0.05
//
// Build and run it from the repository root through run.py, which keeps
// the Go build cache inside the checkout:
//
//	python3 perfbench/run.py --workload q1-count --seed 1 --seconds 20 --trace 0
//
// Every run also writes a result file with its provenance (host, Go,
// commit, seed, scale factor, dataset bytes) to .bench_out/, and traced
// runs write their spans there too.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupReps is how many times a run builds its dataset; setup_s is the
// median. Store ingest takes ~100× as long as in-memory generation, so
// it repeats less.
var setupReps = map[string]int{"q1-count": 21, "serve-store": 3}

// outDir receives each run's result file and, for traced runs, its spans.
const outDir = ".bench_out"

const (
	warmup        = 2 * time.Second // excluded from timing; pools and caches settle
	warmupMinReqs = 2               // per client, whatever the warm-up time
	// minSamples puts at least 10 latency samples beyond p90.
	minSamples = 100
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "q1-count or serve-store")
		seed     = flag.Int64("seed", 1, "drives the data and the request draws")
		seconds  = flag.Float64("seconds", 20, "measured time per run")
		traceOn  = flag.Int("trace", 0, "1 runs the traced per-layer measurement")
		after    = flag.String("after", "", "run this workload in the same process first (isolation check)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		flag.Usage()
		return 2
	}
	if _, ok := setupReps[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	workDir, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(workDir)

	ctx := context.Background()
	if *after != "" {
		// VarIDs are interned per process: the prelude leaves the interner
		// as a long-lived server would, then the measured workload runs.
		if _, ok := setupReps[*after]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown -after workload %q\n", *after)
			return 2
		}
		if err := prelude(ctx, *after, *seed, workDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: prelude %s: %v\n", *after, err)
			return 1
		}
	}
	measured := time.Duration(*seconds * float64(time.Second))
	rep, err := measure(ctx, *workload, *seed, measured, *traceOn == 1, workDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	rep.Provenance = provenance(*workload, *seed, *after, rep.Provenance)
	name := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *traceOn)
	if *after != "" {
		name += "-after-" + *after
	}
	if err := writeFiles(outDir, name, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	detail, err := json.Marshal(map[string]any{
		"workload": *workload, "seed": *seed, "error_rate": rep.errorRate(),
		"samples": rep.Samples, "provenance": rep.Provenance, "first_error": rep.FirstError,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(detail))
	fmt.Println(string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// report is everything a run measured: the printed result plus what goes
// into the result file only.
type report struct {
	Result     result         `json:"result"`
	Samples    int            `json:"latency_samples"`
	Latencies  []float64      `json:"latencies_ms,omitempty"`
	FirstError string         `json:"first_error,omitempty"`
	Provenance map[string]any `json:"provenance"`
	Layers     []layerTime    `json:"layers,omitempty"`
	Spans      *spanFile      `json:"-"`
}

func (r *report) errorRate() float64 {
	if r.Result.Attempted == 0 {
		return 0
	}
	return float64(r.Result.Failed) / float64(r.Result.Attempted)
}

// measure runs one workload: set-ups, warm-up, then either the untraced
// end-to-end phase or the per-layer phase of alternating untraced and
// traced requests.
func measure(ctx context.Context, workload string, seed int64, d time.Duration, perLayer bool, workDir string) (*report, error) {
	setupTr := newTracer()
	heap0 := heapAlloc()
	var b bench
	var setups []float64
	for i := range setupReps[workload] {
		if b != nil {
			b.close()
			b = nil // unreachable before the next set-up's collection
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		b, err = newBench(ctx, workload, seed, filepath.Join(workDir, "data-"+strconv.Itoa(i)), setupTr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer b.close()
	// The store's ingest leaves its files dirty in the page cache; writing
	// them back now keeps the kernel's delayed writeback out of the timed
	// phases.
	syscall.Sync()
	// Outside the timed set-ups: the heap the last set-up holds.
	var setupHeap uint64
	if h := heapAlloc(); h > heap0 {
		setupHeap = h - heap0
	}
	rngs := clientRNGs(seed, b.clients())
	runtime.GC()
	runPhase(ctx, b, rngs, warmup, warmupMinReqs, nil)
	b.resetCounters()

	rep := &report{}
	if !perLayer {
		runtime.GC()
		ph := runPhase(ctx, b, rngs, d, (minSamples+b.clients()-1)/b.clients(), nil)
		rep.Result = ph.result()
		rep.Samples = len(ph.lats)
		rep.Latencies = ph.lats
		rep.FirstError = ph.firstErr
		rep.Result.Metrics = map[string]metric{
			"qps":                {ph.qps(), "1/s"},
			"latency_p50_ms":     {quantile(ph.lats, 0.5), "ms"},
			"latency_p90_ms":     {quantile(ph.lats, 0.9), "ms"},
			"setup_s":            {median(setups), "s"},
			"alloc_mb_per_query": {ph.allocMBPerQuery(), "MB"},
			"heap_peak_mb":       {ph.heapPeak / 1e6, "MB"},
		}
		rep.Provenance = b.info(setupHeap)
		return rep, nil
	}

	// End-to-end figures come from untraced runs only. Here untraced and
	// traced requests alternate; the traced ones are attributed to layers
	// and the difference between the two is the tracing overhead.
	tr := newTracer()
	runtime.GC()
	ph := runPhase(ctx, b, rngs, d, 0, tr)
	layers, err := b.layers(ctx, tr, ph)
	if err != nil {
		return nil, err
	}
	layers.setSetup(setupTr)
	// Mean, not median: the overhead is a cost per request, and the
	// median of a multi-modal latency moves with the mix between modes.
	layers.set("trace.overhead_frac", mean(ph.tracedLats)/mean(ph.lats)-1)
	rep.Result = ph.result()
	rep.Result.Metrics = layers.metrics
	rep.Samples = len(ph.lats) + len(ph.tracedLats)
	rep.FirstError = ph.firstErr
	rep.Provenance = b.info(setupHeap)
	rep.Layers = selfTimes(tr.spans)
	rep.Spans = &spanFile{Setup: setupTr.spans, Traced: tr.spans}
	return rep, nil
}

// heapAlloc is the live heap after a full collection, in bytes.
func heapAlloc() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// prelude runs another workload briefly in this process and drops it.
func prelude(ctx context.Context, workload string, seed int64, workDir string) error {
	b, err := newBench(ctx, workload, seed, filepath.Join(workDir, "prelude"), nil)
	if err != nil {
		return err
	}
	defer b.close()
	ph := runPhase(ctx, b, clientRNGs(seed, b.clients()), 5*time.Second, warmupMinReqs, nil)
	if ph.failed > 0 {
		return fmt.Errorf("%d of %d requests failed: %s", ph.failed, ph.attempted, ph.firstErr)
	}
	return nil
}

func writeFiles(dir, name string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
		return err
	}
	if rep.Spans == nil {
		return nil
	}
	if data, err = json.Marshal(rep.Spans); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+"-spans.json"), data, 0o644)
}

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

func newBench(ctx context.Context, workload string, seed int64, dir string, tr *tracer) (bench, error) {
	if workload == "serve-store" {
		return newServeBench(ctx, seed, dir, tr)
	}
	return newFacadeBench(seed)
}
