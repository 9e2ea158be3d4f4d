package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"pvcagg"
	"pvcagg/internal/compile"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
)

// The benchmark's spans wrap its own calls into each layer's public entry
// point; the program itself is not instrumented. Spans stay in memory and
// are written out when the run ends.

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the same list, -1 for a root
	Req    int64  `json:"req"`
	Bytes  int64  `json:"bytes,omitempty"` // data volume of set-up spans
}

type spanFile struct {
	Setup  []span `json:"setup"`
	Traced []span `json:"traced"`
}

// tracer records spans. Every method is a no-op on a nil tracer, which is
// how untraced requests run.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) start(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.endBytes(id, 0) }

func (t *tracer) endBytes(id int, bytes int64) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = now
	t.spans[id].Bytes = bytes
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// sumMS totals the durations of the spans named name, restricted to
// request req unless req < 0.
func sumMS(spans []span, name string, req int64) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == name && (req < 0 || s.Req == req) {
			total += s.ms()
		}
	}
	return total
}

// layerOf maps a span to the module whose public entry point it wraps.
var layerOf = map[string]string{
	"request":    "perfbench",
	"replay":     "perfbench",
	"ParseQuery": "pvql",
	"Exec":       "engine",
	"Collect":    "pvcagg",
	"ServeHTTP":  "server",
	"ingest":     "store",
	"OpenStore":  "store",
	"CompileCtx": "compile",
	"Evaluate":   "dtree",
}

type layerTime struct {
	Layer  string  `json:"layer"`
	Spans  int     `json:"spans"`
	WallMS float64 `json:"wall_ms"`
	SelfMS float64 `json:"self_ms"`
}

// selfTimes totals wall and self time per layer. A span's self time is
// its duration minus the part of its interval that its children cover.
func selfTimes(spans []span) []layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byLayer := map[string]*layerTime{}
	for i, s := range spans {
		name := layerOf[s.Name]
		lt := byLayer[name]
		if lt == nil {
			lt = &layerTime{Layer: name}
			byLayer[name] = lt
		}
		lt.Spans++
		lt.WallMS += s.ms()
		lt.SelfMS += s.ms() - covered(s, children[i])
	}
	out := make([]layerTime, 0, len(byLayer))
	for _, lt := range byLayer {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Layer < out[j].Layer })
	return out
}

// covered is the length, in ms, of the union of the children's
// intervals clipped to the parent's.
func covered(parent span, kids []span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, reach int64 = 0, parent.Start
	for _, k := range kids {
		lo, hi := max(k.Start, reach), min(k.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return float64(total) / 1e6
}

// perLayer lists every per-layer metric with its unit; a traced run
// reports all of them, with 0 for a layer the workload does not use.
var perLayer = []struct{ name, unit string }{
	{"pvql.parse_ms", "ms"},
	{"pvql.latency_frac", "ratio"},
	{"engine.step1_ms", "ms"},
	{"engine.answers", "count"},
	{"engine.latency_frac", "ratio"},
	{"store.blocks_read", "count"},
	{"store.blocks_skipped", "count"},
	{"store.skip_frac", "ratio"},
	{"store.mb_read", "MB"},
	{"store.open_s", "s"},
	{"store.ingest_mb_per_s", "MB/s"},
	{"pvcagg.step2_ms", "ms"},
	{"pvcagg.sched_gap_ms", "ms"},
	{"pvcagg.latency_frac", "ratio"},
	{"compile.ms", "ms"},
	{"compile.nodes", "count"},
	{"compile.memo_hit_frac", "ratio"},
	{"compile.shared_hit_frac", "ratio"},
	{"compile.shannon", "count"},
	{"compile.us_per_answer", "us"},
	{"compile.latency_frac", "ratio"},
	{"dtree.eval_ms", "ms"},
	{"dtree.node_evals", "count"},
	{"dtree.max_support", "count"},
	{"dtree.latency_frac", "ratio"},
	{"server.handler_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"server.plan_cache_hit_frac", "ratio"},
	{"server.repeat_frac", "ratio"},
	{"server.degraded_frac", "ratio"},
	{"server.latency_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

type layerSet struct{ metrics map[string]metric }

func newLayerSet() *layerSet {
	l := &layerSet{metrics: map[string]metric{}}
	for _, m := range perLayer {
		l.metrics[m.name] = metric{0, m.unit}
	}
	return l
}

func (l *layerSet) set(name string, v float64) {
	m, ok := l.metrics[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	m.Value = v
	l.metrics[name] = m
}

// setSetup derives the store's set-up metrics from the set-up spans.
func (l *layerSet) setSetup(setup *tracer) {
	var open, rate []float64
	for _, s := range setup.spans {
		switch s.Name {
		case "OpenStore":
			open = append(open, s.ms()/1e3)
		case "ingest":
			rate = append(rate, float64(s.Bytes)/1e6/(s.ms()/1e3))
		}
	}
	if len(open) > 0 {
		l.set("store.open_s", median(open))
		l.set("store.ingest_mb_per_s", median(rate))
	}
}

// stepTimes is one request's time in each layer, in ms: parse, step I
// and step II as the request saw them, and the replayed compile and
// evaluate work behind its step II.
type stepTimes struct {
	latency, parse, step1, step2, compile, eval float64
}

// setSplit sets the layers' shares of request latency. pvcagg's share is
// all of step II, and compile and evaluate split that share in the ratio
// of their replayed times. The scheduling gap — step II's wall time minus
// the sequential replay of its work — is reported on its own: positive
// when the tuple pool and the parallel compiler cost time, negative when
// parallel workers beat the sequential replay.
func (l *layerSet) setSplit(t stepTimes) {
	l.set("pvql.parse_ms", t.parse)
	l.set("engine.step1_ms", t.step1)
	l.set("pvcagg.step2_ms", t.step2)
	l.set("compile.ms", t.compile)
	l.set("dtree.eval_ms", t.eval)
	l.set("pvcagg.sched_gap_ms", t.step2-t.compile-t.eval)
	work := t.compile + t.eval
	if t.latency <= 0 || work <= 0 {
		return
	}
	l.set("pvql.latency_frac", t.parse/t.latency)
	l.set("engine.latency_frac", t.step1/t.latency)
	l.set("compile.latency_frac", t.step2*t.compile/work/t.latency)
	l.set("dtree.latency_frac", t.step2*t.eval/work/t.latency)
	l.set("pvcagg.latency_frac", t.step2/t.latency)
}

// replayStats totals the replayed compile + evaluate work; weighted
// totals let a frequent query count for each time it was sent.
type replayStats struct {
	requests, answers, nodes, memoHits, shannon, nodeEvals float64
	maxSupport                                             int
}

func (r *replayStats) add(o replayStats, w float64) {
	r.requests += w
	r.answers += w * o.answers
	r.nodes += w * o.nodes
	r.memoHits += w * o.memoHits
	r.shannon += w * o.shannon
	r.nodeEvals += w * o.nodeEvals
	r.maxSupport = max(r.maxSupport, o.maxSupport)
}

// setReplay sets the replayed per-request compile and evaluate counts;
// compileMS is the replayed compile time per request.
func (l *layerSet) setReplay(r replayStats, compileMS float64) {
	if r.requests == 0 {
		return
	}
	l.set("engine.answers", r.answers/r.requests)
	l.set("compile.nodes", r.nodes/r.requests)
	l.set("compile.shannon", r.shannon/r.requests)
	l.set("dtree.node_evals", r.nodeEvals/r.requests)
	l.set("dtree.max_support", float64(r.maxSupport))
	if r.memoHits+r.nodes > 0 {
		l.set("compile.memo_hit_frac", r.memoHits/(r.memoHits+r.nodes))
	}
	if r.answers > 0 {
		l.set("compile.us_per_answer", compileMS*1e3*r.requests/r.answers)
	}
}

// replay recompiles and re-evaluates every expression behind a collected
// result — each answer's annotation and aggregation values — one at a
// time with the compile options Collect used (the facade's defaults, plus
// the cross-query cache when the execution had one), under spans, and
// checks that each distribution equals Collect's bit for bit.
func replay(ctx context.Context, tr *tracer, root int, req int64, db *pvcagg.Database, rel *pvcagg.Relation, outs []pvcagg.TupleOutcome, cache *compile.SharedCache) (replayStats, error) {
	var st replayStats
	if len(outs) != len(rel.Tuples) {
		return st, fmt.Errorf("replay: %d outcomes for %d tuples", len(outs), len(rel.Tuples))
	}
	s := db.Semiring()
	env := dtree.Env{Semiring: s, Registry: db.Registry}
	cols := rel.Schema.ModuleColumns()
	for i, t := range rel.Tuples {
		st.answers++
		exprs := []expr.Expr{t.Ann}
		for _, ci := range cols {
			e, err := t.Cells[ci].ModuleExpr()
			if err != nil {
				return st, err
			}
			exprs = append(exprs, e)
		}
		if len(outs[i].AggDists) != len(cols) {
			return st, fmt.Errorf("replay: answer %d has %d aggregation values, want %d", i, len(outs[i].AggDists), len(cols))
		}
		for j, e := range exprs {
			c := compile.New(s, db.Registry, compile.Options{Shared: cache})
			sp := tr.start("CompileCtx", root, req)
			res, err := c.CompileCtx(ctx, e)
			tr.end(sp)
			if err != nil {
				return st, fmt.Errorf("replay compile: %w", err)
			}
			sp = tr.start("Evaluate", root, req)
			d, es, err := dtree.EvaluateShared(res.Root, env, cache.EvalCache())
			tr.end(sp)
			if err != nil {
				return st, fmt.Errorf("replay evaluate: %w", err)
			}
			st.nodes += float64(res.Stats.Nodes)
			st.memoHits += float64(res.Stats.CacheHits)
			st.shannon += float64(res.Stats.Shannon)
			st.nodeEvals += float64(es.NodeEvals)
			st.maxSupport = max(st.maxSupport, es.MaxDistSize)
			if j == 0 {
				p := d.TruthProbability()
				if c := outs[i].Confidence; math.Float64bits(p) != math.Float64bits(c.Lo) || c.Lo != c.Hi {
					return st, fmt.Errorf("replay: answer %d confidence %v, Collect gave [%v, %v]", i, p, c.Lo, c.Hi)
				}
			} else if !identical(d, outs[i].AggDists[j-1]) {
				return st, fmt.Errorf("replay: answer %d aggregation %d differs from Collect's", i, j-1)
			}
		}
	}
	return st, nil
}

// identical reports bit-for-bit equality of two distributions.
func identical(a, b prob.Dist) bool {
	pa, pb := a.Pairs(), b.Pairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i].V != pb[i].V || math.Float64bits(pa[i].P) != math.Float64bits(pb[i].P) {
			return false
		}
	}
	return true
}
