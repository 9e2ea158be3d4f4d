package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"pvcagg"
	"pvcagg/internal/algebra"
	"pvcagg/internal/expr"
	"pvcagg/internal/pvc"
	"pvcagg/internal/server"
	"pvcagg/internal/store"
	"pvcagg/internal/tpch"
	"pvcagg/internal/vars"
)

// serve-store sends PVQL requests to pvcd's handler, in process and
// without sockets, over a PVB1 store ingested at set-up. Requests draw a
// template and a shipdate window; windows are Zipf-skewed over 512, so
// hot requests repeat and cold ones miss the 128-entry plan cache.

const (
	storeSF    = 0.05
	windows    = 512
	windowBase = 150 // first window start, past the ship-date ramp-up
	windowStep = 4   // days between window starts
	// windowStride scatters Zipf ranks over the date range: rank r is
	// window r·stride mod 512 (stride coprime to 512). The hot windows are
	// the same for every seed, so the block-skipping luck of a few hot
	// windows does not vary between seeds; the seed drives the data and
	// which rank each request draws.
	windowStride = 167
	zipfS        = 1.1 // skew of the window draw
	serveClient  = 2
	// maxReplays bounds the distinct traced queries replayed for the
	// step I / step II split; the most frequent are replayed first.
	maxReplays = 24
	// replayIDs numbers replays apart from the traced requests.
	replayIDs = 1 << 40
	// maxWarm bounds the time spent bringing the replay's compilation
	// cache to the state of the server's.
	maxWarm = 10 * time.Second
)

// pvcd's default retry policy (-retry-budget 256, bounded skips on).
var retryPolicy = pvcagg.RetryPolicy{Budget: 256, AllowBoundedSkip: true}

type template struct {
	width int64 // window length in days
	text  string
}

var templates = []template{
	{2, "SELECT l_orderkey, l_linenumber FROM lineitem WHERE l_shipdate >= %d AND l_shipdate <= %d"},
	{3, "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem " +
		"WHERE l_shipdate >= %d AND l_shipdate <= %d GROUP BY l_returnflag, l_linestatus"},
	{1, "SELECT o_custkey, COUNT(*) AS n FROM orders JOIN " +
		"(SELECT l_orderkey AS o_orderkey FROM lineitem WHERE l_shipdate >= %d AND l_shipdate <= %d) " +
		"GROUP BY o_custkey"},
}

// lineRow is what the oracle keeps of a generated lineitem row.
type lineRow struct {
	ship, order  int32
	line         int8
	flag, status byte
}

type serveBench struct {
	st     *pvcagg.Store
	h      http.Handler
	dir    string
	lines  []lineRow    // sorted by ship date
	custOf []int32      // o_custkey by o_orderkey
	zipfs  []*rand.Zipf // per client
	turn   []int        // per client: requests sent
	bytes  int64

	mu       sync.Mutex
	seen     map[string]bool // every query sent so far in this process
	sent     []string        // the same, in the order sent, repeats included
	counts   map[string]int  // queries of the current phase
	c        serveCounters
	storeAt0 pvcagg.StoreMetrics
	cacheAt0 pvcagg.CacheStats
	replayed map[string]any // how the step I / step II replay was set up
}

type serveCounters struct {
	requests, repeats, cached, degraded, answers int64
	queueUs, parseUs, execUs                     int64
}

func newServeBench(ctx context.Context, seed int64, dir string, tr *tracer) (*serveBench, error) {
	b := &serveBench{dir: dir, seen: map[string]bool{}, counts: map[string]int{}}
	sp := tr.start("ingest", -1, -1)
	reg := vars.NewRegistry()
	w, err := store.Create(dir, algebra.Boolean, reg, store.Options{})
	if err != nil {
		return nil, err
	}
	sink := &oracleSink{w: w, b: b}
	cfg := tpch.Config{SF: storeSF, Seed: seed, Probabilistic: true, TupleProb: tupleProb}
	if err := tpch.Stream(cfg, reg, sink); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	if b.bytes, err = dirBytes(dir); err != nil {
		return nil, err
	}
	tr.endBytes(sp, b.bytes)

	sp = tr.start("OpenStore", -1, -1)
	b.st, err = pvcagg.OpenStore(dir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	srv := server.New(b.st.DB(), server.Config{
		MaxQueueWait: time.Second, MaxTimeout: 30 * time.Second, DegradeEps: 0.05,
		PlanCacheSize: 128, Parallelism: 1, Retry: &retryPolicy,
		Health: b.st.Healthy, StoreMetrics: b.st.Metrics,
	})
	b.h = srv.Handler()

	sort.Slice(b.lines, func(i, j int) bool { return b.lines[i].ship < b.lines[j].ship })
	b.zipfs = make([]*rand.Zipf, serveClient)
	b.turn = make([]int, serveClient)
	for c := range b.turn {
		b.turn[c] = c // the two clients start on different templates
	}
	return b, nil
}

// oracleSink ingests the generated rows into the store writer and keeps
// what the oracle needs of lineitem and orders.
type oracleSink struct {
	w      *store.Writer
	tw     *store.TableWriter
	b      *serveBench
	table  string
	schema pvc.Schema
}

func (s *oracleSink) Table(name string, schema pvc.Schema) error {
	tw, err := s.w.CreateTable(name, schema)
	s.tw, s.table, s.schema = tw, name, schema
	return err
}

func (s *oracleSink) Row(ann expr.Expr, cells ...pvc.Cell) error {
	col := func(name string) pvc.Cell { return cells[s.schema.Index(name)] }
	switch s.table {
	case "lineitem":
		s.b.lines = append(s.b.lines, lineRow{
			ship:   int32(col("l_shipdate").Value().Int64()),
			order:  int32(col("l_orderkey").Value().Int64()),
			line:   int8(col("l_linenumber").Value().Int64()),
			flag:   col("l_returnflag").Str()[0],
			status: col("l_linestatus").Str()[0],
		})
	case "orders":
		key := int(col("o_orderkey").Value().Int64())
		for len(s.b.custOf) <= key {
			s.b.custOf = append(s.b.custOf, 0)
		}
		s.b.custOf[key] = int32(col("o_custkey").Value().Int64())
	}
	return s.tw.Append(ann, cells...)
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			total += fi.Size()
		}
		return err
	})
	return total, err
}

func (b *serveBench) clients() int { return serveClient }

// draw picks client c's next request. Templates take turns, so every
// run sends the same mix; a random mix would move the median between
// templates whose latencies differ severalfold. The window is drawn.
func (b *serveBench) draw(c int, rng *rand.Rand) (int, int64) {
	if b.zipfs[c] == nil {
		b.zipfs[c] = rand.NewZipf(rng, zipfS, 1, windows-1)
	}
	tmpl := b.turn[c] % len(templates)
	b.turn[c]++
	rank := int(b.zipfs[c].Uint64())
	return tmpl, int64(windowBase + rank*windowStride%windows*windowStep)
}

func queryText(tmpl int, from int64) string {
	t := templates[tmpl]
	return fmt.Sprintf(t.text, from, from+t.width-1)
}

func (b *serveBench) request(_ context.Context, c int, rng *rand.Rand, tr *tracer, id int64) (time.Duration, error) {
	tmpl, from := b.draw(c, rng)
	q := queryText(tmpl, from)
	body, err := json.Marshal(server.QueryRequest{Query: q})
	if err != nil {
		return 0, err
	}
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	sp := tr.start("ServeHTTP", -1, id)
	t0 := time.Now()
	b.h.ServeHTTP(rec, req)
	lat := time.Since(t0)
	tr.end(sp)

	b.mu.Lock()
	b.c.requests++
	if b.seen[q] {
		b.c.repeats++
	}
	b.seen[q] = true
	b.sent = append(b.sent, q)
	b.counts[q]++
	b.mu.Unlock()
	if rec.Code != http.StatusOK {
		return 0, fmt.Errorf("HTTP %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	var resp server.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return 0, err
	}
	if err := b.check(tmpl, from, &resp); err != nil {
		return 0, fmt.Errorf("%s: %w", q, err)
	}
	b.mu.Lock()
	b.c.answers += int64(len(resp.Rows))
	b.c.queueUs += resp.Timings.QueueWaitUs
	b.c.parseUs += resp.Timings.ParseUs
	b.c.execUs += resp.Timings.ExecUs
	if resp.CachedPlan {
		b.c.cached++
	}
	if resp.Degraded {
		b.c.degraded++
	}
	b.mu.Unlock()
	return lat, nil
}

// expected computes the oracle's answers for one request, keyed by the
// answer's constant cells joined with "|".
func (b *serveBench) expected(tmpl int, from int64) map[string]answerAgg {
	to := from + templates[tmpl].width - 1
	lo := sort.Search(len(b.lines), func(i int) bool { return int64(b.lines[i].ship) >= from })
	hi := sort.Search(len(b.lines), func(i int) bool { return int64(b.lines[i].ship) > to })
	window := b.lines[lo:hi]
	out := map[string]answerAgg{}
	switch tmpl {
	case 0:
		n := map[string]int{}
		for _, r := range window {
			n[strconv.Itoa(int(r.order))+"|"+strconv.Itoa(int(r.line))]++
		}
		for k, c := range n {
			out[k] = answerAgg{conf: presence(c)}
		}
	case 1:
		n := map[string]int{}
		for _, r := range window {
			n[string([]byte{r.flag, '|', r.status})]++
		}
		for k, c := range n {
			out[k] = answerAgg{conf: presence(c), expect: tupleProb * float64(c), hasAgg: true}
		}
	case 2:
		// The renamed window collapses an order's lines into one tuple
		// that exists when any of them does; COUNT(*) per customer is a
		// sum of those independent order indicators.
		linesOf := map[int32]int{}
		for _, r := range window {
			linesOf[r.order]++
		}
		type cust struct{ lines, expect float64 }
		byCust := map[int32]*cust{}
		for o, k := range linesOf {
			c := b.custOf[o]
			if byCust[c] == nil {
				byCust[c] = &cust{}
			}
			byCust[c].lines += float64(k)
			byCust[c].expect += presence(k)
		}
		for c, v := range byCust {
			out[strconv.Itoa(int(c))] = answerAgg{conf: presence(int(v.lines)), expect: v.expect, hasAgg: true}
		}
	}
	return out
}

type answerAgg struct {
	conf, expect float64
	hasAgg       bool
}

func (b *serveBench) check(tmpl int, from int64, resp *server.QueryResponse) error {
	want := b.expected(tmpl, from)
	keyCells := 1
	if tmpl < 2 {
		keyCells = 2
	}
	if len(resp.Rows) != len(want) {
		return fmt.Errorf("%d answers, oracle has %d", len(resp.Rows), len(want))
	}
	for _, row := range resp.Rows {
		if len(row.Cells) < keyCells {
			return fmt.Errorf("answer with %d cells", len(row.Cells))
		}
		key := row.Cells[0]
		for _, c := range row.Cells[1:keyCells] {
			key += "|" + c
		}
		w, ok := want[key]
		if !ok {
			return fmt.Errorf("unexpected answer %s", key)
		}
		exact := !resp.Degraded && row.Converged
		if err := checkPoint(key, row.Lo, row.Hi, w.conf, exact); err != nil {
			return err
		}
		if w.hasAgg && (len(row.AggExpects) != 1 || !near(row.AggExpects[0], w.expect)) {
			return fmt.Errorf("%s: E[COUNT] %v, oracle %v", key, row.AggExpects, w.expect)
		}
	}
	return nil
}

func (b *serveBench) resetCounters() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.c = serveCounters{}
	b.counts = map[string]int{}
	b.storeAt0 = b.st.Metrics()
	b.cacheAt0 = b.sharedCache()
}

// stats reads the server's /stats; its counters are cumulative over the
// server's life.
func (b *serveBench) stats() server.Stats {
	var stats server.Stats
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	_ = json.Unmarshal(rec.Body.Bytes(), &stats) // a failed read leaves zeros
	return stats
}

// sharedCache is the server's cross-query compilation cache counters.
func (b *serveBench) sharedCache() pvcagg.CacheStats {
	if cs := b.stats().SharedCache; cs != nil {
		return *cs
	}
	return pvcagg.CacheStats{}
}

func (b *serveBench) layers(ctx context.Context, tr *tracer, ph *phase) (*layerSet, error) {
	l := newLayerSet()
	b.mu.Lock()
	c := b.c
	counts := b.counts
	b.mu.Unlock()
	m := b.st.Metrics()
	if len(ph.tracedLats) == 0 {
		return nil, fmt.Errorf("no answered traced requests")
	}
	// Handler time is taken over every request, traced or not, like the
	// response timings it is split by; a request's latency is its
	// ServeHTTP call.
	n := float64(c.requests)
	handler := mean(append(ph.lats, ph.tracedLats...))
	parse := float64(c.parseUs) / 1e3 / n
	execMS := float64(c.execUs) / 1e3 / n
	l.set("server.handler_ms", handler)
	l.set("server.queue_wait_ms", float64(c.queueUs)/1e3/n)
	l.set("server.overhead_ms", handler-parse-execMS)
	l.set("server.plan_cache_hit_frac", float64(c.cached)/n)
	l.set("server.repeat_frac", float64(c.repeats)/n)
	l.set("server.degraded_frac", float64(c.degraded)/n)
	l.set("server.latency_frac", (handler-parse-execMS)/handler)
	read, skipped := m.BlocksRead-b.storeAt0.BlocksRead, m.BlocksSkipped-b.storeAt0.BlocksSkipped
	l.set("store.blocks_read", float64(read)/n)
	l.set("store.blocks_skipped", float64(skipped)/n)
	if read+skipped > 0 {
		l.set("store.skip_frac", float64(skipped)/float64(read+skipped))
	}
	l.set("store.mb_read", float64(m.BytesRead-b.storeAt0.BytesRead)/1e6/n)
	cs := b.sharedCache()
	hits := cs.Hits + cs.DistHits - b.cacheAt0.Hits - b.cacheAt0.DistHits
	if probes := hits + cs.Misses + cs.DistMisses - b.cacheAt0.Misses - b.cacheAt0.DistMisses; probes > 0 {
		l.set("compile.shared_hit_frac", float64(hits)/float64(probes))
	}

	// The handler reports parse and exec time but not step I against
	// step II; replaying the most frequent traced queries through the
	// facade, with the handler's options, gives that split. The handler
	// compiles through the server's cross-query cache, so the replay uses
	// a cache of the same size brought to the same state: it is fed the
	// queries the server was sent, in order, until the two agree on the
	// adaptive bail-out (a disabled cache changes no more), the queries
	// run out or maxWarm passes.
	cache := pvcagg.NewSharedCache(0)
	warmed, warmEnd := 0, time.Now().Add(maxWarm)
	b.mu.Lock()
	sent := b.sent
	b.mu.Unlock()
	for _, q := range sent {
		if cs.Disabled && cache.Stats().Disabled || time.Now().After(warmEnd) {
			break
		}
		if err := b.exec(ctx, q, cache); err != nil {
			return nil, err
		}
		warmed++
	}
	b.replayed = map[string]any{
		"queries_sent": len(sent), "warm_queries": warmed,
		"server_cache": cs, "replay_cache_warm": cache.Stats(),
	}
	type qc struct {
		q string
		n int
	}
	var qs []qc
	for q, k := range counts {
		qs = append(qs, qc{q, k})
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i].n > qs[j].n || qs[i].n == qs[j].n && qs[i].q < qs[j].q })
	if len(qs) > maxReplays {
		qs = qs[:maxReplays]
	}
	db := b.st.DB()
	var st replayStats
	var weight, s1, s2, comp, eval float64
	for i, x := range qs {
		id := replayIDs + int64(i)
		root := tr.start("replay", -1, id)
		sp := tr.start("ParseQuery", root, id)
		plan, err := pvcagg.ParseQuery(db, x.q)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("Exec", root, id)
		res, err := pvcagg.Exec(ctx, db, plan, handlerOptions(cache)...)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.start("Collect", root, id)
		outs, err := res.Collect()
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		rs, err := replay(ctx, tr, root, id, db, res.Rel, outs, cache)
		tr.end(root)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.q, err)
		}
		w := float64(x.n)
		weight += w
		s1 += w * sumMS(tr.spans, "Exec", id)
		s2 += w * sumMS(tr.spans, "Collect", id)
		comp += w * sumMS(tr.spans, "CompileCtx", id)
		eval += w * sumMS(tr.spans, "Evaluate", id)
		st.add(rs, w)
	}
	// The handler's exec time splits into step I and step II in the
	// replayed ratio.
	step1 := execMS * s1 / (s1 + s2)
	l.setSplit(stepTimes{
		latency: handler, parse: parse, step1: step1, step2: execMS - step1,
		compile: comp / weight, eval: eval / weight,
	})
	l.setReplay(st, comp/weight)
	l.set("engine.answers", float64(c.answers)/n)
	b.replayed["replay_cache"] = cache.Stats()
	return l, nil
}

// handlerOptions are the engine options pvcd's handler passes for a
// default request (Auto mode): sequential, with the cross-query cache
// and the retry budget.
func handlerOptions(cache *pvcagg.SharedCache) []pvcagg.Option {
	return []pvcagg.Option{pvcagg.WithParallelism(1), pvcagg.WithCache(cache), pvcagg.WithRetry(retryPolicy)}
}

// exec runs q through the facade with the handler's options.
func (b *serveBench) exec(ctx context.Context, q string, cache *pvcagg.SharedCache) error {
	db := b.st.DB()
	plan, err := pvcagg.ParseQuery(db, q)
	if err != nil {
		return err
	}
	res, err := pvcagg.Exec(ctx, db, plan, handlerOptions(cache)...)
	if err != nil {
		return err
	}
	_, err = res.Collect()
	return err
}

func (b *serveBench) info(setupHeap uint64) map[string]any {
	stats := b.stats()
	b.mu.Lock()
	defer b.mu.Unlock()
	repeat := 0.0
	if b.c.requests > 0 {
		repeat = float64(b.c.repeats) / float64(b.c.requests)
	}
	p := map[string]any{
		"server_stats": stats,
		"scale_factor": storeSF, "tuple_prob": tupleProb, "lineitem_rows": len(b.lines),
		"dataset_bytes": b.bytes, "dataset_bytes_kind": "PVB1 store on disk", "setup_heap_bytes": setupHeap,
		"clients": serveClient, "windows": windows, "zipf_s": zipfS,
		"repeat_frac": repeat,
	}
	if b.replayed != nil {
		p["step_replay"] = b.replayed
	}
	return p
}

func (b *serveBench) close() { os.RemoveAll(b.dir) }
