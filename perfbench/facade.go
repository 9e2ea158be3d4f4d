package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pvcagg"
	"pvcagg/internal/tpch"
)

// The in-memory workload calls the facade the way a library user does:
// ParseQuery, Exec (step I) and Collect (step II), with the defaults —
// Auto mode and parallelism GOMAXPROCS.

const memSF = 0.002

const (
	q1Query = "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem " +
		"WHERE l_shipdate <= 1200 GROUP BY l_returnflag, l_linestatus"
	// q1Groups is the number of leading cells that identify an answer.
	q1Groups = 2
)

// keptForReplay bounds how many traced results the workload keeps; its
// requests are identical, so a few replays represent them all.
const keptForReplay = 3

// answer is the oracle's expectation for one answer tuple.
type answer struct {
	conf float64
	pmf  []float64 // COUNT distribution
}

type collected struct {
	id   int64
	rel  *pvcagg.Relation
	outs []pvcagg.TupleOutcome
}

type facadeBench struct {
	db    *pvcagg.Database
	truth map[string]answer // by the answer's group cells, joined with "|"
	rows  int

	mu   sync.Mutex
	kept []collected
}

func newFacadeBench(seed int64) (*facadeBench, error) {
	db, err := tpch.Generate(tpch.Config{SF: memSF, Seed: seed, Probabilistic: true, TupleProb: tupleProb})
	if err != nil {
		return nil, err
	}
	li, err := db.Relation("lineitem")
	if err != nil {
		return nil, err
	}
	ship, flag, status := li.Schema.Index("l_shipdate"), li.Schema.Index("l_returnflag"), li.Schema.Index("l_linestatus")
	b := &facadeBench{db: db, rows: len(li.Tuples), truth: map[string]answer{}}
	counts := map[string]int{}
	for _, t := range li.Tuples {
		if t.Cells[ship].Value().Int64() <= 1200 {
			counts[t.Cells[flag].Str()+"|"+t.Cells[status].Str()]++
		}
	}
	for k, n := range counts {
		b.truth[k] = answer{conf: presence(n), pmf: binomial(n)}
	}
	return b, nil
}

func (b *facadeBench) clients() int { return 1 }

func (b *facadeBench) request(ctx context.Context, _ int, _ *rand.Rand, tr *tracer, id int64) (time.Duration, error) {
	t0 := time.Now()
	root := tr.start("request", -1, id)
	sp := tr.start("ParseQuery", root, id)
	plan, err := pvcagg.ParseQuery(b.db, q1Query)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("Exec", root, id)
	res, err := pvcagg.Exec(ctx, b.db, plan)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.start("Collect", root, id)
	outs, err := res.Collect()
	tr.end(sp)
	tr.end(root)
	lat := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if err := b.check(outs); err != nil {
		return 0, err
	}
	if tr != nil {
		b.mu.Lock()
		if len(b.kept) < keptForReplay {
			b.kept = append(b.kept, collected{id, res.Rel, outs})
		}
		b.mu.Unlock()
	}
	return lat, nil
}

func (b *facadeBench) check(outs []pvcagg.TupleOutcome) error {
	seen := 0
	for _, o := range outs {
		key := o.Tuple.Cells[0].String()
		for _, c := range o.Tuple.Cells[1:q1Groups] {
			key += "|" + c.String()
		}
		want, ok := b.truth[key]
		if !ok {
			return fmt.Errorf("unexpected answer %s", key)
		}
		seen++
		if err := checkPoint(key, o.Confidence.Lo, o.Confidence.Hi, want.conf, true); err != nil {
			return err
		}
		if len(o.AggDists) != 1 {
			return fmt.Errorf("%s: %d aggregation values, want 1", key, len(o.AggDists))
		}
		if err := checkBinomial(key, o.AggDists[0], want.pmf); err != nil {
			return err
		}
	}
	if seen != len(b.truth) {
		return fmt.Errorf("%d answers, oracle has %d", seen, len(b.truth))
	}
	return nil
}

func (b *facadeBench) resetCounters() {
	b.mu.Lock()
	b.kept = nil
	b.mu.Unlock()
}

func (b *facadeBench) layers(ctx context.Context, tr *tracer, ph *phase) (*layerSet, error) {
	l := newLayerSet()
	n := float64(len(ph.tracedLats))
	if n == 0 {
		return nil, fmt.Errorf("no answered traced requests")
	}
	var st replayStats
	for _, k := range b.kept {
		root := tr.start("replay", -1, k.id)
		rs, err := replay(ctx, tr, root, k.id, b.db, k.rel, k.outs, nil)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		st.add(rs, 1)
	}
	// Spans up to here are the traced requests and their replays.
	spans := tr.spans
	r := float64(len(b.kept))
	t := stepTimes{
		latency: sumMS(spans, "request", -1) / n,
		parse:   sumMS(spans, "ParseQuery", -1) / n,
		step1:   sumMS(spans, "Exec", -1) / n,
		step2:   sumMS(spans, "Collect", -1) / n,
		compile: sumMS(spans, "CompileCtx", -1) / r,
		eval:    sumMS(spans, "Evaluate", -1) / r,
	}
	l.setSplit(t)
	l.setReplay(st, t.compile)
	return l, nil
}

func (b *facadeBench) info(setupHeap uint64) map[string]any {
	return map[string]any{
		"scale_factor": memSF, "tuple_prob": tupleProb, "lineitem_rows": b.rows,
		"dataset_bytes": setupHeap, "dataset_bytes_kind": "in-memory heap held after set-up",
		"clients": 1, "query": q1Query,
	}
}

func (b *facadeBench) close() {}
