package compile

import (
	"errors"
	"sync"
	"sync/atomic"

	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
)

// This file is the parallel schedule of compileAll: independent
// sub-problems fan out to a bounded set of goroutines. The memo is shared
// by all goroutines of one CompileCtx call and striped over
// mutex-guarded shards, so the compiled d-tree remains a DAG: a
// sub-expression reached from two branches compiles once (or, under a
// benign race, twice, with the first stored node winning and the
// duplicate discarded).

// memoShards is the stripe count of the shared memo table. 64 shards
// keep contention negligible at any realistic GOMAXPROCS while the
// per-shard maps stay dense.
const memoShards = 64

type memoShard struct {
	mu sync.RWMutex
	m  map[uint64][]memoEntry
}

// shardedMemo is a mutex-striped map from structural sub-expression
// hashes (collisions resolved by structural equality) to compiled d-tree
// nodes.
type shardedMemo struct {
	shards [memoShards]memoShard
}

func (sm *shardedMemo) get(h uint64, e expr.Expr) (dtree.Node, bool) {
	sh := &sm.shards[h%memoShards]
	sh.mu.RLock()
	n, ok := findEntry(sh.m[h], e)
	sh.mu.RUnlock()
	return n, ok
}

// put stores n under (h, e) unless another goroutine got there first, and
// returns the winning node so callers converge on one shared sub-tree.
func (sm *shardedMemo) put(h uint64, e expr.Expr, n dtree.Node) dtree.Node {
	sh := &sm.shards[h%memoShards]
	sh.mu.Lock()
	if prev, ok := findEntry(sh.m[h], e); ok {
		sh.mu.Unlock()
		return prev
	}
	sh.m[h] = append(sh.m[h], memoEntry{e, n})
	sh.mu.Unlock()
	return n
}

// fork is the state the branches of one parallel CompileCtx call share.
// The semaphore holds one token per spare worker: the calling goroutine
// is the last of the par workers.
type fork struct {
	sem     chan struct{}
	memo    shardedMemo
	aborted atomic.Bool
	nodes   atomic.Int64 // nodes created by all branches, for MaxNodes
}

func newFork(par int) *fork {
	fk := &fork{sem: make(chan struct{}, par-1)}
	for i := range fk.memo.shards {
		fk.memo.shards[i].m = map[uint64][]memoEntry{}
	}
	return fk
}

// errStopped is returned by sub-compilations that bailed out because a
// sibling already failed; the sibling's real error supersedes it on the
// way up.
var errStopped = errors.New("compile: aborted by concurrent failure")

// branch is one sub-problem compiled on its own goroutine, with its own
// run (and so its own Stats).
type branch struct {
	run
	n     dtree.Node
	err   error
	panic any
}

// forkAll is compileAll for a parallel run. Each sub-problem but the last
// goes to a fresh goroutine when the semaphore has a spare token, and is
// compiled inline otherwise; taking a token never blocks, so nested forks
// cannot deadlock. A failing sub-problem sets the abort flag so that its
// siblings stop early. A panicking branch is recovered on its goroutine
// and re-raised here once every branch has stopped, so the panic reaches
// the goroutine that called CompileCtx — as at parallelism 1 — instead of
// killing the process.
func (r *run) forkAll(es []expr.Expr, out []dtree.Node) (err error) {
	fk := r.fk
	spawned := make([]*branch, len(es))
	var wg sync.WaitGroup
	settled := false
	defer func() {
		if !settled {
			// An inline sub-problem panicked: stop the spawned branches
			// before the panic unwinds past the state they share.
			fk.aborted.Store(true)
			wg.Wait()
		}
	}()
	for i, e := range es {
		if i < len(es)-1 {
			select {
			case fk.sem <- struct{}{}:
				b := &branch{run: run{Compiler: r.Compiler, ctx: r.ctx, fk: fk}}
				spawned[i] = b
				wg.Add(1)
				go b.work(e, &wg)
				continue
			default:
			}
		}
		if out[i], err = r.compile(e); err != nil {
			fk.aborted.Store(true)
			break
		}
	}
	wg.Wait()
	settled = true
	var recovered any
	for i, b := range spawned {
		if b == nil {
			continue
		}
		r.st.add(b.st)
		out[i] = b.n
		if recovered == nil {
			recovered = b.panic
		}
		// Prefer a real error over the errStopped of branches that merely
		// noticed the abort.
		if err == nil || (err == errStopped && b.err != nil) {
			err = b.err
		}
	}
	if recovered != nil {
		panic(recovered)
	}
	return err
}

func (b *branch) work(e expr.Expr, wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if p := recover(); p != nil {
			b.panic = p
			b.fk.aborted.Store(true)
		}
		<-b.fk.sem
	}()
	if b.n, b.err = b.run.compile(e); b.err != nil {
		b.fk.aborted.Store(true)
	}
}
