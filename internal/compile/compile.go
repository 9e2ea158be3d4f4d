// Package compile implements Algorithm 1 of the paper: compilation of
// arbitrary semiring and semimodule expressions into decomposition trees.
// The six decomposition rules are applied in order:
//
//  1. constant expressions become leaves;
//  2. sums split into independent summands (connected components of the
//     clause-dependency graph), with read-once factoring of common
//     variables inside a component;
//  3. products split into independent factor groups;
//  4. tensors Φ ⊗ α split when scalar and module sides are independent;
//  5. comparisons [Φ θ Ψ] split when the sides are independent, after the
//     pruning rules for conditional expressions have been applied;
//  6. otherwise a variable is eliminated by Shannon (mutex) expansion ⊔x,
//     choosing by default the variable with most occurrences.
//
// Compilation is memoised on the cached structural hash of
// sub-expressions (with structural equality resolving collisions), so
// repeated sub-problems (ubiquitous under Shannon expansion) compile once
// and the resulting d-tree is a DAG. An optional SharedCache extends the
// memoisation across compiler instances — the cross-tuple cache of the
// engine's worker pools.
//
// Parallelism is a schedule, not a second compiler: the sub-problems a
// rule produces (summand and factor groups, tensor and comparison sides,
// the branches of ⊔x) are independent, so the order in which they compile
// does not change the d-tree. At parallelism 1 they compile one after
// another on the calling goroutine; above 1 spare workers take some of
// them (see compileAll), sharing one mutex-striped memo. Every heuristic
// is deterministic, so every parallelism yields a structurally identical
// d-tree up to sharing and bit-identical distributions. A Compiler holds
// no per-call state and is safe for concurrent use; the registry must not
// be mutated while compilations are in flight. Above parallelism 1,
// Options.MaxNodes bounds the nodes created by all workers together,
// which can slightly exceed the sequential count when two workers race to
// compile the same sub-expression, so the budget is approximate there.
package compile

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"pvcagg/internal/algebra"
	"pvcagg/internal/dtree"
	"pvcagg/internal/expr"
	"pvcagg/internal/prob"
	"pvcagg/internal/vars"
)

// VarOrder selects the Shannon-expansion variable-choice heuristic.
type VarOrder int

const (
	// MostOccurrences picks the variable occurring most often (the
	// paper's choice, after [18]). Ties break lexicographically.
	MostOccurrences VarOrder = iota
	// LeastOccurrences picks the rarest variable (ablation baseline).
	LeastOccurrences
	// Lexicographic picks the alphabetically first variable (ablation).
	Lexicographic
)

// Options configure compilation. The zero value enables every technique
// described in the paper.
type Options struct {
	// DisablePruning turns off the conditional-expression pruning rules
	// and distribution capping (ablation).
	DisablePruning bool
	// DisableMemo turns off sub-expression memoisation (ablation).
	DisableMemo bool
	// DisableFactoring turns off read-once common-variable factoring
	// (ablation); sums that do not split then go straight to Shannon.
	DisableFactoring bool
	// Order is the Shannon variable-choice heuristic.
	Order VarOrder
	// MaxNodes aborts compilation when the d-tree exceeds this many
	// nodes (0 means no limit). Compilation of hard expressions is
	// exponential in the worst case (Section 5); the bound turns runaway
	// compilations into errors.
	MaxNodes int
	// Shared, when non-nil, is a cross-compiler cache of compiled d-tree
	// nodes consulted (and filled) alongside the per-compiler memo table,
	// so structurally equal sub-expressions met by different compilations
	// — e.g. the tuples of one pvc-table — compile once. Nodes served
	// from the cache are not re-created, so Stats.Nodes reflects the work
	// actually done, not the DAG size.
	Shared *SharedCache
}

// Stats reports how an expression was compiled.
type Stats struct {
	SumSplits     int // rule 1 applications (⊕ between independent parts)
	ProductSplits int // rule 2 applications
	TensorSplits  int // rule 3 applications
	CmpSplits     int // rule 4 applications
	Factorings    int // read-once common-variable factorings
	Shannon       int // ⊔x expansions
	PrunedTerms   int // semimodule terms removed by pruning rules
	CacheHits     int // memo hits, including shared-cache hits
	SharedHits    int // hits served by Options.Shared
	Nodes         int // d-tree nodes created
}

// Result is a compiled expression: the d-tree root and compile statistics.
type Result struct {
	Root  dtree.Node
	Stats Stats
}

func (s *Stats) add(o Stats) {
	s.SumSplits += o.SumSplits
	s.ProductSplits += o.ProductSplits
	s.TensorSplits += o.TensorSplits
	s.CmpSplits += o.CmpSplits
	s.Factorings += o.Factorings
	s.Shannon += o.Shannon
	s.PrunedTerms += o.PrunedTerms
	s.CacheHits += o.CacheHits
	s.SharedHits += o.SharedHits
	s.Nodes += o.Nodes
}

// Compiler compiles expressions over a fixed semiring and variable
// registry with a fixed parallelism. Every CompileCtx call owns its
// state, so a Compiler is safe for concurrent use.
type Compiler struct {
	s    algebra.Semiring
	reg  *vars.Registry
	opts Options
	par  int
}

// run is the state of one CompileCtx call. An inline run (fk == nil)
// owns a plain memo; the runs of a parallel call share fk, one per
// concurrently compiling branch, each with its own Stats.
type run struct {
	*Compiler
	ctx  context.Context
	st   Stats
	memo exprMemo
	fk   *fork
	// steps counts compile() entries; unlike Stats.Nodes it advances on
	// the way *down* a Shannon descent (whose decision nodes only
	// materialise post-order), so cancellation polls keyed on it reach
	// even a descent that has yet to create its first node.
	steps uint64
}

// memoEntry pairs a memoised expression with its compiled node; the
// expression is kept to resolve structural-hash collisions by Equal.
type memoEntry struct {
	e expr.Expr
	n dtree.Node
}

// exprMemo is a hash-keyed memo with a two-level layout: the primary map
// stores one entry per hash inline (no per-entry slice allocation — the
// overwhelmingly common case), and the rare colliding entries overflow
// into a lazily-allocated bucket map.
type exprMemo struct {
	prim map[uint64]memoEntry
	over map[uint64][]memoEntry
}

func newExprMemo() exprMemo {
	return exprMemo{prim: map[uint64]memoEntry{}}
}

// findEntry scans a hash bucket for a structurally equal expression; it
// is the one collision-resolution routine shared by the inline memo, the
// sharded memo of parallel runs and the cross-tuple SharedCache.
func findEntry(bucket []memoEntry, e expr.Expr) (dtree.Node, bool) {
	for _, ent := range bucket {
		if expr.Equal(ent.e, e) {
			return ent.n, true
		}
	}
	return nil, false
}

func (m *exprMemo) get(h uint64, e expr.Expr) (dtree.Node, bool) {
	if ent, ok := m.prim[h]; ok {
		if expr.Equal(ent.e, e) {
			return ent.n, true
		}
		return findEntry(m.over[h], e)
	}
	return nil, false
}

func (m *exprMemo) put(h uint64, e expr.Expr, n dtree.Node) {
	if _, ok := m.prim[h]; !ok {
		m.prim[h] = memoEntry{e, n}
		return
	}
	if m.over == nil {
		m.over = map[uint64][]memoEntry{}
	}
	m.over[h] = append(m.over[h], memoEntry{e, n})
}

// New returns a Compiler for the given semiring and registry that
// compiles on the calling goroutine.
func New(s algebra.Semiring, reg *vars.Registry, opts Options) *Compiler {
	return NewParallel(s, reg, opts, 1)
}

// NewParallel returns a Compiler running at most parallelism goroutines
// per CompileCtx call, the calling one included; parallelism <= 1
// compiles inline, spawning no goroutines.
func NewParallel(s algebra.Semiring, reg *vars.Registry, opts Options, parallelism int) *Compiler {
	return &Compiler{s: s, reg: reg, opts: opts, par: max(parallelism, 1)}
}

// ctxCheckMask throttles cancellation polls to one per 256 nodes created:
// node creation is the unit of expansion work, so a runaway Shannon
// expansion notices a cancelled context within a few thousand cheap steps
// (well under a millisecond) without an atomic load on every node.
const ctxCheckMask = 255

// Compile compiles e into a d-tree. The result's distribution (computed by
// dtree.Evaluate) equals the distribution of e over the registry's
// probability space (Proposition 4).
func (c *Compiler) Compile(e expr.Expr) (Result, error) {
	return c.CompileCtx(context.Background(), e)
}

// CompileCtx is Compile under a context: compilation polls ctx at
// expansion steps and aborts with ctx.Err() once it is cancelled, turning
// runaway Shannon expansions into promptly-interruptible work.
func (c *Compiler) CompileCtx(ctx context.Context, e expr.Expr) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if err := expr.Validate(e); err != nil {
		return Result{}, err
	}
	if err := c.reg.CheckDeclared(e); err != nil {
		return Result{}, err
	}
	r := &run{Compiler: c, ctx: ctx}
	if c.par > 1 {
		r.fk = newFork(c.par)
	} else {
		r.memo = newExprMemo()
	}
	root, err := r.compile(expr.Simplify(e, c.s))
	if err != nil {
		// Stats survive failure so callers (notably the anytime engine's
		// budgeted closure attempts) can account for the work done.
		return Result{Stats: r.st}, err
	}
	return Result{Root: root, Stats: r.st}, nil
}

func (r *run) newNode(n dtree.Node) (dtree.Node, error) {
	r.st.Nodes++
	total := r.st.Nodes
	if r.fk != nil {
		total = int(r.fk.nodes.Add(1))
	}
	if r.st.Nodes&ctxCheckMask == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if r.opts.MaxNodes > 0 && total > r.opts.MaxNodes {
		return nil, fmt.Errorf("compile: d-tree exceeds %d nodes: %w", r.opts.MaxNodes, ErrNodeBudget)
	}
	return n, nil
}

// memoGet and memoPut reach the run's memo: its own when inline, the
// fork's shared one otherwise. memoPut returns the node stored under
// (h, e), which under a race between branches is the first one stored.
func (r *run) memoGet(h uint64, e expr.Expr) (dtree.Node, bool) {
	if r.fk != nil {
		return r.fk.memo.get(h, e)
	}
	return r.memo.get(h, e)
}

func (r *run) memoPut(h uint64, e expr.Expr, n dtree.Node) dtree.Node {
	if r.fk != nil {
		return r.fk.memo.put(h, e, n)
	}
	r.memo.put(h, e, n)
	return n
}

func (r *run) compile(e expr.Expr) (dtree.Node, error) {
	if r.fk != nil && r.fk.aborted.Load() {
		return nil, errStopped
	}
	// A Shannon descent over a large sum does O(|e|) substitution and
	// simplification work per level and creates its decision nodes only
	// post-order, so the newNode poll alone can leave a cancelled
	// context unnoticed for the entire descent. Poll here too, keyed on
	// recursion steps rather than created nodes.
	r.steps++
	if r.steps&ctxCheckMask == 0 {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
	}
	// Rule 0: expressions without variables are constant leaves.
	if !expr.HasVars(e) {
		v, err := expr.Eval(e, nil, r.s)
		if err != nil {
			return nil, err
		}
		return r.newNode(&dtree.ConstLeaf{V: v, Module: e.Kind() == expr.KindModule})
	}
	if v, ok := e.(expr.Var); ok {
		return r.newNode(&dtree.VarLeaf{Name: v.Name, ID: v.ID()})
	}
	var h uint64
	memoised := !r.opts.DisableMemo
	if memoised {
		h = expr.Hash(e)
		if n, ok := r.memoGet(h, e); ok {
			r.st.CacheHits++
			return n, nil
		}
		if sc := r.opts.Shared; sc != nil {
			if n, ok := sc.lookup(h, e); ok {
				r.st.CacheHits++
				r.st.SharedHits++
				return r.memoPut(h, e, n), nil
			}
		}
	}
	n, err := r.compileUncached(e)
	if err != nil {
		return nil, err
	}
	if memoised {
		if sc := r.opts.Shared; sc != nil {
			n = sc.insert(h, e, n)
		}
		n = r.memoPut(h, e, n)
	}
	return n, nil
}

func (r *run) compileUncached(e expr.Expr) (dtree.Node, error) {
	switch n := e.(type) {
	case expr.Add:
		return r.compileSum(n.Terms, false, 0, e)
	case expr.AggSum:
		return r.compileSum(n.Terms, true, n.Agg, e)
	case expr.Mul:
		return r.compileProduct(n, e)
	case expr.Tensor:
		return r.compileTensor(n, e)
	case expr.Cmp:
		return r.compileCmp(n)
	default:
		return nil, fmt.Errorf("compile: unexpected node %T", e)
	}
}

// compileAll compiles the independent sub-problems es into out, which
// has the same length: the groups of a split, the sides of a tensor or
// comparison, the branches of ⊔x. An inline run compiles them one after
// another; a parallel run forks (see fork.go).
func (r *run) compileAll(es []expr.Expr, out []dtree.Node) error {
	if r.fk != nil {
		return r.forkAll(es, out)
	}
	for i, e := range es {
		n, err := r.compile(e)
		if err != nil {
			return err
		}
		out[i] = n
	}
	return nil
}

// compileSum handles Add (module=false) and AggSum (module=true): rule 1
// (independent partition), then factoring, then Shannon.
func (r *run) compileSum(terms []expr.Expr, module bool, agg algebra.Agg, whole expr.Expr) (dtree.Node, error) {
	groups := components(terms)
	if len(groups) > 1 {
		r.st.SumSplits += len(groups) - 1
		ges := make([]expr.Expr, len(groups))
		for i, g := range groups {
			if module {
				ges[i] = expr.Simplify(expr.MSum(agg, g...), r.s)
			} else {
				ges[i] = expr.Simplify(expr.Sum(g...), r.s)
			}
		}
		parts := make([]dtree.Node, len(groups))
		if err := r.compileAll(ges, parts); err != nil {
			return nil, err
		}
		return r.combinePlus(parts, module, agg)
	}
	if !r.opts.DisableFactoring {
		if node, ok, err := r.tryFactorSum(terms, module, agg); err != nil {
			return nil, err
		} else if ok {
			return node, nil
		}
	}
	return r.shannon(whole)
}

// combinePlus folds independent parts into a balanced binary ⊕ tree.
func (r *run) combinePlus(parts []dtree.Node, module bool, agg algebra.Agg) (dtree.Node, error) {
	for len(parts) > 1 {
		next := make([]dtree.Node, 0, (len(parts)+1)/2)
		for i := 0; i < len(parts); i += 2 {
			if i+1 == len(parts) {
				next = append(next, parts[i])
				continue
			}
			n, err := r.newNode(&dtree.PlusNode{Module: module, Agg: agg, L: parts[i], R: parts[i+1]})
			if err != nil {
				return nil, err
			}
			next = append(next, n)
		}
		parts = next
	}
	return parts[0], nil
}

// tryFactorSum implements read-once factoring: if some variable x occurs
// as a multiplicative factor in *every* term and vanishes from the
// residuals, the sum equals x · (Σ residuals) by distributivity — or
// x ⊗ (Σ residuals) for semimodule sums, by the semimodule laws
// (paper Example 14).
func (r *run) tryFactorSum(terms []expr.Expr, module bool, agg algebra.Agg) (dtree.Node, bool, error) {
	// Candidate variables: factors of the first term.
	for _, x := range factorVariables(terms[0], module) {
		residuals := make([]expr.Expr, len(terms))
		ok := true
		for i, t := range terms {
			res, removed := removeFactor(t, x, module)
			if !removed {
				ok = false
				break
			}
			residuals[i] = res
		}
		if !ok {
			continue
		}
		// x must vanish entirely, or the two sides would share it.
		shared := false
		for _, res := range residuals {
			if expr.HasVarID(res, x) {
				shared = true
				break
			}
		}
		if shared {
			continue
		}
		r.st.Factorings++
		var rest expr.Expr
		if module {
			rest = expr.Simplify(expr.MSum(agg, residuals...), r.s)
		} else {
			rest = expr.Simplify(expr.Sum(residuals...), r.s)
		}
		// The factor is a leaf, so the residual sum is the one
		// sub-problem: compile it inline rather than fork.
		restNode, err := r.compile(rest)
		if err != nil {
			return nil, false, err
		}
		xNode, err := r.compile(expr.VFromID(x))
		if err != nil {
			return nil, false, err
		}
		var out dtree.Node
		if module {
			out, err = r.newNode(&dtree.TensorNode{Agg: agg, Scalar: xNode, Mod: restNode})
		} else {
			out, err = r.newNode(&dtree.TimesNode{L: xNode, R: restNode})
		}
		if err != nil {
			return nil, false, err
		}
		return out, true, nil
	}
	return nil, false, nil
}

// factorVariables lists the variables available for factoring out of a
// term: the top-level Var/Mul factors of a semiring term, or of the scalar
// of a semimodule tensor term. Candidates are ordered by name, matching
// the deterministic choice of the original string-keyed implementation.
func factorVariables(t expr.Expr, module bool) []expr.VarID {
	if module {
		tensor, ok := t.(expr.Tensor)
		if !ok {
			return nil
		}
		return factorVariables(tensor.Scalar, false)
	}
	switch n := t.(type) {
	case expr.Var:
		return []expr.VarID{n.ID()}
	case expr.Mul:
		var out []expr.VarID
		for _, f := range n.Factors {
			if v, ok := f.(expr.Var); ok {
				id := v.ID()
				dup := false
				for _, seen := range out {
					if seen == id {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, id)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return expr.VarName(out[i]) < expr.VarName(out[j]) })
		return out
	default:
		return nil
	}
}

// removeFactor divides term t by variable x, removing exactly one
// occurrence of x as a top-level factor. It reports whether the division
// succeeded.
func removeFactor(t expr.Expr, x expr.VarID, module bool) (expr.Expr, bool) {
	if module {
		tensor, ok := t.(expr.Tensor)
		if !ok {
			return nil, false
		}
		sc, ok := removeFactor(tensor.Scalar, x, false)
		if !ok {
			return nil, false
		}
		return expr.NewTensor(tensor.Agg, sc, tensor.Mod), true
	}
	switch n := t.(type) {
	case expr.Var:
		if n.ID() == x {
			return expr.CInt(1), true
		}
		return nil, false
	case expr.Mul:
		for i, f := range n.Factors {
			if v, ok := f.(expr.Var); ok && v.ID() == x {
				rest := make([]expr.Expr, 0, len(n.Factors)-1)
				rest = append(rest, n.Factors[:i]...)
				rest = append(rest, n.Factors[i+1:]...)
				if len(rest) == 0 {
					return expr.CInt(1), true
				}
				return expr.Product(rest...), true
			}
		}
		return nil, false
	default:
		return nil, false
	}
}

// compileProduct applies rule 2: split the factors of a product into
// independent groups.
func (r *run) compileProduct(m expr.Mul, whole expr.Expr) (dtree.Node, error) {
	groups := components(m.Factors)
	if len(groups) > 1 {
		r.st.ProductSplits += len(groups) - 1
		ges := make([]expr.Expr, len(groups))
		for i, g := range groups {
			ges[i] = expr.Simplify(expr.Product(g...), r.s)
		}
		parts := make([]dtree.Node, len(groups))
		if err := r.compileAll(ges, parts); err != nil {
			return nil, err
		}
		for len(parts) > 1 {
			next := make([]dtree.Node, 0, (len(parts)+1)/2)
			for i := 0; i < len(parts); i += 2 {
				if i+1 == len(parts) {
					next = append(next, parts[i])
					continue
				}
				n, err := r.newNode(&dtree.TimesNode{L: parts[i], R: parts[i+1]})
				if err != nil {
					return nil, err
				}
				next = append(next, n)
			}
			parts = next
		}
		return parts[0], nil
	}
	return r.shannon(whole)
}

// compileTensor applies rule 3: Φ ⊗ α with independent sides.
func (r *run) compileTensor(t expr.Tensor, whole expr.Expr) (dtree.Node, error) {
	if disjoint(t.Scalar, t.Mod) {
		r.st.TensorSplits++
		var sides [2]dtree.Node
		if err := r.compileAll([]expr.Expr{t.Scalar, t.Mod}, sides[:]); err != nil {
			return nil, err
		}
		return r.newNode(&dtree.TensorNode{Agg: t.Agg, Scalar: sides[0], Mod: sides[1]})
	}
	return r.shannon(whole)
}

// compileCmp applies the pruning rules and then rule 4.
func (r *run) compileCmp(cm expr.Cmp) (dtree.Node, error) {
	if !r.opts.DisablePruning {
		pruned, dropped := pruneCmp(r.s, r.reg, cm)
		r.st.PrunedTerms += dropped
		simplified := expr.Simplify(pruned, r.s)
		if !expr.HasVars(simplified) {
			v, err := expr.Eval(simplified, nil, r.s)
			if err != nil {
				return nil, err
			}
			return r.newNode(&dtree.ConstLeaf{V: v})
		}
		var ok bool
		if cm, ok = simplified.(expr.Cmp); !ok {
			return r.compile(simplified)
		}
	}
	if disjoint(cm.L, cm.R) {
		r.st.CmpSplits++
		var sides [2]dtree.Node
		if err := r.compileAll([]expr.Expr{cm.L, cm.R}, sides[:]); err != nil {
			return nil, err
		}
		var cap *prob.Cap
		if !r.opts.DisablePruning {
			cap = capFor(r.s, r.reg, cm)
		}
		return r.newNode(&dtree.CmpNode{Th: cm.Th, L: sides[0], R: sides[1], Cap: cap})
	}
	return r.shannon(cm)
}

// shannon applies rule 5/6: mutex expansion ⊔x of the chosen variable.
func (r *run) shannon(e expr.Expr) (dtree.Node, error) {
	// Poll unconditionally: one expansion level costs O(|e|) in
	// substitution and simplification, which dwarfs the check, and a
	// descent over a wide aggregate can run thousands of levels before
	// creating its first (post-order) node.
	if err := r.ctx.Err(); err != nil {
		return nil, err
	}
	x := chooseVariable(e, r.opts.Order)
	d, err := r.reg.DistByID(x)
	if err != nil {
		return nil, err
	}
	r.st.Shannon++
	pairs := d.Pairs()
	subs := make([]expr.Expr, len(pairs))
	for i, pair := range pairs {
		subs[i] = expr.Simplify(expr.SubstID(e, x, pair.V), r.s)
	}
	children := make([]dtree.Node, len(pairs))
	if err := r.compileAll(subs, children); err != nil {
		return nil, err
	}
	branches := make([]dtree.Branch, len(pairs))
	for i, pair := range pairs {
		branches[i] = dtree.Branch{Val: pair.V, P: pair.P, Child: children[i]}
	}
	return r.newNode(&dtree.ExclusiveNode{Var: expr.VarName(x), Branches: branches})
}

// varSetPool recycles the VarID-indexed occurrence sets used by the
// variable-choice heuristic, the independence partition and the
// disjointness tests — the hot helpers that previously allocated a
// map[string]int per call.
var varSetPool = sync.Pool{New: func() any { return new(expr.VarSet) }}

func getVarSet() *expr.VarSet { return varSetPool.Get().(*expr.VarSet) }
func putVarSet(s *expr.VarSet) {
	s.Reset()
	varSetPool.Put(s)
}

// chooseVariable picks the Shannon-expansion variable of e under the
// given heuristic. It is deterministic — ties break on the
// lexicographically smallest name, exactly as the original sorted-name
// implementation did — so every parallelism expands the same variables in
// the same places.
func chooseVariable(e expr.Expr, order VarOrder) expr.VarID {
	vs := getVarSet()
	defer putVarSet(vs)
	expr.CollectVarsInto(e, vs)
	ids := vs.Touched()
	best := ids[0]
	switch order {
	case Lexicographic:
		for _, x := range ids[1:] {
			if expr.VarName(x) < expr.VarName(best) {
				best = x
			}
		}
	case LeastOccurrences:
		for _, x := range ids[1:] {
			cx, cb := vs.Count(x), vs.Count(best)
			if cx < cb || (cx == cb && expr.VarName(x) < expr.VarName(best)) {
				best = x
			}
		}
	default: // MostOccurrences
		for _, x := range ids[1:] {
			cx, cb := vs.Count(x), vs.Count(best)
			if cx > cb || (cx == cb && expr.VarName(x) < expr.VarName(best)) {
				best = x
			}
		}
	}
	return best
}

// components partitions terms into connected components of the
// clause-dependency graph: two terms are connected when they share a
// variable. Constant terms get their own singleton components.
func components(terms []expr.Expr) [][]expr.Expr {
	n := len(terms)
	if n == 1 {
		return [][]expr.Expr{terms}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	union := func(a, b int) { parent[find(a)] = find(b) }

	owner := getVarSet() // variable -> (first term index seen)+1
	termVars := getVarSet()
	for i, t := range terms {
		termVars.Reset()
		expr.CollectVarsInto(t, termVars)
		for _, x := range termVars.Touched() {
			if j, stored := owner.GetOrSet(x, int32(i+1)); !stored {
				union(i, int(j-1))
			}
		}
	}
	putVarSet(termVars)
	putVarSet(owner)
	distinct := 0
	for i := range terms {
		if find(i) == i {
			distinct++
		}
	}
	if distinct == 1 {
		return [][]expr.Expr{terms}
	}
	// Group terms by root, preserving first-seen root order; groupIdx
	// doubles the parent slice's role as a root → output-group index.
	groupIdx := make([]int, n)
	for i := range groupIdx {
		groupIdx[i] = -1
	}
	out := make([][]expr.Expr, 0, distinct)
	for i, t := range terms {
		r := find(i)
		gi := groupIdx[r]
		if gi < 0 {
			gi = len(out)
			groupIdx[r] = gi
			out = append(out, nil)
		}
		out[gi] = append(out[gi], t)
	}
	return out
}

// disjoint reports whether two expressions share no variables.
func disjoint(a, b expr.Expr) bool {
	vs := getVarSet()
	defer putVarSet(vs)
	expr.CollectVarsInto(a, vs)
	return !expr.ContainsAny(b, vs)
}
