package core

import (
	"sync"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/faults"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
)

// Compiled is the per-(workload, arch, model) artifact bundle: everything a
// search needs that depends only on the problem, not on the run. Building it
// costs one ordering-trie enumeration, one cost-session plan, the fit-check
// capacity skeleton, and an empty factor-ladder memo — work that today's
// serving-shaped callers (network scheduling, figure sweeps, -compare) would
// otherwise repeat on every Solve call for the same problem.
//
// A Compiled is immutable after Compile returns and safe for any number of
// concurrent searches: the ordering set, fit skeleton and cost session are
// read-only, and the ladder and expansion caches guard their memo tables
// internally. When the Compiled comes from an Engine, warm calls start with
// those caches already populated.
type Compiled struct {
	w     *tensor.Workload
	a     *arch.Arch
	model cost.Model

	sess       *cost.Session    // fast-path plan tables
	orderings  []order.Ordering // pruned ordering-trie survivors
	ostats     order.Stats      // trie effort, replayed into each run's counters
	fit        fitSkeleton      // static structure of the capacity tables
	ladders    ladderCache      // memoized factor ladders (tile/unroll/fill)
	expansions expandCache      // memoized level expansions (warm-search replay)
}

// Compile validates the problem and builds its artifact bundle. The zero
// model compiles as cost.Default, mirroring Options.withDefaults.
func Compile(w *tensor.Workload, a *arch.Arch, model cost.Model) (*Compiled, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	// Chaos hook: an injected compile fault fails (or poisons) the build
	// after input validation, exactly where a real mid-compile failure
	// would land.
	if err, _ := faults.Fire(faults.SiteCompile); err != nil {
		return nil, err
	}
	if model == (cost.Model{}) {
		model = cost.Default
	}
	c := &Compiled{w: w, a: a, model: model}
	c.orderings, c.ostats = order.Enumerate(w)
	c.sess = model.NewSession(w, a)
	c.fit = buildFitSkeleton(w, a)
	c.ladders.m = make(map[ladderKey][]int)
	c.expansions.m = make(map[string]*expandEntry)
	return c, nil
}

// Workload returns the compiled problem's workload.
func (c *Compiled) Workload() *tensor.Workload { return c.w }

// Arch returns the compiled problem's architecture.
func (c *Compiled) Arch() *arch.Arch { return c.a }

// Session returns the compiled fast-path cost session. The session is
// goroutine-safe; callers needing scratch space take their own Evaluator.
func (c *Compiled) Session() *cost.Session { return c.sess }

// ladderKey identifies one memoized factor ladder: the tiling tree pads
// sparse dimensions (minDivisors 4 by default), spatial unrolling does not
// (2), so both arguments key the table.
type ladderKey struct{ n, minDiv int }

// ladderCache memoizes factor.Ladder results across every enumeration of a
// compiled problem. The same quotas recur thousands of times per search —
// each beam state re-derives ladders for the same remaining extents — and
// across warm Engine calls they recur across searches too. Returned slices
// are shared and MUST NOT be mutated.
type ladderCache struct {
	mu sync.RWMutex
	m  map[ladderKey][]int
}

func (lc *ladderCache) ladder(n, minDiv int) []int {
	k := ladderKey{n, minDiv}
	lc.mu.RLock()
	l, ok := lc.m[k]
	lc.mu.RUnlock()
	if ok {
		return l
	}
	l = factor.Ladder(n, minDiv)
	lc.mu.Lock()
	lc.m[k] = l
	lc.mu.Unlock()
	return l
}

// expandEntry records one level-expansion's complete outcome: the produced
// candidates, the visit count charged against the step budget, the
// enumeration-reject tallies the expansion flushed into the candidate-flow
// counters, and whether any of its work units exhausted its visit-budget
// share. A warm search replays all of them, so its counters, space size,
// budget-hit flag and candidate set are indistinguishable from a cold run's.
// The stored mappings are shared across searches and MUST be treated as
// immutable (the search never mutates a produced candidate — every
// downstream consumer clones).
type expandEntry struct {
	cands           []*mapping.Mapping
	visited         int
	prunedTiling    int
	prunedUnrolling int
	truncated       bool
}

// maxExpandCacheCands bounds the candidate mappings an expansion cache may
// retain per compiled problem. Expansion results are the bulkiest compiled
// artifact (full partial mappings, not tables); typical searches produce a
// few hundred to a few thousand candidates, so the bound is generous for
// repeat-heavy serving while capping the worst case. Once full, existing
// entries keep serving hits but new ones are not stored.
const maxExpandCacheCands = 1 << 14

// expandCache memoizes the per-(state, level, options) candidate expansions
// of a compiled problem. Enumeration — the tiling tree with its capacity
// probes, the unrolling search — dominates search time, and it is fully
// deterministic given the partial mapping, the level, and the enumeration
// options, so a warm Engine call replays the recorded outcome instead of
// re-walking the trees.
type expandCache struct {
	mu     sync.RWMutex
	m      map[string]*expandEntry
	stored int
}

func (c *expandCache) get(key string) *expandEntry {
	c.mu.RLock()
	e := c.m[key]
	c.mu.RUnlock()
	return e
}

// put stores e unless the key is already present or the candidate bound is
// reached. Concurrent searches may race to store the same key; the results
// are identical (the expansion is deterministic), so first-write-wins.
func (c *expandCache) put(key string, e *expandEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.m[key]; dup {
		return
	}
	if c.stored+len(e.cands) > maxExpandCacheCands {
		return
	}
	c.m[key] = e
	c.stored += len(e.cands)
}
