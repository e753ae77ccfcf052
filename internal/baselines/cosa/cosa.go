// Package cosa reimplements the CoSA mapper's strategy (Huang et al., ISCA
// 2021): a *one-shot* constrained-optimization formulation that linearizes
// the (non-linear) mapping problem in log space so it can be solved without
// search, then rounds the relaxed solution to integer factors.
//
// The defining behaviours the paper reports are reproduced faithfully:
//
//   - it is very fast (a single allocation pass, no search — Fig. 8b shows
//     CoSA finishing before Sunstone);
//   - the linear approximation drops the non-linear parts of the capacity
//     constraints, so the rounded solution's tiles can overflow their
//     buffers: this implementation checks capacity per tensor against the
//     *full* buffer (ignoring co-resident tensors), ignores sliding-window
//     halos (P+R-1 is linearized to P), and checks only the level being
//     assigned — three genuine linearization artifacts. The real validator
//     then reports "one or more tiles did not fit in their designated
//     memories" for most Simba layers, as in Section V-B3;
//   - when it is valid, the mapping is often suboptimal versus Sunstone.
package cosa

import (
	"context"
	"sort"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/baselines"
	"sunstone/internal/cost"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
)

// Mapper is the CoSA-style one-shot mapper.
type Mapper struct {
	Model cost.Model
	// Sessions, when non-nil, supplies the fast-path cost session (e.g. a
	// shared Engine's compiled cache) instead of building one per call.
	Sessions baselines.SessionSource
}

// New returns a mapper with the default model.
func New() *Mapper { return &Mapper{Model: cost.Default} }

// UseSessions injects a shared session source (see baselines.SessionFor).
func (m *Mapper) UseSessions(src baselines.SessionSource) { m.Sessions = src }

// Name implements baselines.Mapper.
func (m *Mapper) Name() string { return "CoSA" }

// MapContext implements baselines.Mapper: this search is one-shot and
// sub-second, so it only short-circuits an already-done context and
// otherwise runs to completion with panic containment (see
// baselines.RunContext). The run is recorded as a telemetry span when the
// context carries a trace (see baselines.Instrument).
func (m *Mapper) MapContext(ctx context.Context, w *tensor.Workload, a *arch.Arch) baselines.Result {
	return baselines.Instrument(ctx, m.Name(), func(ctx context.Context) baselines.Result {
		return baselines.RunContext(ctx, m.Name(), func() baselines.Result { return m.Map(w, a) })
	})
}

// Map implements baselines.Mapper.
func (m *Mapper) Map(w *tensor.Workload, a *arch.Arch) baselines.Result {
	start := time.Now()
	mp := mapping.New(w, a)
	top := len(a.Levels) - 1

	// Relaxed per-tensor, per-level capacity in words: each tensor sees the
	// full capacity of its buffer (linearization artifact #1: co-resident
	// tensors are ignored because the sum constraint is non-linear in log
	// space).
	relaxCap := make([]map[string]int64, len(a.Levels))
	for l := 0; l < top; l++ {
		relaxCap[l] = map[string]int64{}
		for _, t := range w.Tensors {
			if buf := a.Levels[l].BufferFor(t.Name); buf != nil && a.Levels[l].Keeps(t.Name) {
				if buf.Bytes == 0 {
					relaxCap[l][t.Name] = 1 << 60
				} else {
					relaxCap[l][t.Name] = buf.Bytes * 8 / int64(a.Bits(t.Name))
				}
			}
		}
	}
	// Linearized footprint tracker: product of per-dimension factors at
	// levels <= l for each tensor's indexing dims (artifact #2: compound
	// sliding-window axes P+R-1 are linearized to their dominant term).
	foot := make([]map[string]int64, len(a.Levels))
	for l := range foot {
		foot[l] = map[string]int64{}
		for _, t := range w.Tensors {
			foot[l][t.Name] = 1
		}
	}

	// Utilization objective first: fill every spatial fanout greedily with
	// the largest dimensions (CoSA weighs PE utilization linearly).
	dims := append([]tensor.Dim(nil), w.Order...)
	sort.Slice(dims, func(i, j int) bool { return w.Dims[dims[i]] > w.Dims[dims[j]] })
	remaining := map[tensor.Dim][]int{}
	for _, d := range w.Order {
		ps := factor.Primes(w.Dims[d])
		sort.Sort(sort.Reverse(sort.IntSlice(ps)))
		remaining[d] = ps
	}
	redSet := map[tensor.Dim]bool{}
	for _, d := range w.ReductionDims() {
		redSet[d] = true
	}
	for l := 0; l < len(a.Levels); l++ {
		free := a.Levels[l].Fanout
		if free <= 1 {
			continue
		}
		for _, d := range dims {
			if redSet[d] && !a.Levels[l].AllowSpatialReduction {
				continue
			}
			ps := remaining[d]
			for len(ps) > 0 {
				p := ps[len(ps)-1] // smallest prime first for dense packing
				if p > free {
					break
				}
				ps = ps[:len(ps)-1]
				mp.Levels[l].Spatial[d] = mp.Levels[l].S(d) * p
				free /= p
				// Linearization artifact #4: spatial factors are tracked
				// per-instance ("each child sees only its slice") — correct
				// for per-datatype distributed buffers, but wrong at shared
				// levels like Simba's L2, which must hold every instance's
				// slice of every resident tensor at once. The dominant
				// source of the invalid Simba mappings of Section V-B3.
				if !sharedLevel(w, a, l) {
					bumpFootprints(w, foot, l, d, int64(p), len(a.Levels))
				}
			}
			remaining[d] = ps
		}
	}

	// Reuse objective: place the remaining factors at the lowest temporal
	// level whose *relaxed* capacity still admits them (artifact #3: only
	// the level being assigned is checked; the same factor also enlarges
	// every level above, which the linear form drops).
	for _, d := range w.Order {
		for _, p := range remaining[d] {
			placed := false
			for l := 0; l < top && !placed; l++ {
				if !a.Levels[l].Keeps(dAnyTensor(w, d)) && !levelHoldsIndexed(w, a, l, d) {
					continue
				}
				ok := true
				for _, t := range w.Tensors {
					capT, kept := relaxCap[l][t.Name]
					if !kept || !t.Indexing(d) {
						continue
					}
					if foot[l][t.Name]*int64(p) > capT {
						ok = false
						break
					}
				}
				if ok {
					mp.Levels[l].Temporal[d] = mp.Levels[l].T(d) * p
					bumpFootprints(w, foot, l, d, int64(p), len(a.Levels))
					placed = true
				}
			}
			if !placed {
				mp.Levels[top].Temporal[d] = mp.Levels[top].T(d) * p
			}
		}
	}

	// Permutation objective: CoSA's MIP solves the loop permutation jointly
	// with the factors. Model that by scoring each pruned-trie ordering
	// (plus the reduction-innermost heuristic) on the fixed factor
	// allocation and keeping the best — still one shot in the factor
	// space, a constant handful of permutation candidates.
	orderHeur := append([]tensor.Dim(nil), w.ReductionDims()...)
	for _, d := range w.Order {
		if !redSet[d] {
			orderHeur = append(orderHeur, d)
		}
	}
	candidates := [][]tensor.Dim{orderHeur}
	orderings, _ := order.Enumerate(w)
	for i := range orderings {
		candidates = append(candidates, orderings[i].Complete(w))
	}
	var best *mapping.Mapping
	var bestEDP, bestEnergyPJ, bestCycles float64
	bestValid := false
	evaluated := 0
	// Fast-path evaluator for the permutation scoring; the winner's full
	// Report (including the Invalid diagnosis) is materialized afterwards.
	ev := baselines.SessionFor(m.Sessions, m.Model, w, a).NewEvaluator()
	for _, ord := range candidates {
		cand := mp.Clone()
		for l := 1; l < len(a.Levels); l++ {
			cand.Levels[l].Order = append([]tensor.Dim(nil), ord...)
		}
		edp, energyPJ, cycles, valid := ev.EvaluateEDP(cand)
		evaluated++
		if best == nil || (valid && !bestValid) ||
			(valid == bestValid && edp < bestEDP) {
			best, bestEDP, bestEnergyPJ, bestCycles, bestValid = cand, edp, energyPJ, cycles, valid
		}
	}

	rep := baselines.FinalReport(ev, best, bestEDP, bestEnergyPJ, bestCycles, bestValid)
	res := baselines.Result{
		Mapping:   best,
		Report:    rep,
		Valid:     rep.Valid,
		Evaluated: evaluated,
		Elapsed:   time.Since(start),
	}
	if !rep.Valid && rep.Invalid != nil {
		res.InvalidReason = "tile does not fit its designated memory: " + rep.Invalid.Error()
	}
	return res
}

// bumpFootprints multiplies the linearized footprint of every tensor indexed
// by d at levels >= l (the tracker keeps the running per-level product so
// later *lower*-level checks stay consistent; upper levels are tracked but,
// per the linear relaxation, not re-checked).
func bumpFootprints(w *tensor.Workload, foot []map[string]int64, l int, d tensor.Dim, p int64, nLevels int) {
	for _, t := range w.Tensors {
		if !t.Indexing(d) {
			continue
		}
		for j := l; j < nLevels; j++ {
			foot[j][t.Name] *= p
		}
	}
}

// sharedLevel reports whether some buffer at level l is shared by two or
// more of the workload's tensors.
func sharedLevel(w *tensor.Workload, a *arch.Arch, l int) bool {
	al := &a.Levels[l]
	for bi := range al.Buffers {
		n := 0
		for _, t := range w.Tensors {
			if al.Buffers[bi].Holds(t.Name) {
				n++
			}
		}
		if n >= 2 {
			return true
		}
	}
	return false
}

// dAnyTensor returns the name of some tensor indexed by d (for keep checks).
func dAnyTensor(w *tensor.Workload, d tensor.Dim) string {
	for _, t := range w.Tensors {
		if t.Indexing(d) {
			return t.Name
		}
	}
	return ""
}

// levelHoldsIndexed reports whether level l keeps any tensor indexed by d
// (assigning d's factors there can create reuse).
func levelHoldsIndexed(w *tensor.Workload, a *arch.Arch, l int, d tensor.Dim) bool {
	for _, t := range w.Tensors {
		if t.Indexing(d) && a.Levels[l].Keeps(t.Name) {
			return true
		}
	}
	return false
}
