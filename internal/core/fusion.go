// Fused network scheduling: a fusion-cut enumerator over the network IR's
// position chain. Contiguous segments connected by producer→consumer edges
// may execute as one fused group whose intermediate tensors stay resident in
// an on-chip buffer (cost.Residency) instead of round-tripping DRAM; the
// scheduler enumerates every candidate group up to a bounded length, solves
// each member problem through the Engine's content-addressed cache (so
// overlapping cuts share their member searches), and picks the best cut by
// an exact Pareto dynamic program over prefix (energy, cycles) sums — EDP is
// not additive across segments, but energy and cycles are, and the frontier
// of their sums contains the EDP optimum. The all-singleton cut is always a
// candidate, so the fused schedule never scores worse than the unfused one.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/network"
	"sunstone/internal/obs"
	"sunstone/internal/tensor"
)

// FusionOptions configures SolveNetworkFused on top of the per-member
// search Options.
type FusionOptions struct {
	// MaxGroup bounds the chain positions per fused group (0 = default 4).
	// MaxGroup 1 disables fusion: the result is the all-singleton schedule.
	MaxGroup int
	// ContinueOnError lets the singleton baseline searches run to their own
	// conclusion after one layer fails, collecting every per-layer error.
	// The default (false) is errgroup-style fail-fast: the first failure
	// cancels the sibling searches, which then return their best-so-far
	// mappings with Stopped = StopCanceled.
	ContinueOnError bool
}

// defaultMaxGroup bounds fused group length when FusionOptions doesn't: the
// resident-footprint reservations of longer chains exhaust realistic on-chip
// capacities well before the search space does.
const defaultMaxGroup = 4

// GroupResult is one segment of a fused network schedule.
type GroupResult struct {
	// Start/End span the segment's positions [Start, End) in the network's
	// repeat-expanded chain.
	Start, End int
	// Layers names the member occurrences in chain order.
	Layers []string
	// PinLevel is the storage level the segment's intermediate tensors stay
	// resident at; -1 for an unfused singleton.
	PinLevel int
	// Members holds each member's search result in chain order. Fused
	// members were solved under the residency cost model on the
	// capacity-reserved architecture.
	Members []Result
	// EnergyPJ/Cycles are the segment totals over Members.
	EnergyPJ, Cycles float64
	// Err is the layer's *LayerError when this singleton's baseline search
	// failed; Members[0] then holds whatever that search returned, and the
	// group counts toward NetworkResult.Failed instead of the totals.
	Err error
}

// NetworkResult is the outcome of SolveNetworkFused.
type NetworkResult struct {
	Network string
	// Groups is the chosen fusion cut in chain order; singleton groups are
	// unfused layer occurrences.
	Groups []GroupResult
	// Totals of the chosen cut; EDP = TotalEnergyPJ × TotalCycles.
	TotalEnergyPJ, TotalCycles, EDP float64
	// Failed counts the chain positions whose layer failed (GroupResult.Err);
	// when it is non-zero the totals cover only the rest.
	Failed int
	// Unfused* are the all-singleton baseline totals from the same run:
	// what MaxGroup 1 scores on the expanded chain.
	UnfusedEnergyPJ, UnfusedCycles, UnfusedEDP float64
	// Sweep counters: candidate groups enumerated, cut by the composed
	// admissible bound, infeasible (no capacity for the resident footprint,
	// or a failed member search), and fully scored.
	GroupsConsidered, GroupsPruned, GroupsInfeasible, GroupsSolved int
	// Stopped aggregates the member searches' stop reasons: StopComplete
	// only when every member ran to completion and the group sweep was not
	// cut short by cancellation.
	Stopped StopReason
	Elapsed time.Duration
}

// handoff is one fusible boundary between adjacent chain positions: the IR
// edge, the level its intermediate pins at, and the capacity it reserves.
type handoff struct {
	edge  network.Edge
	pin   int
	bytes int64
}

// memberJob is one distinct resident member problem, shared by every
// candidate group that needs it (groups overlap heavily across the sweep;
// the Problem.Key dedup makes the shared members nearly free, on top of the
// Engine's compiled-artifact reuse).
type memberJob struct {
	prob   Problem
	sess   *cost.Session // residency session, for the composed bound
	needed bool
	res    Result
	err    error
}

// groupSpec is one candidate fused segment during the sweep.
type groupSpec struct {
	s, e           int
	pin            int
	members        []*memberJob
	feasible       bool
	energy, cycles float64
}

// SolveNetworkFused schedules the network with fusion-aware cuts: it solves
// the all-singleton baseline, enumerates every contiguous fusible group of
// at most MaxGroup positions, solves each group's members under cross-layer
// buffer residency (cost.Residency) on a derived architecture whose pinned
// buffer has the resident footprint carved out, and selects the cut
// minimizing total EDP by an exact Pareto DP over prefix (energy, cycles).
// MaxGroup 1 admits no fused group: the result is the per-layer schedule.
//
// The anytime contract threads through every member search: canceling ctx
// degrades in-flight members to their best-so-far mappings, stops the group
// sweep, and still returns a complete schedule (the all-singleton cut at
// worst), with Stopped recording the reason. Member searches run with opt,
// so Options.Retry covers them too.
//
// A failed singleton search is a per-layer error (see solveSingles for the
// fail-fast policy). Because the baseline is the DP's safety net, one
// failure skips the fusion sweep: the result is the partial all-singleton
// schedule — failed positions carry GroupResult.Err, Failed counts them,
// the totals cover the rest — returned together with the errors.Join of
// the layer errors. A failed fused member merely discards its groups.
func (e *Engine) SolveNetworkFused(ctx context.Context, net *network.Network, a *arch.Arch, opt Options, fopt FusionOptions) (NetworkResult, error) {
	if err := opt.Validate(); err != nil {
		return NetworkResult{}, err
	}
	if net == nil {
		return NetworkResult{}, errors.New("fused schedule: nil network")
	}
	if err := net.Validate(); err != nil {
		return NetworkResult{}, err
	}
	if a == nil {
		return NetworkResult{}, errors.New("fused schedule: nil arch")
	}
	if err := a.Validate(); err != nil {
		return NetworkResult{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.withDefaults()
	maxGroup := fopt.MaxGroup
	if maxGroup <= 0 {
		maxGroup = defaultMaxGroup
	}
	start := time.Now()
	ctx, span := obs.StartSpanf(ctx, "fuse %s", net.Name)
	defer span.End()

	pos := net.Positions()
	res := NetworkResult{Network: net.Name}

	// Phase 1: the all-singleton baseline — each distinct layer solved once
	// under the plain model. It is both the DP's fallback and the dominance
	// reference for group pruning.
	singles, layerErrs := e.solveSingles(ctx, net, a, opt, fopt.ContinueOnError)
	err := errors.Join(layerErrs...)
	if err == nil {
		res.Groups = e.sweep(ctx, net, pos, a, opt, maxGroup, singles, &res)
	} else {
		for at, p := range pos {
			res.Groups = append(res.Groups, singletonGroup(net, pos, at, singles, layerErrs[p.Layer]))
		}
	}

	// Unfused baseline totals, summed in the same left-to-right order the
	// DP's singleton path uses.
	for _, p := range pos {
		if layerErrs[p.Layer] != nil {
			continue
		}
		r := &singles[p.Layer].Report
		res.UnfusedEnergyPJ += r.EnergyPJ
		res.UnfusedCycles += r.Cycles
	}
	res.UnfusedEDP = res.UnfusedEnergyPJ * res.UnfusedCycles

	for _, g := range res.Groups {
		if g.Err != nil {
			res.Failed++
			continue
		}
		res.TotalEnergyPJ += g.EnergyPJ
		res.TotalCycles += g.Cycles
	}
	res.EDP = res.TotalEnergyPJ * res.TotalCycles

	res.Stopped = StopComplete
	if cerr := ctx.Err(); cerr != nil {
		if errors.Is(cerr, context.DeadlineExceeded) {
			res.Stopped = StopDeadline
		} else {
			res.Stopped = StopCanceled
		}
	} else {
	scan:
		for _, g := range res.Groups {
			for _, m := range g.Members {
				if m.Stopped != StopComplete {
					res.Stopped = m.Stopped
					break scan
				}
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// solveSingles is phase 1: every distinct layer solved once, concurrently.
// A failed layer gets a *LayerError classified with sibling-cancel
// awareness. Unless continueOnError, the first failure cancels the sibling
// searches (errgroup-style fail-fast), which then return their best-so-far
// mappings — or, with nothing completed yet, fail as sibling-cancel.
func (e *Engine) solveSingles(ctx context.Context, net *network.Network, a *arch.Arch, opt Options, continueOnError bool) ([]Result, []error) {
	singles := make([]Result, len(net.Layers))
	errs := make([]error, len(net.Layers))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// siblingFailed is set before the fail-fast cancel fires, so a layer
	// whose search died because of that cancellation classifies as
	// sibling-cancel rather than an ordinary search failure. The store
	// happens-before the cancel, and the cancel happens-before any sibling
	// observes it, so the flag is always visible to the layers it explains.
	var siblingFailed atomic.Bool
	parallelDo(len(net.Layers), func(i int) {
		l := &net.Layers[i]
		r, err := e.solveMember(ctx, l.Workload, a, opt)
		singles[i] = r
		if err == nil {
			return
		}
		errs[i] = &LayerError{Layer: l.Name, Cause: ClassifyFailure(err, siblingFailed.Load()), Err: err}
		if !continueOnError {
			siblingFailed.Store(true)
			cancel()
		}
	})
	return singles, errs
}

// singletonGroup is chain position at as an unfused segment carrying its
// layer's baseline result, or its failure err.
func singletonGroup(net *network.Network, pos []network.Position, at int, singles []Result, err error) GroupResult {
	l := pos[at].Layer
	r := singles[l]
	g := GroupResult{
		Start: at, End: at + 1,
		Layers:   []string{net.Layers[l].Name},
		PinLevel: -1,
		Members:  []Result{r},
		Err:      err,
	}
	if err == nil {
		g.EnergyPJ, g.Cycles = r.Report.EnergyPJ, r.Report.Cycles
	}
	return g
}

// sweep is phases 2-4 over a successful singleton baseline: enumerate the
// fusible candidate groups, solve their members, and return the cut the
// Pareto DP selects, counting the sweep into res.
func (e *Engine) sweep(ctx context.Context, net *network.Network, pos []network.Position, a *arch.Arch, opt Options, maxGroup int, singles []Result, res *NetworkResult) []GroupResult {
	// Phase 2: fusible boundaries, then candidate groups. boundary[i]
	// describes the handoff between positions i and i+1 when an edge exists
	// and the architecture has an on-chip home for it; a nil boundary is a
	// forced cut.
	boundary := make([]*handoff, 0, len(pos))
	for i := 0; i+1 < len(pos); i++ {
		var h *handoff
		if ed, ok := net.EdgeBetween(pos[i].Layer, pos[i+1].Layer); ok {
			if pin := network.PinLevel(a, ed); pin >= 0 {
				h = &handoff{edge: ed, pin: pin, bytes: net.HandoffBytes(a, ed)}
			}
		}
		boundary = append(boundary, h)
	}

	jobs := map[string]*memberJob{}
	var jobOrder []*memberJob
	buildJob := func(p network.Position, in, out *handoff) (*memberJob, bool) {
		w := net.Layers[p.Layer].Workload
		var pins []cost.Pin
		type resv struct {
			lvl, buf int
			bytes    int64
		}
		var rs []resv
		add := func(h *handoff, name string) bool {
			bi := bufferIndexFor(&a.Levels[h.pin], name)
			if bi < 0 {
				return false
			}
			pins = append(pins, cost.Pin{Tensor: name, Level: h.pin})
			rs = append(rs, resv{lvl: h.pin, buf: bi, bytes: h.bytes})
			return true
		}
		if in != nil && !add(in, in.edge.ToTensor) {
			return nil, false
		}
		if out != nil && !add(out, out.edge.FromTensor) {
			return nil, false
		}
		// Derived architecture: carve the resident footprints out of the
		// pinned buffers. A buffer driven to or below zero cannot host the
		// residency — the group is infeasible on this architecture.
		da := *a
		da.Levels = append([]arch.Level(nil), a.Levels...)
		copied := map[int]bool{}
		for _, r := range rs {
			if !copied[r.lvl] {
				da.Levels[r.lvl].Buffers = append([]arch.Buffer(nil), da.Levels[r.lvl].Buffers...)
				copied[r.lvl] = true
			}
			b := &da.Levels[r.lvl].Buffers[r.buf]
			b.Bytes -= r.bytes
			if b.Bytes <= 0 {
				return nil, false
			}
		}
		model := opt.Model
		model.Resident = &cost.Residency{Pins: (&cost.Residency{Pins: pins}).CanonicalPins()}
		prob := Problem{Workload: w, Arch: &da, Model: model}
		key, cacheable := prob.Key()
		if !cacheable {
			key = fmt.Sprintf("uncacheable-%d", len(jobOrder))
		}
		if j, ok := jobs[key]; ok {
			return j, true
		}
		j := &memberJob{prob: prob, sess: e.Session(model, w, &da)}
		jobs[key] = j
		jobOrder = append(jobOrder, j)
		return j, true
	}

	var groupList []*groupSpec
	groupAt := map[[2]int]*groupSpec{}
	for s := 0; s < len(pos) && ctx.Err() == nil; s++ {
		for en := s + 2; en <= len(pos) && en-s <= maxGroup; en++ {
			if boundary[en-2] == nil {
				break // forced cut: longer groups from s are impossible too
			}
			res.GroupsConsidered++
			g := &groupSpec{s: s, e: en, pin: boundary[s].pin}
			feasible := true
			for i := s; i < en; i++ {
				var in, out *handoff
				if i > s {
					in = boundary[i-1]
				}
				if i < en-1 {
					out = boundary[i]
				}
				j, ok := buildJob(pos[i], in, out)
				if !ok {
					feasible = false
					break
				}
				g.members = append(g.members, j)
			}
			if !feasible {
				res.GroupsInfeasible++
				continue
			}
			// Composed admissible bound (PR 8's per-layer floors under the
			// residency model, summed over the group): a fused group whose
			// floor already matches-or-exceeds the singleton schedule of
			// the same span in BOTH energy and cycles can never improve the
			// Pareto frontier, so its member searches are skipped entirely.
			var lbE, lbC, sE, sC float64
			bounded := true
			for i, j := range g.members {
				if j.sess == nil {
					bounded = false
					break
				}
				be, bc := j.sess.LowerBound(0)
				lbE += be
				lbC += bc
				r := &singles[pos[s+i].Layer].Report
				sE += r.EnergyPJ
				sC += r.Cycles
			}
			if bounded && lbE >= sE && lbC >= sC {
				res.GroupsPruned++
				continue
			}
			for _, j := range g.members {
				j.needed = true
			}
			groupList = append(groupList, g)
			groupAt[[2]int{s, en}] = g
		}
	}

	// Phase 3: solve the distinct member problems of every surviving group.
	var needed []*memberJob
	for _, j := range jobOrder {
		if j.needed {
			needed = append(needed, j)
		}
	}
	parallelDo(len(needed), func(i int) {
		j := needed[i]
		opt2 := opt
		opt2.Model = j.prob.Model
		j.res, j.err = e.solveMember(ctx, j.prob.Workload, j.prob.Arch, opt2)
	})
	for _, g := range groupList {
		ok := true
		g.energy, g.cycles = 0, 0
		for _, j := range g.members {
			if j.err != nil || j.res.Mapping == nil || !j.res.Report.Valid {
				ok = false
				break
			}
			g.energy += j.res.Report.EnergyPJ
			g.cycles += j.res.Report.Cycles
		}
		g.feasible = ok
		if ok {
			res.GroupsSolved++
		} else {
			res.GroupsInfeasible++
		}
	}

	// Phase 4: exact Pareto DP over prefix (energy, cycles) sums. states[i]
	// is the non-dominated frontier over all cuts of positions [0, i); the
	// all-singleton path survives every filter step (anything dominating it
	// is at least as good in both components), so the final minimum-EDP
	// state never scores worse than the unfused baseline.
	type pathState struct {
		e, c   float64
		prev   int        // position index where the last segment starts
		prevIx int        // index into states[prev]
		g      *groupSpec // nil: singleton segment [prev, prev+1)
	}
	states := make([][]pathState, len(pos)+1)
	states[0] = []pathState{{}}
	for i := 1; i <= len(pos); i++ {
		var cand []pathState
		r := &singles[pos[i-1].Layer].Report
		for ix, st := range states[i-1] {
			cand = append(cand, pathState{e: st.e + r.EnergyPJ, c: st.c + r.Cycles, prev: i - 1, prevIx: ix})
		}
		for s := i - 2; s >= 0 && i-s <= maxGroup; s-- {
			g := groupAt[[2]int{s, i}]
			if g == nil || !g.feasible {
				continue
			}
			for ix, st := range states[s] {
				cand = append(cand, pathState{e: st.e + g.energy, c: st.c + g.cycles, prev: s, prevIx: ix, g: g})
			}
		}
		sort.SliceStable(cand, func(a, b int) bool {
			if cand[a].e != cand[b].e {
				return cand[a].e < cand[b].e
			}
			return cand[a].c < cand[b].c
		})
		var front []pathState
		for _, st := range cand {
			if len(front) == 0 || st.c < front[len(front)-1].c {
				front = append(front, st)
			}
		}
		states[i] = front
	}

	final := states[len(pos)]
	best := 0
	for ix := 1; ix < len(final); ix++ {
		if final[ix].e*final[ix].c < final[best].e*final[best].c {
			best = ix
		}
	}
	// Reconstruct the chosen cut back-to-front.
	var segs []pathState
	for i, ix := len(pos), best; i > 0; {
		st := states[i][ix]
		segs = append(segs, st)
		i, ix = st.prev, st.prevIx
	}
	for i, j := 0, len(segs)-1; i < j; i, j = i+1, j-1 {
		segs[i], segs[j] = segs[j], segs[i]
	}
	var groups []GroupResult
	at := 0
	for _, st := range segs {
		if st.g == nil {
			groups = append(groups, singletonGroup(net, pos, at, singles, nil))
			at++
			continue
		}
		g := st.g
		gr := GroupResult{Start: g.s, End: g.e, PinLevel: g.pin, EnergyPJ: g.energy, Cycles: g.cycles}
		for i, j := range g.members {
			gr.Layers = append(gr.Layers, net.Layers[pos[g.s+i].Layer].Name)
			gr.Members = append(gr.Members, j.res)
		}
		groups = append(groups, gr)
		at = g.e
	}
	return groups
}

// solveMember runs one member search with panic containment, so a poisoned
// cost model on one member degrades that member instead of the whole
// schedule.
func (e *Engine) solveMember(ctx context.Context, w *tensor.Workload, a *arch.Arch, opt Options) (r Result, err error) {
	defer func() {
		if pe := anytime.PanicErrorFrom(recover(), "fused member "+w.Name, nil); pe != nil {
			err = pe
		}
	}()
	return e.Solve(ctx, Problem{Workload: w, Arch: a, Model: opt.Model}, opt)
}

// parallelDo runs fn(0..n-1) on up to GOMAXPROCS goroutines and waits.
func parallelDo(n int, fn func(i int)) {
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// bufferIndexFor returns the index of the buffer holding tensor name at
// level l, or -1.
func bufferIndexFor(l *arch.Level, name string) int {
	for i := range l.Buffers {
		if l.Buffers[i].Holds(name) {
			return i
		}
	}
	return -1
}
