// Package core implements the Sunstone dataflow optimizer — the paper's
// primary contribution.
//
// Sunstone optimizes level by level. At each memory level l (bottom-up, the
// default) it composes the three algebra-derived stages:
//
//   - loop ordering for the level above, from the pruned ordering trie
//     (internal/order) — this decides which operand OP is temporally reused
//     across level-l tiles;
//   - tiling of level l, from the tiling tree (internal/tile) grown only
//     along OP's indexing dimensions (the Tiling Principle);
//   - spatial unrolling across the next level's fanout (internal/unroll),
//     restricted to OP's indexing dimensions (the Unrolling Principle) and
//     filtered for high throughput.
//
// Partial mappings are scored by completing them (all remaining factors at
// the top level) and evaluating the full cost model; because most accesses
// happen at the lowest levels, these bottom-up estimates are tight, which is
// what makes the alpha-beta-style pruning effective (Section V-C of the
// paper). A beam of the best partial mappings is carried between levels.
//
// The package also implements the top-down variant and the three intra-level
// optimization orders studied in Table VI.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"sunstone/internal/anytime"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
	"sunstone/internal/order"
	"sunstone/internal/serde"
	"sunstone/internal/tensor"
)

// StopReason re-exports the anytime-search stop taxonomy (see
// internal/anytime): every search entry point is an anytime algorithm that
// on cancellation, deadline, or budget exhaustion returns the best mapping
// completed so far with Result.Stopped set, instead of discarding work.
type StopReason = anytime.StopReason

// Stop reasons for Result.Stopped.
const (
	StopComplete = anytime.Complete
	StopDeadline = anytime.Deadline
	StopCanceled = anytime.Canceled
	StopBudget   = anytime.Budget
)

// Direction selects the inter-level optimization order (Table VI).
type Direction int

const (
	BottomUp Direction = iota
	TopDown
)

func (d Direction) String() string {
	if d == TopDown {
		return "top-down"
	}
	return "bottom-up"
}

// Strategy selects the intra-level optimization order (Table VI). All three
// converge on the same candidate set — the paper finds intra-level order
// does not significantly affect mapping quality — but they apply the
// principle-based filters at different points, so their enumeration effort
// (space size) differs.
type Strategy int

const (
	// OrderTileUnroll is the default described in Section III-C: pick an
	// ordering, grow tiles for it, then unroll for each ordering-tile pair.
	OrderTileUnroll Strategy = iota
	// TileUnrollOrder enumerates unconstrained tiles and unrollings first,
	// filtering by ordering compatibility last.
	TileUnrollOrder
	// UnrollTileOrder enumerates unrollings first, then tiles, then orders.
	UnrollTileOrder
)

func (s Strategy) String() string {
	switch s {
	case TileUnrollOrder:
		return "tiling->unrolling->ordering"
	case UnrollTileOrder:
		return "unrolling->tiling->ordering"
	default:
		return "ordering->tiling->unrolling"
	}
}

// Objective selects the figure of merit the search minimizes. The paper
// uses EDP throughout; energy-only, delay-only, and ED^2P are provided as
// extensions (useful for energy-constrained edge or latency-critical
// serving deployments).
type Objective int

const (
	// MinEDP minimizes energy x delay (the paper's merit; default).
	MinEDP Objective = iota
	// MinEnergy minimizes total energy.
	MinEnergy
	// MinDelay minimizes cycles.
	MinDelay
	// MinED2P minimizes energy x delay^2.
	MinED2P
)

func (o Objective) String() string {
	switch o {
	case MinEnergy:
		return "energy"
	case MinDelay:
		return "delay"
	case MinED2P:
		return "ED2P"
	default:
		return "EDP"
	}
}

// Score extracts the objective value from a report (lower is better;
// invalid reports score +Inf).
func (o Objective) Score(rep cost.Report) float64 {
	return o.scoreScalars(rep.EDP, rep.EnergyPJ, rep.Cycles, rep.Valid)
}

// scoreScalars is Score on the fast path's scalar tuple. The arithmetic is
// kept expression-identical to the Report-based form so scores are
// bit-for-bit the same whichever path produced the numbers.
func (o Objective) scoreScalars(edp, energyPJ, cycles float64, valid bool) float64 {
	if !valid {
		return math.Inf(1)
	}
	switch o {
	case MinEnergy:
		return energyPJ
	case MinDelay:
		return cycles
	case MinED2P:
		return energyPJ * cycles * cycles
	default:
		return edp
	}
}

// scoreFloor maps an admissible (energy, cycles) cost floor to a floor on
// the objective value: every Objective is monotone non-decreasing in both
// components, so a per-component floor yields a floor on the score. This is
// what lets cost.Session.LowerBound prune on any objective, not just EDP.
func (o Objective) scoreFloor(energyPJ, cycles float64) float64 {
	switch o {
	case MinEnergy:
		return energyPJ
	case MinDelay:
		return cycles
	case MinED2P:
		return energyPJ * cycles * cycles
	default:
		return energyPJ * cycles
	}
}

// Options configures the optimizer.
type Options struct {
	Direction Direction
	Strategy  Strategy
	// Objective is the figure of merit minimized (default MinEDP).
	Objective Objective
	// BeamWidth bounds the partial mappings carried between levels
	// (default 24).
	BeamWidth int
	// AlphaSlack multiplies the best completed EDP seen so far to form the
	// alpha-beta pruning bound for partial candidates (default 16).
	AlphaSlack float64
	// MinUtilization is the high-throughput threshold for spatial
	// unrolling (default 0.5).
	MinUtilization float64
	// TilesPerStep caps the tiling candidates kept per (state, ordering,
	// unrolling) at each level, preferring the largest tiles (default 8).
	TilesPerStep int
	// UnrollsPerStep caps the unrolling candidates kept per (state,
	// ordering) at each spatial level, preferring the highest utilization
	// (default 6).
	UnrollsPerStep int
	// NoPolish disables the greedy local-move refinement applied to the
	// bottom-up search's best mapping.
	NoPolish bool
	// Threads bounds the worker goroutines used inside one search — the
	// candidate-expansion, evaluation, and polish fan-outs all share one
	// pool of this size (default GOMAXPROCS). Results are bit-identical at
	// every thread count; see TestParallelParity.
	Threads int
	// Model is the cost model (default cost.Default).
	Model cost.Model
	// TopDownVisitBudget caps the candidates a top-down search may
	// enumerate before it settles for the best found (default 4,000,000).
	// The cap exists because the top-down space is orders of magnitude
	// larger (Table VI) — exactly the pathology the paper reports.
	TopDownVisitBudget int
	// Timeout bounds the search wall-clock (0 = unbounded). When it
	// expires the search stops at the next cancellation poll and returns
	// the best mapping completed so far with Result.Stopped = StopDeadline.
	// Equivalent to passing Solve a context with that deadline.
	Timeout time.Duration
	// Progress, when non-nil, receives live search events: phase-started /
	// phase-finished for every per-level pass (and polish), and
	// incumbent-improved whenever the best-so-far completed mapping gets
	// better. Events are emitted synchronously from the goroutine driving
	// the search, incumbent improvements at a bounded rate; no event is
	// delivered after Solve returns. A panicking callback is
	// isolated like a poisoned candidate: progress reporting stops, the
	// panic is recorded in Result.CandidateErrors, and the search itself
	// continues unharmed.
	Progress obs.ProgressFunc
	// Analytical configures the closed-form seeding and bound-tightening
	// layer. Nil means "use the defaults" (both on, like every other zero
	// field); pass an explicit &AnalyticalOptions{} to turn both off and
	// recover the pre-seeding search behavior exactly.
	Analytical *AnalyticalOptions
	// WarmStart, when non-nil, is a previously found complete mapping for
	// this same (workload, arch) problem — typically a crash-recovery
	// checkpoint — installed as the initial alpha-beta incumbent after the
	// analytic seed. It is rebound onto the search's compiled workload/arch
	// instances and fully validated first; a warm start that does not fit
	// degrades to a cold search (recorded in Result.CandidateErrors), it
	// never fails the run. The resumed search therefore finishes equal or
	// better than the checkpoint, never worse.
	WarmStart *mapping.Mapping
	// Retry, when non-nil, routes the search through the graceful-
	// degradation path (see Engine.Solve): bounded primary retries with
	// budget backoff, then the policy's fallback-mapper chain, every
	// accepted mapping passing the final audit. Nil is the plain
	// single-attempt search.
	Retry *RetryPolicy
}

// AnalyticalOptions groups the knobs of the analytical layer: the one-shot
// GOMA-style seed mapping installed as the alpha-beta incumbent before
// enumeration starts, and the per-candidate lower bound that cuts subtrees
// whose cost floor already exceeds the incumbent. Both default to on (see
// DefaultOptions). Both can change which mapping the search returns, not
// only how much work it does: a tighter incumbent prunes the beam
// differently, and the bound is meant to be admissible but is not
// everywhere. On the strided 1x1 downsampling convs (ResNet-18
// conv3_ds/conv4_ds/conv5_ds at batch 16) valid mappings evaluate to
// 0.44-0.94x of the bound, so with Bounds on the search may cut mappings it
// should keep there; perfbench counts these cases as
// analytic.bound_violations.
type AnalyticalOptions struct {
	// Seed computes, validates, and fully evaluates a closed-form seed
	// mapping before enumeration starts, installing it as the initial
	// alpha-beta incumbent. A seed that fails to build or validate degrades
	// to the pre-seeding behavior (recorded in Result.CandidateErrors),
	// never a hard failure.
	Seed bool
	// Bounds consults the compile-time lower bound
	// (cost.Session.LowerBound) on every materialized candidate before
	// evaluation, discarding those whose floor already exceeds the
	// incumbent. Cuts are counted in SearchStats.BoundPruned. The bound is
	// not admissible on strided 1x1 convs (see AnalyticalOptions), where
	// a cut can discard a better mapping.
	Bounds bool
}

// Maximum sane values for Options.Validate: beyond these the caller almost
// certainly passed a wrong unit (e.g. nanoseconds as a count) and the search
// would never finish or would exhaust memory.
const (
	maxBeamWidth  = 1 << 20
	maxPerStep    = 1 << 20
	maxAlphaSlack = 1e12
)

// MaxThreads is the largest Options.Threads value Validate accepts. Exported
// so callers that accept a thread count from untrusted input — the scheduler
// service's job-submission `threads` field — can validate against the same
// bound before building Options.
const MaxThreads = 4096

// Validate rejects option values that today would be silently defaulted or
// silently accepted but can never be what the caller meant: NaN or negative
// floats, MinUtilization above 1 (no unrolling can exceed full utilization),
// and absurd Threads/BeamWidth magnitudes. Zero values remain "use the
// default" and are always accepted. Solve calls this on every run.
func (o Options) Validate() error {
	var errs []error
	badf := func(name string, v float64) {
		errs = append(errs, fmt.Errorf("Options.%s = %v: must be a finite non-negative number (0 = default)", name, v))
	}
	if math.IsNaN(o.AlphaSlack) || math.IsInf(o.AlphaSlack, 0) || o.AlphaSlack < 0 {
		badf("AlphaSlack", o.AlphaSlack)
	} else if o.AlphaSlack > maxAlphaSlack {
		errs = append(errs, fmt.Errorf("Options.AlphaSlack = %v: larger than %g disables pruning entirely; use 0 for the default", o.AlphaSlack, float64(maxAlphaSlack)))
	}
	if math.IsNaN(o.MinUtilization) || math.IsInf(o.MinUtilization, 0) || o.MinUtilization < 0 {
		badf("MinUtilization", o.MinUtilization)
	} else if o.MinUtilization > 1 {
		errs = append(errs, fmt.Errorf("Options.MinUtilization = %v: utilization is a fraction, must be <= 1", o.MinUtilization))
	}
	badRange := func(name string, v, max int) {
		if v < 0 {
			errs = append(errs, fmt.Errorf("Options.%s = %d: must be non-negative (0 = default)", name, v))
		} else if v > max {
			errs = append(errs, fmt.Errorf("Options.%s = %d: exceeds the sane maximum %d", name, v, max))
		}
	}
	badRange("BeamWidth", o.BeamWidth, maxBeamWidth)
	badRange("Threads", o.Threads, MaxThreads)
	badRange("TilesPerStep", o.TilesPerStep, maxPerStep)
	badRange("UnrollsPerStep", o.UnrollsPerStep, maxPerStep)
	if o.TopDownVisitBudget < 0 {
		errs = append(errs, fmt.Errorf("Options.TopDownVisitBudget = %d: must be non-negative (0 = default)", o.TopDownVisitBudget))
	}
	if o.Timeout < 0 {
		errs = append(errs, fmt.Errorf("Options.Timeout = %v: must be non-negative (0 = unbounded)", o.Timeout))
	}
	if o.Direction != BottomUp && o.Direction != TopDown {
		errs = append(errs, fmt.Errorf("Options.Direction = %d: unknown direction", int(o.Direction)))
	}
	if o.Strategy < OrderTileUnroll || o.Strategy > UnrollTileOrder {
		errs = append(errs, fmt.Errorf("Options.Strategy = %d: unknown strategy", int(o.Strategy)))
	}
	if o.Objective < MinEDP || o.Objective > MinED2P {
		errs = append(errs, fmt.Errorf("Options.Objective = %d: unknown objective", int(o.Objective)))
	}
	return errors.Join(errs...)
}

// DefaultOptions returns the optimizer's default configuration, spelled out.
// The zero Options value is exactly equivalent: every zero field is filled
// from this set before a search runs, so Solve(p, Options{}) and
// Solve(p, DefaultOptions()) perform the identical search. Use this
// when you want to start from the defaults and tweak one knob explicitly.
func DefaultOptions() Options {
	return Options{
		Direction:          BottomUp,
		Strategy:           OrderTileUnroll,
		Objective:          MinEDP,
		BeamWidth:          24,
		AlphaSlack:         16,
		MinUtilization:     0.5,
		TilesPerStep:       8,
		UnrollsPerStep:     6,
		Threads:            runtime.GOMAXPROCS(0),
		Model:              cost.Default,
		TopDownVisitBudget: 4_000_000,
		Analytical:         &AnalyticalOptions{Seed: true, Bounds: true},
	}
}

// withDefaults fills every zero field from DefaultOptions. This is the single
// place defaults are applied; DefaultOptions is the single place they are
// defined.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.BeamWidth <= 0 {
		o.BeamWidth = def.BeamWidth
	}
	if o.TilesPerStep <= 0 {
		o.TilesPerStep = def.TilesPerStep
	}
	if o.UnrollsPerStep <= 0 {
		o.UnrollsPerStep = def.UnrollsPerStep
	}
	if o.AlphaSlack <= 0 {
		o.AlphaSlack = def.AlphaSlack
	}
	if o.MinUtilization <= 0 {
		o.MinUtilization = def.MinUtilization
	}
	if o.Threads <= 0 {
		o.Threads = def.Threads
	}
	if o.Model == (cost.Model{}) {
		o.Model = def.Model
	}
	if o.TopDownVisitBudget <= 0 {
		o.TopDownVisitBudget = def.TopDownVisitBudget
	}
	if o.Analytical == nil {
		o.Analytical = def.Analytical
	}
	return o
}

// SearchStats is the counter snapshot published in Result.Stats (see
// internal/obs). For an uncancelled run the candidate flow satisfies
// Generated == Pruned() + Deduped + Evaluated.
type SearchStats = obs.SearchStats

// Result is the outcome of one optimization run.
type Result struct {
	Mapping *mapping.Mapping
	Report  cost.Report
	// Stopped records why the search returned: StopComplete for a full
	// run, StopDeadline/StopCanceled when the context ended the search
	// early (Mapping is then the best completed so far), StopBudget when
	// an enumeration budget was exhausted.
	Stopped StopReason
	// SpaceSize counts the candidate mappings the search examined — the
	// paper's "space size" merit (Tables I and VI).
	SpaceSize int
	// OrderingsConsidered is the surviving ordering-trie candidate count.
	OrderingsConsidered int
	// CandidateErrors holds panics recovered from candidate evaluations
	// (each an *anytime.PanicError with the offending mapping serialized),
	// capped at maxCandidateErrors. The search survives them: a poisoned
	// candidate simply scores invalid.
	CandidateErrors []error
	// Stats snapshots the search's telemetry counters at return: candidate
	// flow (generated / pruned by principle / deduped / evaluated /
	// skipped) and post-evaluation beam cuts. EvalCacheHits and
	// EvalCacheMisses are always zero (see obs.SearchStats).
	Stats   SearchStats
	Elapsed time.Duration
	// Attempts records every attempt the resilient path made before this
	// result was accepted, in order — the accepted attempt last with a nil
	// Err. Nil when Options.Retry is nil.
	Attempts []Attempt
	// FallbackUsed names the fallback mapper that produced Mapping when the
	// resilient path degraded ("" = the primary Sunstone search).
	FallbackUsed string
	// SeedEDP is the EDP of the analytical seed mapping installed as the
	// initial alpha-beta incumbent (0 when seeding was disabled or the seed
	// failed to produce a valid mapping). Comparing it against Report.EDP
	// shows how much the enumeration improved on the closed-form guess.
	SeedEDP float64
	// WarmStartEDP is the EDP of the Options.WarmStart mapping as
	// re-evaluated by this search (0 when no warm start was given or it
	// failed to install). Report.EDP ≤ WarmStartEDP by construction.
	WarmStartEDP float64
}

// maxCandidateErrors caps Result.CandidateErrors so a systematically
// panicking cost model cannot balloon memory; further panics are dropped
// after the first few identical repros.
const maxCandidateErrors = 8

// optimizeCompiled runs one search over a compiled problem. opt must already
// be validated and defaulted. This is the single execution path: the per-call
// entry points compile fresh, an Engine reuses cached artifacts, and both end
// here.
func optimizeCompiled(ctx context.Context, comp *Compiled, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
		defer cancel()
	}
	start := time.Now()
	sc := newSearch(comp, opt)
	ctx, root := obs.StartSpanf(ctx, "optimize %s (%s)", comp.w.Name, opt.Direction)
	sc.prog.phase(obs.PhaseStarted, "optimize", -1)
	res, err := runLevelSearch(ctx, sc)
	res.Stats = obs.SnapshotSearch(sc.reg)
	sc.prog.phase(obs.PhaseFinished, "optimize", -1)
	if perr := sc.prog.takeErr(); perr != nil {
		res.CandidateErrors = appendCapped(res.CandidateErrors, perr)
	}
	if root != nil {
		root.Arg("stopped", res.Stopped.String())
		for _, cv := range sc.reg.Snapshot() {
			root.Arg(cv.Name, cv.Value)
		}
		root.End()
	}
	res.Elapsed = time.Since(start)
	return res, err
}

// search is the per-run evaluation context over a compiled problem: one
// scratch evaluator per worker thread — so the steady-state scoring path
// allocates nothing and never contends on scratch space — and the run's
// telemetry: a counter registry of candidate flow and the progress emitter.
// The compiled artifacts (cost session, orderings, fit skeleton, ladder
// memo) may be shared with other concurrent searches; everything mutable
// here is per-run.
type search struct {
	opt  Options
	comp *Compiled
	sess *cost.Session
	evs  []*cost.Evaluator
	reg  *obs.Registry
	ctr  *obs.SearchCounters
	prog *progressEmitter
	// best is the shared atomic incumbent score: published lock-free by the
	// evaluation workers as candidates complete, consumed only at step
	// barriers to seed the alpha-beta bound (see prune) — deterministic
	// there, because by the barrier every score of the step has landed.
	best *bestScore
}

func newSearch(comp *Compiled, opt Options) *search {
	sc := &search{opt: opt, comp: comp, sess: comp.sess, best: newBestScore()}
	sc.evs = make([]*cost.Evaluator, opt.Threads)
	for i := range sc.evs {
		sc.evs[i] = sc.sess.NewEvaluator()
	}
	sc.reg = obs.NewRegistry()
	sc.ctr = obs.NewSearchCounters(sc.reg)
	sc.prog = newProgressEmitter(opt.Progress, sc.ctr)
	return sc
}

// state is one partial mapping plus its completed-cost estimate. Only the
// fast path's scalars are carried — a full cost.Report is materialized once,
// for the search's final mapping.
type state struct {
	m         *mapping.Mapping
	completed *mapping.Mapping // the evaluated completion of m (anytime incumbent)
	score     float64          // objective value of the completed form
	energyPJ  float64
	cycles    float64
	valid     bool
	key       string // deterministic tie-break, rendered lazily on first use
}

// tieKey renders (and memoizes) the deterministic tie-break key. Rendering
// is deferred to the sort so the evaluation fan-out never pays for the
// string; only score ties — rare — force it.
func (s *state) tieKey() string {
	if s.key == "" {
		s.key = s.m.String()
	}
	return s.key
}

// completeFn turns a partial mapping into its evaluable completion; each
// direction supplies its own (see sequencer). It must be safe to call from
// the evaluation fan-out's worker goroutines.
type completeFn func(*mapping.Mapping) *mapping.Mapping

// completeUp clones m into a full (evaluable) mapping the bottom-up way:
// every intermediate level is greedily filled with whatever remaining
// factors fit its buffers (a stand-in for the optimization the upper steps
// will perform — this is what makes the bottom-up completed-cost estimates
// tight), and the final remainder lands at the unbounded top level.
func (sc *search) completeUp(m *mapping.Mapping) *mapping.Mapping {
	c := m.Clone()
	top := len(c.Levels) - 1
	for l := 1; l < top; l++ {
		sc.residualFill(c, l, nil)
	}
	for d, bound := range c.Workload.Dims {
		below := c.Extent(d, top-1)
		need := ceilDiv(bound, below)
		if t := c.Levels[top].T(d); t < need {
			c.Levels[top].Temporal[d] = need
		}
	}
	return c
}

// growDimsFor returns the union of indexing dimensions of the tensors fully
// reused by ordering o (the OP of the Tiling/Unrolling Principles); nil when
// the ordering reuses nothing (no guidance — all dims allowed).
func growDimsFor(w *tensor.Workload, o *order.Ordering) []tensor.Dim {
	if len(o.FullyReused) == 0 {
		return nil
	}
	set := map[tensor.Dim]bool{}
	for _, name := range o.FullyReused {
		t := w.Tensor(name)
		if t == nil {
			continue
		}
		for _, d := range t.IndexingDims() {
			set[d] = true
		}
	}
	var out []tensor.Dim
	for _, d := range w.Order {
		if set[d] {
			out = append(out, d)
		}
	}
	return out
}

// quotas returns the per-dimension remaining factor budget above level
// lvl-1 (i.e. for loops at levels >= lvl), given the extents already fixed.
func quotas(m *mapping.Mapping, lvl int) map[tensor.Dim]int {
	q := make(map[tensor.Dim]int, len(m.Workload.Dims))
	for d, bound := range m.Workload.Dims {
		below := 1
		if lvl > 0 {
			below = m.Extent(d, lvl-1)
		}
		q[d] = ceilDiv(bound, below)
	}
	return q
}

// feasible reports whether the partial mapping's current extents still fit
// every bounded buffer at levels [from, top). Because extents only grow as
// upper levels are assigned, a violation here can never be repaired.
func feasible(m *mapping.Mapping, from int) bool {
	top := len(m.Levels) - 1
	for l := from; l < top; l++ {
		ext := m.Extents(l)
		al := &m.Arch.Levels[l]
		for bi := range al.Buffers {
			buf := &al.Buffers[bi]
			if buf.Bytes == 0 {
				continue
			}
			var usedBits int64
			for _, t := range m.Workload.Tensors {
				if buf.Holds(t.Name) {
					usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
				}
			}
			if usedBits > buf.Bytes*8 {
				return false
			}
		}
	}
	return true
}

// evalAll scores the completed forms of the given mappings in parallel and
// returns them as states sorted by (score, render) for determinism, plus
// any panics recovered from poisoned evaluations (capped at
// maxCandidateErrors). Scoring runs on the fast path through the shared
// intra-search pool (runParallel): a fixed set of workers — one preallocated
// scratch Evaluator each, indexed by worker id — pulls indices off an atomic
// counter, so the fan-out allocates nothing per candidate beyond the
// completion clone. Each valid score is published to the search's shared
// atomic incumbent as it lands, so the alpha-beta bound consumed at the next
// step barrier is the tightest available. Once ctx is done the remaining
// unevaluated mappings are skipped — they surface as +Inf states the
// caller's prune discards — so a cancel drains the worker pool within one
// evaluation per thread.
func (sc *search) evalAll(ctx context.Context, ms []*mapping.Mapping, cf completeFn) ([]state, []error) {
	states := make([]state, len(ms))
	var mu sync.Mutex
	var panics []error
	runParallel(len(sc.evs), len(ms), func(wk, i int) {
		sc.evalOne(ctx, sc.evs[wk], ms, states, i, cf, &mu, &panics)
	})
	sortStates(states)
	return states, panics
}

// evalOne scores ms[i] into states[i], containing a cost-model panic to
// this one candidate (the worker loop survives and keeps draining).
func (sc *search) evalOne(ctx context.Context, ev *cost.Evaluator, ms []*mapping.Mapping, states []state, i int, cf completeFn, mu *sync.Mutex, panics *[]error) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "evaluate candidate mapping", func() string { return reproMapping(ms[i]) }); e != nil {
			states[i] = state{m: ms[i], score: math.Inf(1)}
			mu.Lock()
			if len(*panics) < maxCandidateErrors {
				*panics = append(*panics, e)
			}
			mu.Unlock()
		}
	}()
	if ctx.Err() != nil {
		sc.ctr.Skipped.Inc()
		states[i] = state{m: ms[i], score: math.Inf(1)}
		return
	}
	// Counted before the attempt so a poisoned candidate still counts as
	// evaluated (its fate is "attempted", not "skipped").
	sc.ctr.Evaluated.Inc()
	c := cf(ms[i])
	edp, energyPJ, cycles, valid := ev.EvaluateEDP(c)
	states[i] = state{
		m:         ms[i],
		completed: c,
		score:     sc.opt.Objective.scoreScalars(edp, energyPJ, cycles, valid),
		energyPJ:  energyPJ,
		cycles:    cycles,
		valid:     valid,
	}
	if valid {
		sc.best.publish(states[i].score)
	}
}

// sortStates orders states by (score, render): identical to the historical
// ordering, but the render tie-break is computed lazily.
func sortStates(states []state) {
	sort.Slice(states, func(i, j int) bool {
		if states[i].score != states[j].score {
			return states[i].score < states[j].score
		}
		return states[i].tieKey() < states[j].tieKey()
	})
}

// dedupe removes duplicate partial mappings (same canonical fast-path key),
// keeping the first occurrence; mappings outside the key's domain are kept
// unconditionally. Distinct enumeration paths routinely reproduce the same
// (ordering, tile, unroll) state, and every duplicate would cost a full
// completion + evaluation in the fan-out.
func (sc *search) dedupe(ms []*mapping.Mapping) []*mapping.Mapping {
	if len(ms) < 2 {
		return ms
	}
	seen := make(map[cost.Key]struct{}, len(ms))
	out := ms[:0]
	for _, m := range ms {
		if k, ok := sc.evs[0].Key(m); ok {
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
		}
		out = append(out, m)
	}
	sc.ctr.Deduped.Add(uint64(len(ms) - len(out)))
	return out
}

// safeReport materializes m's full Report on ev, converting a panic in the
// cost model into an invalid report plus a *anytime.PanicError. Used
// wherever a single evaluation runs outside the evalAll worker pool.
func safeReport(ev *cost.Evaluator, m *mapping.Mapping) (rep cost.Report, err error) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "evaluate mapping", func() string { return reproMapping(m) }); e != nil {
			rep = cost.Report{EDP: math.Inf(1), EnergyPJ: math.Inf(1), Cycles: math.Inf(1), Invalid: e}
			err = e
		}
	}()
	return ev.Report(m), nil
}

// safeEvalFast is safeReport on the scalar path: one evaluation with the
// given scratch evaluator, panics contained.
func (sc *search) safeEvalFast(ev *cost.Evaluator, m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool, err error) {
	defer func() {
		if e := anytime.PanicErrorFrom(recover(), "evaluate mapping", func() string { return reproMapping(m) }); e != nil {
			edp, energyPJ, cycles, valid = math.Inf(1), math.Inf(1), math.Inf(1), false
			err = e
		}
	}()
	edp, energyPJ, cycles, valid = ev.EvaluateEDP(m)
	return edp, energyPJ, cycles, valid, nil
}

// finalReport materializes the full cost.Report — breakdowns, per-buffer
// accesses — for the mapping a search is about to return, on the search's
// own Session (the worker pool is idle by then, so the first scratch
// evaluator is free). The scalar path proved the mapping valid with the
// given scalars; if the report panics here (an injected probe fault, say),
// fall back to a Report synthesized from those scalars rather than losing
// the result.
func (sc *search) finalReport(m *mapping.Mapping, energyPJ, cycles float64) cost.Report {
	rep, err := safeReport(sc.evs[0], m)
	if err == nil {
		return rep
	}
	return cost.Report{Valid: true, EDP: energyPJ * cycles, EnergyPJ: energyPJ, Cycles: cycles}
}

// reproMapping serializes m for panic-repro messages: JSON (reloadable via
// serde.DecodeMapping) when possible, the human render otherwise.
func reproMapping(m *mapping.Mapping) string {
	if m == nil {
		return "<nil mapping>"
	}
	if data, err := serde.EncodeMapping(m); err == nil {
		return string(data)
	}
	return m.String()
}

// prune applies beam and alpha-beta selection to sorted states, reporting
// how many already-evaluated candidates the alpha-beta bound and the beam
// width discarded (these are post-evaluation cuts — subsets of the
// evaluated count, not part of the generated = pruned + deduped + evaluated
// flow identity).
//
// alphaSeed is the search-wide incumbent score carried in from previous
// steps (+Inf when none): the bound is the tighter of the seed and this
// step's own best, so a strong earlier level keeps pruning a weak later
// one. The best valid state of the step always survives regardless — the
// beam must never empty just because the whole step trails the incumbent.
func prune(states []state, opt Options, alphaSeed float64) (out []state, boundCut, beamCut int) {
	alpha := alphaSeed
	for _, s := range states {
		if math.IsInf(s.score, 1) {
			continue
		}
		if s.score < alpha {
			alpha = s.score
		}
		break
	}
	for _, s := range states {
		if math.IsInf(s.score, 1) {
			continue
		}
		if len(out) > 0 && s.score > alpha*opt.AlphaSlack {
			boundCut++ // alpha-beta: provably far from the incumbent
			continue
		}
		if len(out) >= opt.BeamWidth {
			beamCut++
			continue
		}
		out = append(out, s)
	}
	return out, boundCut, beamCut
}

// prunedAndCount is prune plus counter accounting, the form every search
// loop uses. The alpha seed is read from the shared atomic incumbent at the
// post-evaluation barrier, where its value is a deterministic function of
// the candidate flow (every score of the step has been published by the time
// evalAll joins its workers).
func (sc *search) prunedAndCount(states []state) []state {
	out, boundCut, beamCut := prune(states, sc.opt, sc.best.load())
	sc.ctr.PrunedBound.Add(uint64(boundCut))
	sc.ctr.PrunedBeam.Add(uint64(beamCut))
	return out
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
