package main

import (
	"runtime"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/obs"
)

// layerAcc accumulates the per-layer measurements of a traced run. Self
// times and counts are reported per operation of the workload: one Solve on
// solve-cold, one network schedule on network-fused, one job on service-mix.
type layerAcc struct {
	self     map[string]time.Duration
	wall     time.Duration
	tracedOp int

	stats    obs.SearchStats
	seedGaps []float64
}

func newLayerAcc() *layerAcc { return &layerAcc{self: map[string]time.Duration{}} }

// addOp adds one traced operation's self times and wall time.
func (a *layerAcc) addOp(self map[string]time.Duration, wall time.Duration) {
	for k, v := range self {
		a.self[k] += v
	}
	a.wall += wall
	a.tracedOp++
}

// addSearch adds one search's counters and its EDP-to-seed gap.
func (a *layerAcc) addSearch(res core.Result) {
	a.stats = addStats(a.stats, res.Stats)
	if res.SeedEDP > 0 && res.Report.EDP > 0 {
		a.seedGaps = append(a.seedGaps, res.Report.EDP/res.SeedEDP)
	}
}

func addStats(a, b obs.SearchStats) obs.SearchStats {
	a.Generated += b.Generated
	a.Evaluated += b.Evaluated
	a.PrunedOrdering += b.PrunedOrdering
	a.PrunedTiling += b.PrunedTiling
	a.PrunedUnrolling += b.PrunedUnrolling
	a.BoundPruned += b.BoundPruned
	a.EvalCacheHits += b.EvalCacheHits
	a.EvalCacheMisses += b.EvalCacheMisses
	return a
}

// report sets the span and counter metrics; ops is how many operations the
// counters were summed over.
func (a *layerAcc) report(r *run, ops int) {
	if a.tracedOp > 0 {
		per := func(d time.Duration) float64 { return ms(d) / float64(a.tracedOp) }
		r.set("order.self_ms", per(a.self[kindOrder]))
		r.set("core.enumerate_self_ms", per(a.self[kindEnumerate]))
		r.set("cost.evaluate_self_ms", per(a.self[kindEvaluate]))
		r.set("core.polish_self_ms", per(a.self[kindPolish]))
		r.set("core.other_self_ms", per(a.self[kindOther]))
		r.set("fusion.self_ms", per(a.self[kindFuse]))
		r.set("core.op_wall_ms", per(a.wall))
	}
	if ops > 0 {
		n := float64(ops)
		r.set("core.generated", float64(a.stats.Generated)/n)
		r.set("core.pruned_ordering", float64(a.stats.PrunedOrdering)/n)
		r.set("core.pruned_tiling", float64(a.stats.PrunedTiling)/n)
		r.set("core.pruned_unrolling", float64(a.stats.PrunedUnrolling)/n)
		r.set("cost.evaluated", float64(a.stats.Evaluated)/n)
		r.set("analytic.bound_pruned", float64(a.stats.BoundPruned)/n)
	}
	if lookups := a.stats.EvalCacheHits + a.stats.EvalCacheMisses; lookups > 0 {
		r.set("cost.eval_hit_ratio", float64(a.stats.EvalCacheHits)/float64(lookups))
	}
	r.set("analytic.seed_gap", geomean(a.seedGaps))
}

// reportEngine sets the Engine cache metrics. Hits also count the program's
// own Engine.Session lookups (the service's result audit makes one per job),
// so the ratio hits ÷ (hits + compiles) is reported, not a count of
// operations served warm.
func reportEngine(r *run, st core.EngineStats) {
	r.set("engine.compiles", float64(st.Compiles))
	r.set("engine.hits", float64(st.Hits))
	if st.Hits+st.Compiles > 0 {
		r.set("engine.hit_ratio", float64(st.Hits)/float64(st.Hits+st.Compiles))
	}
}

// allocMeter counts heap allocations over untraced operations.
type allocMeter struct {
	before         runtime.MemStats
	mallocs, bytes uint64
	ops            int
}

func (m *allocMeter) start() { runtime.ReadMemStats(&m.before) }

func (m *allocMeter) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	m.mallocs += after.Mallocs - m.before.Mallocs
	m.bytes += after.TotalAlloc - m.before.TotalAlloc
	m.ops += ops
}

func (m *allocMeter) report(r *run) {
	if m.ops == 0 {
		return
	}
	r.set("core.allocs_per_solve", float64(m.mallocs)/float64(m.ops))
	r.set("core.alloc_mb_per_solve", float64(m.bytes)/float64(m.ops)/(1<<20))
}

// reportEvalTiming times the cost model on final mappings: the fast path
// without its memo (Evaluator.EvaluateEDPUncached) and the full audit
// evaluation (cost.Evaluate). Each is the median over mappings of the mean
// per-call time.
func reportEvalTiming(r *run, ms []*mapping.Mapping) {
	const fastCalls, fullCalls = 200, 20
	var fast, full []float64
	for _, m := range ms {
		ev := cost.Default.NewSession(m.Workload, m.Arch).NewEvaluator()
		t0 := time.Now()
		for i := 0; i < fastCalls; i++ {
			ev.EvaluateEDPUncached(m)
		}
		fast = append(fast, float64(time.Since(t0).Nanoseconds())/fastCalls)
		t0 = time.Now()
		for i := 0; i < fullCalls; i++ {
			cost.Evaluate(m)
		}
		full = append(full, float64(time.Since(t0).Nanoseconds())/fullCalls)
	}
	r.set("cost.eval_ns", median(fast))
	r.set("cost.audit_ns", median(full))
}

// reportCompile times Problem.Compile once per problem (the compile an
// Engine pays on a first sighting) and sets the mean.
func reportCompile(r *run, probs []core.Problem) error {
	var total time.Duration
	for _, p := range probs {
		t0 := time.Now()
		if _, err := p.Compile(); err != nil {
			return err
		}
		total += r.spans.add("problem.compile", t0)
	}
	if len(probs) > 0 {
		r.set("core.compile_ms", ms(total)/float64(len(probs)))
	}
	return nil
}

// reportOverhead sets trace.overhead_s: the median traced pass minus the
// median untraced pass of the same work.
func reportOverhead(r *run, traced, untraced []float64) {
	if len(traced) > 0 && len(untraced) > 0 {
		r.set("trace.overhead_s", median(traced)-median(untraced))
	}
}
