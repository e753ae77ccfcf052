package core

import (
	"context"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
)

// countingProbe marks a model uncacheable (any non-nil Probe does) while
// counting evaluations so the test can confirm it really ran.
type countingProbe struct{ n int }

func (p *countingProbe) BeforeEvaluate(m *mapping.Mapping) { p.n++ }

// TestEngineCompileOnce is the compile/execute split's core contract: two
// Solve calls for the same problem compile it once, and the warm call's
// result — mapping, score, candidate flow, space size — is indistinguishable
// from the cold call's.
func TestEngineCompileOnce(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)
	e := NewEngine(0)

	cold, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}

	s := e.Stats()
	if s.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1", s.Compiles)
	}
	if s.Hits != 1 {
		t.Errorf("Hits = %d, want 1", s.Hits)
	}
	if s.Entries != 1 {
		t.Errorf("Entries = %d, want 1", s.Entries)
	}

	if cold.Mapping.String() != warm.Mapping.String() {
		t.Errorf("warm mapping differs:\ncold:\n%s\nwarm:\n%s", cold.Mapping, warm.Mapping)
	}
	if cold.Report.EDP != warm.Report.EDP {
		t.Errorf("warm EDP %g != cold EDP %g", warm.Report.EDP, cold.Report.EDP)
	}
	if cold.SpaceSize != warm.SpaceSize {
		t.Errorf("warm SpaceSize %d != cold %d", warm.SpaceSize, cold.SpaceSize)
	}
	if cold.OrderingsConsidered != warm.OrderingsConsidered {
		t.Errorf("warm OrderingsConsidered %d != cold %d", warm.OrderingsConsidered, cold.OrderingsConsidered)
	}
	if cold.Stats != warm.Stats {
		t.Errorf("warm flow counters differ:\ncold: %+v\nwarm: %+v", cold.Stats, warm.Stats)
	}
}

// TestEngineResultMatchesPackagePath pins the Engine to the per-call
// package path: same problem, same options, same answer.
func TestEngineResultMatchesPackagePath(t *testing.T) {
	w := conv1D(t, 8, 8, 56, 3)
	a := arch.Tiny(256)

	direct, err := Solve(Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := NewEngine(0).Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if direct.Report.EDP != viaEngine.Report.EDP {
		t.Errorf("engine EDP %g != package-path EDP %g", viaEngine.Report.EDP, direct.Report.EDP)
	}
	if direct.Mapping.String() != viaEngine.Mapping.String() {
		t.Errorf("engine mapping differs from package-path mapping")
	}
}

// TestEngineEviction bounds the cache: with 8 shards and maxEntries 8, each
// shard holds one problem, so churning through many distinct shapes must
// evict and the entry count must stay within the bound.
func TestEngineEviction(t *testing.T) {
	e := NewEngine(8)
	for i := 0; i < 24; i++ {
		w := conv1D(t, 2, 2, 4+2*i, 3)
		if _, err := e.Solve(context.Background(), Problem{Workload: w, Arch: arch.Tiny(64)}, Options{}); err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
	}
	s := e.Stats()
	if s.Entries > 8 {
		t.Errorf("Entries = %d, want <= 8", s.Entries)
	}
	if s.Evictions == 0 {
		t.Error("expected evictions after churning 24 shapes through an 8-entry cache")
	}
	if s.Compiles != 24 {
		t.Errorf("Compiles = %d, want 24 (all shapes distinct)", s.Compiles)
	}
}

// TestEngineProbeBypassesCache: a fault-injection probe is opaque state the
// content key cannot capture, so probe-carrying models compile fresh per
// call and never populate the cache.
func TestEngineProbeBypassesCache(t *testing.T) {
	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(64)
	e := NewEngine(0)
	probe := &countingProbe{}
	opt := Options{Model: cost.Model{SlidingReuse: true, Probe: probe}}

	for i := 0; i < 2; i++ {
		if _, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, opt); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Compiles != 2 {
		t.Errorf("Compiles = %d, want 2 (probe models are uncacheable)", s.Compiles)
	}
	if s.Hits != 0 || s.Entries != 0 {
		t.Errorf("probe model must not touch the cache: hits %d, entries %d", s.Hits, s.Entries)
	}
	if probe.n == 0 {
		t.Error("probe never fired")
	}
}

// TestEngineConcurrentSameProblem races many goroutines at one cold problem:
// the singleflight gate must compile exactly once and everyone must get the
// same answer.
func TestEngineConcurrentSameProblem(t *testing.T) {
	w := conv1D(t, 4, 4, 8, 3)
	a := arch.Tiny(64)
	e := NewEngine(0)

	const n = 8
	edps := make([]float64, n)
	errs := make([]error, n)
	done := make(chan int, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			res, err := e.Solve(context.Background(), Problem{Workload: w, Arch: a}, Options{})
			edps[i], errs[i] = res.Report.EDP, err
			done <- i
		}(i)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if edps[i] != edps[0] {
			t.Errorf("goroutine %d EDP %g != %g", i, edps[i], edps[0])
		}
	}
	if s := e.Stats(); s.Compiles != 1 {
		t.Errorf("Compiles = %d, want 1 (singleflight)", s.Compiles)
	}
}

// TestEngineStatsPartitionPerCall: on a shared Engine the per-call Result
// must still satisfy the counter-flow identity independently — counters are
// per-search registries, not Engine-global accumulators.
func TestEngineStatsPartitionPerCall(t *testing.T) {
	e := NewEngine(0)
	a := arch.Tiny(128)
	for i, w := range []*struct{ k, c, p int }{{4, 4, 8}, {8, 8, 28}, {4, 4, 8}} {
		res, err := e.Solve(context.Background(), Problem{Workload: conv1D(t, w.k, w.c, w.p, 3), Arch: a}, Options{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		st := res.Stats
		if got := st.Pruned() + st.Deduped + st.Evaluated + st.Skipped; got != st.Generated {
			t.Errorf("call %d: flow identity broken: pruned+deduped+evaluated+skipped = %d, generated = %d",
				i, got, st.Generated)
		}
		if st.Generated == 0 {
			t.Errorf("call %d: empty stats — counters not attributed to this call", i)
		}
	}
}

// TestDirectionParity: with pruning effectively disabled (exhaustive beam,
// no alpha cut, no polish), the bottom-up and top-down sequencers walk the
// same mapping space from opposite ends and must land on the same best EDP.
// This is the acceptance test for the unified level stepper — if the two
// expansion hooks disagreed about completion or accounting, their optima
// would drift apart.
func TestDirectionParity(t *testing.T) {
	archs := []struct {
		name string
		a    *arch.Arch
	}{
		{"tiny", arch.Tiny(64)},
		{"tiny-spatial", arch.TinySpatial(48, 1<<12, 4)},
	}
	opt := func(d Direction) Options {
		return Options{
			Direction:          d,
			BeamWidth:          maxBeamWidth,
			AlphaSlack:         maxAlphaSlack,
			NoPolish:           true,
			TilesPerStep:       64,
			UnrollsPerStep:     64,
			TopDownVisitBudget: 50_000_000,
		}
	}
	for _, ac := range archs {
		t.Run(ac.name, func(t *testing.T) {
			w := conv1D(t, 4, 4, 8, 3)
			up, err := Solve(Problem{Workload: w, Arch: ac.a}, opt(BottomUp))
			if err != nil {
				t.Fatal(err)
			}
			down, err := Solve(Problem{Workload: w, Arch: ac.a}, opt(TopDown))
			if err != nil {
				t.Fatal(err)
			}
			if !up.Report.Valid || !down.Report.Valid {
				t.Fatalf("invalid result: up %v, down %v", up.Report.Invalid, down.Report.Invalid)
			}
			if up.Report.EDP != down.Report.EDP {
				t.Errorf("direction parity broken: bottom-up EDP %g != top-down EDP %g\nup:\n%s\ndown:\n%s",
					up.Report.EDP, down.Report.EDP, up.Mapping, down.Mapping)
			}
			t.Logf("parity EDP %g (up space %d, down space %d)", up.Report.EDP, up.SpaceSize, down.SpaceSize)
		})
	}
}

// TestEngineInvalidInputs pins the Engine's error path to the per-call
// path's: validation happens before keying, so malformed problems fail the
// same way and never pollute the cache.
func TestEngineInvalidInputs(t *testing.T) {
	e := NewEngine(0)
	w := conv1D(t, 4, 4, 8, 3)
	bad := &arch.Arch{} // no levels
	if _, err := e.Solve(context.Background(), Problem{Workload: w, Arch: bad}, Options{}); err == nil {
		t.Error("expected validation error for empty arch")
	}
	if s := e.Stats(); s.Entries != 0 || s.Compiles != 0 {
		t.Errorf("invalid input must not populate the cache: %+v", s)
	}
}
