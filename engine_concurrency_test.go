package sunstone_test

import (
	"context"
	"sync"
	"testing"

	"sunstone"
)

// TestEngineSharedAcrossGoroutines hammers one Engine from many goroutines
// with a mix of repeating workload shapes — the serving pattern the Engine
// exists for. Run under -race (make race includes this package) it checks
// the whole compiled-artifact sharing story: the sharded cache, the
// singleflight compile gate, the shared cost session, and the memoized
// level expansions. Each call's Result must stand alone: per-shape
// deterministic EDP, and flow counters that satisfy the partition identity
// independently of the concurrent calls sharing the compiled problem.
func TestEngineSharedAcrossGoroutines(t *testing.T) {
	eng := sunstone.NewEngine()
	a := sunstone.Tiny(128)
	shapes := []*sunstone.Workload{
		sunstone.Conv1D("s0", 4, 4, 8, 3),
		sunstone.Conv1D("s1", 8, 4, 14, 3),
		sunstone.Conv1D("s2", 4, 8, 7, 3),
	}

	const goroutines = 8
	const callsPerGoroutine = 6

	var mu sync.Mutex
	bestEDP := make(map[string]float64)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for c := 0; c < callsPerGoroutine; c++ {
				w := shapes[(g+c)%len(shapes)]
				res, err := eng.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
				if err != nil {
					t.Errorf("goroutine %d call %d (%s): %v", g, c, w.Name, err)
					return
				}
				if !res.Report.Valid {
					t.Errorf("goroutine %d call %d (%s): invalid: %v", g, c, w.Name, res.Report.Invalid)
					return
				}
				// Per-call stats must partition on their own even though the
				// compiled problem (session, expansions) is shared.
				st := res.Stats
				if got := st.Pruned() + st.Deduped + st.Evaluated + st.Skipped; got != st.Generated {
					t.Errorf("goroutine %d call %d (%s): flow identity broken: %d != generated %d",
						g, c, w.Name, got, st.Generated)
					return
				}
				mu.Lock()
				if prev, ok := bestEDP[w.Name]; ok && prev != res.Report.EDP {
					t.Errorf("%s: nondeterministic EDP under sharing: %g then %g", w.Name, prev, res.Report.EDP)
				}
				bestEDP[w.Name] = res.Report.EDP
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()

	s := eng.Stats()
	if s.Compiles != uint64(len(shapes)) {
		t.Errorf("Compiles = %d, want %d (one per distinct shape)", s.Compiles, len(shapes))
	}
	if want := uint64(goroutines*callsPerGoroutine - len(shapes)); s.Hits != want {
		t.Errorf("Hits = %d, want %d", s.Hits, want)
	}
}

// TestEngineScheduleNetwork routes a small network through one Engine and
// checks that repeated layer shapes hit the compilation cache rather than
// recompiling per layer.
func TestEngineScheduleNetwork(t *testing.T) {
	eng := sunstone.NewEngine()
	net, err := sunstone.FromConvShapes("head", sunstone.ResNet18Layers[:2], 1, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	opt := sunstone.NetworkOptions{MaxGroup: 1}
	sched, err := eng.ScheduleNetwork(context.Background(), net, sunstone.Conventional(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Layers) != 3 {
		t.Fatalf("layers = %d, want one per chain position", len(sched.Layers))
	}
	for _, l := range sched.Layers {
		if !l.Result.Report.Valid {
			t.Fatalf("%s invalid: %v", l.Layer, l.Result.Report.Invalid)
		}
	}
	s := eng.Stats()
	if s.Compiles == 0 || s.Compiles > 2 {
		t.Errorf("Compiles = %d, want 1..2 (distinct layer shapes only)", s.Compiles)
	}

	// Rescheduling the same network on the same Engine is fully warm.
	if _, err := eng.ScheduleNetwork(context.Background(), net, sunstone.Conventional(), opt); err != nil {
		t.Fatal(err)
	}
	if s2 := eng.Stats(); s2.Compiles != s.Compiles {
		t.Errorf("warm reschedule recompiled: %d -> %d", s.Compiles, s2.Compiles)
	}
}
