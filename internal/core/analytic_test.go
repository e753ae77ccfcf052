package core

import (
	"testing"

	"sunstone/internal/arch"
)

// TestAnalyticalOffDeterministic: with the analytical layer explicitly off,
// repeated runs are bit-identical — the zero AnalyticalOptions restores the
// pre-analytic search exactly.
func TestAnalyticalOffDeterministic(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	opt := Options{Analytical: &AnalyticalOptions{}}
	first, err := Solve(Problem{Workload: w, Arch: arch.Simba()}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := Solve(Problem{Workload: w, Arch: arch.Simba()}, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.EDP != first.Report.EDP || res.Mapping.String() != first.Mapping.String() {
			t.Fatalf("run %d diverged: EDP %g vs %g", i, res.Report.EDP, first.Report.EDP)
		}
		if res.Stats.Evaluated != first.Stats.Evaluated {
			t.Fatalf("run %d evaluated %d vs %d", i, res.Stats.Evaluated, first.Stats.Evaluated)
		}
	}
}

// TestAnalyticalOnEqualOrBetter: the analytical layer must never worsen the
// found mapping, and on the headline Simba conv it must evaluate at least 30%
// fewer candidates — the PR's acceptance bar.
func TestAnalyticalOnEqualOrBetter(t *testing.T) {
	w := conv2D(t, 4, 64, 64, 28, 28, 3, 3)
	off, err := Solve(Problem{Workload: w, Arch: arch.Simba()}, Options{Analytical: &AnalyticalOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	on, err := Solve(Problem{Workload: w, Arch: arch.Simba()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if on.Report.EDP > off.Report.EDP {
		t.Errorf("analytical layer worsened EDP: %g vs %g", on.Report.EDP, off.Report.EDP)
	}
	if on.SeedEDP <= 0 {
		t.Errorf("seeded run reports no SeedEDP")
	}
	if on.SeedEDP < on.Report.EDP {
		t.Errorf("seed EDP %g below the final mapping's %g — seed should never beat the search", on.SeedEDP, on.Report.EDP)
	}
	evOn, evOff := on.Stats.Evaluated, off.Stats.Evaluated
	if evOn*10 > evOff*7 {
		t.Errorf("analytical layer evaluated %d of %d candidates; want at least a 30%% reduction", evOn, evOff)
	}
}

// TestAnalyticalDefaultsOn: the zero Options and DefaultOptions agree — both
// run the analytical layer — and the defaults report a seed EDP.
func TestAnalyticalDefaultsOn(t *testing.T) {
	def := DefaultOptions()
	if def.Analytical == nil || !def.Analytical.Seed || !def.Analytical.Bounds {
		t.Fatalf("DefaultOptions.Analytical = %+v, want both toggles on", def.Analytical)
	}
	w := conv1D(t, 16, 16, 28, 3)
	res, err := Solve(Problem{Workload: w, Arch: arch.Tiny(256)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SeedEDP <= 0 {
		t.Errorf("zero Options ran without the seed (SeedEDP = %g)", res.SeedEDP)
	}
}

// TestAnalyticalSeedEDPParity: seed on/off must land on the same final EDP
// across the preset architectures — tighter pruning may skip work, never
// quality.
func TestAnalyticalSeedEDPParity(t *testing.T) {
	w := conv2D(t, 1, 16, 16, 14, 14, 3, 3)
	for _, tc := range []struct {
		name string
		a    func() *arch.Arch
	}{
		{"conventional", arch.Conventional},
		{"simba", arch.Simba},
		{"diannao", arch.DianNao},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off, err := Solve(Problem{Workload: w, Arch: tc.a()}, Options{Analytical: &AnalyticalOptions{}})
			if err != nil {
				t.Fatal(err)
			}
			on, err := Solve(Problem{Workload: w, Arch: tc.a()}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if on.Report.EDP > off.Report.EDP {
				t.Errorf("EDP regressed with analytics on: %g vs %g", on.Report.EDP, off.Report.EDP)
			}
		})
	}
}

// TestSolveProblemAPI: the package-level and Engine entry points agree, the
// Engine caches by Problem content, and an empty Problem fails validation.
func TestSolveProblemAPI(t *testing.T) {
	w := conv1D(t, 16, 16, 28, 3)
	a := arch.Tiny(256)
	viaSolve, err := Solve(Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(0)
	viaEngine, err := eng.Solve(t.Context(), Problem{Workload: w, Arch: a}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if viaEngine.Report.EDP != viaSolve.Report.EDP {
		t.Fatalf("Engine.Solve diverged: %g vs %g", viaEngine.Report.EDP, viaSolve.Report.EDP)
	}
	if st := eng.Stats(); st.Compiles != 1 {
		t.Errorf("engine compiled %d problems, want 1", st.Compiles)
	}

	// A second Solve on the same Problem content must hit the cache.
	if _, err := eng.Solve(t.Context(), Problem{Workload: w, Arch: a}, Options{}); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Hits == 0 {
		t.Error("content-addressed cache never hit on a repeated Problem")
	}

	if _, err := Solve(Problem{}, Options{}); err == nil {
		t.Error("empty Problem must fail validation")
	}
}
