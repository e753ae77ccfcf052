package analytic

import (
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/cost"
	"sunstone/internal/mapping"
	"sunstone/internal/order"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

func seedArches() map[string]*arch.Arch {
	return map[string]*arch.Arch{
		"conventional": arch.Conventional(),
		"simba":        arch.Simba(),
		"diannao":      arch.DianNao(),
		"tiny":         arch.Tiny(256),
		"tinyspatial":  arch.TinySpatial(4096, 1<<18, 8),
	}
}

func seedWorkloads() []*tensor.Workload {
	return []*tensor.Workload{
		workloads.Conv2D("conv", 4, 64, 64, 28, 28, 3, 3, 1, 1),
		workloads.Conv1D("conv1d", 16, 16, 28, 3),
		workloads.FC("fc", 16, 256, 256),
		workloads.MTTKRP("mttkrp", 128, 96, 64, 32),
		workloads.TTMc("ttmc", 64, 64, 64, 8),
	}
}

// TestSeedValidEverywhere: the seed is structurally valid and evaluates to a
// finite cost on every (workload, arch) preset pair.
func TestSeedValidEverywhere(t *testing.T) {
	for aname, a := range seedArches() {
		for _, w := range seedWorkloads() {
			ords, _ := order.Enumerate(w)
			m, err := Seed(w, a, ords)
			if err != nil {
				t.Errorf("%s/%s: %v", aname, w.Name, err)
				continue
			}
			if verr := m.Validate(); verr != nil {
				t.Errorf("%s/%s: seed invalid: %v", aname, w.Name, verr)
				continue
			}
			rep := cost.Evaluate(m)
			if !rep.Valid || rep.EDP <= 0 {
				t.Errorf("%s/%s: seed does not evaluate (valid=%t edp=%g)", aname, w.Name, rep.Valid, rep.EDP)
			}
		}
	}
}

// TestSeedDeterministic: same inputs, bit-identical mapping — the seed runs
// on the search driver and must not depend on map iteration order.
func TestSeedDeterministic(t *testing.T) {
	w := workloads.Conv2D("conv", 4, 64, 64, 28, 28, 3, 3, 1, 1)
	a := arch.Simba()
	ords, _ := order.Enumerate(w)
	first, err := Seed(w, a, ords)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		m, err := Seed(w, a, ords)
		if err != nil {
			t.Fatal(err)
		}
		if m.String() != first.String() {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i, m.String(), first.String())
		}
	}
}

// TestSeedBeatsTrivial: the seed must cost less than the everything-at-DRAM
// placement it replaces as the initial incumbent — otherwise it buys no
// alpha-beta tightening.
func TestSeedBeatsTrivial(t *testing.T) {
	w := workloads.Conv2D("conv", 4, 64, 64, 28, 28, 3, 3, 1, 1)
	for aname, a := range seedArches() {
		ords, _ := order.Enumerate(w)
		m, err := Seed(w, a, ords)
		if err != nil {
			t.Fatalf("%s: %v", aname, err)
		}
		seed := cost.Evaluate(m)
		if !seed.Valid {
			t.Fatalf("%s: seed invalid", aname)
		}
		// The trivial incumbent the seed replaces: every factor temporal at
		// the top level, canonical order everywhere.
		triv := mapping.New(w, a)
		top := len(a.Levels) - 1
		var o order.Ordering
		full := o.Complete(w)
		for l := range triv.Levels {
			triv.Levels[l].Order = append([]tensor.Dim(nil), full...)
		}
		for _, d := range w.Order {
			triv.Levels[top].Temporal[d] = w.Dims[d]
		}
		trivial := cost.Evaluate(triv)
		if trivial.Valid && seed.EDP >= trivial.EDP {
			t.Errorf("%s: seed EDP %g no better than trivial %g", aname, seed.EDP, trivial.EDP)
		}
	}
}

// TestSeedNoLevels: a degenerate arch errors instead of panicking.
func TestSeedNoLevels(t *testing.T) {
	w := workloads.Conv1D("conv1d", 4, 4, 8, 3)
	if _, err := Seed(w, &arch.Arch{Name: "empty"}, nil); err == nil {
		t.Fatal("empty arch must error")
	}
}
