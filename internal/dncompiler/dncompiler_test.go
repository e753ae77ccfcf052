package dncompiler

import (
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/diannao"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// handMapping builds a small conv mapping on the DianNao machine by hand:
// on-chip tile K16 C16 (spatially unrolled across the NFU) x P4 Q4 R3 S3,
// DRAM loops over the rest with C outermost-reduction inner.
func handMapping(t *testing.T) *mapping.Mapping {
	t.Helper()
	w := workloads.Conv2D("c", 1, 32, 32, 8, 8, 3, 3, 1, 1)
	a := arch.DianNao()
	m := mapping.New(w, a)
	m.Levels[0].Spatial = map[tensor.Dim]int{"K": 16, "C": 16}
	m.Levels[0].Temporal = map[tensor.Dim]int{"P": 4, "Q": 4, "R": 3, "S": 3}
	m.Levels[1].Temporal = map[tensor.Dim]int{"K": 2, "C": 2, "P": 2, "Q": 2}
	m.Levels[1].Order = []tensor.Dim{"C", "K", "P", "Q"} // C innermost: psum reuse
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompileRunsOnSimulator(t *testing.T) {
	m := handMapping(t)
	sim := diannao.NewSim(diannao.Default())
	sum, err := Compile(m, sim.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Err() != nil {
		t.Fatalf("simulator rejected the program: %v", sim.Err())
	}
	if sum.Passes != 16 {
		t.Errorf("passes = %d, want 16 (2*2*2*2 DRAM iterations)", sum.Passes)
	}
	// All MACs executed exactly once.
	if sim.Stats.MACs != m.Workload.MACs() {
		t.Errorf("MACs = %d, want %d", sim.Stats.MACs, m.Workload.MACs())
	}
	if sum.Instructions != sim.Stats.Instructions {
		t.Error("instruction counts disagree")
	}
}

func TestTemporalReuseSkipsLoads(t *testing.T) {
	m := handMapping(t)
	sim := diannao.NewSim(diannao.Default())
	if _, err := Compile(m, sim.Exec); err != nil {
		t.Fatal(err)
	}
	// With C innermost at DRAM, the ofmap tile stays resident across the 2
	// C iterations: ofmap DRAM writes = ofmap size (each tile stored once).
	ofmWords := int64(m.Workload.Tensor(arch.Ofmap).Footprint(m.Workload.FullExtents()))
	if sim.Stats.DRAMWrites != ofmWords {
		t.Errorf("ofmap DRAM writes = %d, want %d (full psum reuse)", sim.Stats.DRAMWrites, ofmWords)
	}
}

func TestPsumReloadWhenReuseDestroyed(t *testing.T) {
	m := handMapping(t)
	m.Levels[1].Order = []tensor.Dim{"K", "P", "Q", "C"} // C outermost: revisit tiles
	sim := diannao.NewSim(diannao.Default())
	if _, err := Compile(m, sim.Exec); err != nil {
		t.Fatal(err)
	}
	ofmWords := int64(m.Workload.Tensor(arch.Ofmap).Footprint(m.Workload.FullExtents()))
	if sim.Stats.DRAMWrites <= ofmWords {
		t.Error("destroying psum reuse must add writeback traffic")
	}
	if sim.Stats.BufReads[diannao.NBout] == 0 {
		t.Error("revisited output tiles must reload partials")
	}
}

func TestInstructionsFarFewerThanMACs(t *testing.T) {
	// The SIMD property of Section V-D: instructions ~ passes, MACs ~ 1e6.
	m := handMapping(t)
	sim := diannao.NewSim(diannao.Default())
	sum, err := Compile(m, sim.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Instructions*100 > sim.Stats.MACs {
		t.Errorf("instruction overhead too high: %d instrs for %d MACs", sum.Instructions, sim.Stats.MACs)
	}
}

func TestReorderWordsForTiledOperands(t *testing.T) {
	m := handMapping(t)
	sum, err := Compile(m, func(diannao.Instr) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	w := m.Workload
	want := int64(w.Tensor(arch.Ifmap).Footprint(w.FullExtents()) + w.Tensor(arch.Weight).Footprint(w.FullExtents()))
	if sum.ReorderWords != want {
		t.Errorf("reorder words = %d, want %d (both inputs tiled)", sum.ReorderWords, want)
	}
}

func TestCompileOptimizedMappingEndToEnd(t *testing.T) {
	// The full Section V-D pipeline: Sunstone finds the mapping, the
	// compiler lowers it, the simulator runs it, and the optimized energy
	// beats naive streaming.
	w := workloads.Conv2D("c", 1, 64, 64, 14, 14, 3, 3, 1, 1)
	a := arch.DianNao()
	res, err := core.Solve(core.Problem{Workload: w, Arch: a}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sim := diannao.NewSim(diannao.Default())
	sum, err := Compile(res.Mapping, sim.Exec)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Err() != nil {
		t.Fatalf("optimized mapping does not fit the machine: %v", sim.Err())
	}
	opt := diannao.Total(sim.Stats.Energy(diannao.Default(), true, sum.ReorderWords))
	naive := diannao.Total(NaiveEnergy(w))
	if opt >= naive {
		t.Errorf("tiled+unrolled (%.3e pJ) must beat naive streaming (%.3e pJ)", opt, naive)
	}
	t.Logf("naive/optimized energy ratio: %.2fx, %d instructions, %d passes",
		naive/opt, sum.Instructions, sum.Passes)
}

func TestCompileRejectsWrongShape(t *testing.T) {
	w := workloads.MTTKRP("m", 8, 8, 8, 8)
	m := mapping.New(w, arch.DianNao())
	if _, err := Compile(m, func(diannao.Instr) error { return nil }); err == nil {
		t.Error("non-conv workloads must be rejected (no ifmap/weight/ofmap)")
	}
	w2 := workloads.Conv1D("c", 4, 4, 8, 3)
	m2 := mapping.New(w2, arch.Conventional())
	if _, err := Compile(m2, func(diannao.Instr) error { return nil }); err == nil {
		t.Error("non-DianNao architectures must be rejected")
	}
}

func TestNaiveEnergyComponents(t *testing.T) {
	w := workloads.Conv2D("c", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	e := NaiveEnergy(w)
	if e["MAC"] <= 0 || e["DRAM"] <= 0 {
		t.Error("naive energy must have MAC and DRAM components")
	}
	if len(e) != 2 {
		t.Errorf("naive execution spends energy only on MACs and DRAM, got %v", e)
	}
	if e["DRAM"] <= e["MAC"] {
		t.Error("naive streaming must be DRAM-dominated")
	}
}
