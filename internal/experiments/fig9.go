package experiments

import (
	"fmt"
	"strings"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/diannao"
	"sunstone/internal/dncompiler"
)

// Fig9Layer holds one layer's naive-vs-optimized comparison on the
// DianNao-like machine.
type Fig9Layer struct {
	Layer        string
	NaivePJ      float64
	OptimizedPJ  float64
	Instructions int64
	Passes       int64
	// Breakdown is the optimized execution's per-component energy.
	Breakdown map[string]float64
}

// Fig9Result aggregates the overhead analysis of Section V-D.
type Fig9Result struct {
	Layers []Fig9Layer
	// Totals over all layers.
	TotalNaivePJ     float64
	TotalOptimizedPJ float64
	TotalInstrs      int64
	// InstrFraction / ReorderFraction are the overheads as fractions of
	// the optimized total (paper: ~5% and ~0.2%).
	InstrFraction   float64
	ReorderFraction float64
	TotalBreakdown  map[string]float64
}

// Fig9 runs the tiling/unrolling overhead analysis: Sunstone maps each
// ResNet-18 layer onto the DianNao-like accelerator, the compiler lowers the
// mapping to 256-bit instructions, the simulator counts events, and the
// energies are compared against naive DRAM streaming (Figs. 9a/9b).
func Fig9(cfg Config) (Fig9Result, error) {
	a := arch.DianNao()
	res := Fig9Result{TotalBreakdown: map[string]float64{}}
	var instrPJ, reorderPJ float64

	for i, w := range resnetLayers(cfg.Quick, 1) {
		opt, err := core.Solve(core.Problem{Workload: w, Arch: a}, cfg.options(core.Options{}))
		if err != nil {
			return res, fmt.Errorf("%s: %v", w.Name, err)
		}
		sim := diannao.NewSim(diannao.Default())
		sum, err := dncompiler.Compile(opt.Mapping, sim.Exec)
		if err != nil {
			return res, fmt.Errorf("%s: compile: %v", w.Name, err)
		}
		if sim.Err() != nil {
			return res, fmt.Errorf("%s: simulate: %v", w.Name, sim.Err())
		}
		// Runtime reordering amortizes away for all layers but the first:
		// weights are reordered offline when the model is deployed, and
		// each layer's ofmap is written tile-by-tile directly in the next
		// layer's preferred layout, so only the network input pays a
		// runtime rearrangement (hence the paper's ~0.2% overhead).
		reorder := int64(0)
		if i == 0 {
			reorder = int64(w.Tensor(arch.Ifmap).Footprint(w.FullExtents()))
		}
		breakdown := sim.Stats.Energy(diannao.Default(), true, reorder)
		layer := Fig9Layer{
			Layer:        w.Name,
			NaivePJ:      diannao.Total(dncompiler.NaiveEnergy(w)),
			OptimizedPJ:  diannao.Total(breakdown),
			Instructions: sum.Instructions,
			Passes:       sum.Passes,
			Breakdown:    breakdown,
		}
		res.Layers = append(res.Layers, layer)
		res.TotalNaivePJ += layer.NaivePJ
		res.TotalOptimizedPJ += layer.OptimizedPJ
		res.TotalInstrs += sum.Instructions
		instrPJ += breakdown["Instr"]
		reorderPJ += breakdown["Reorder"]
		for k, v := range breakdown {
			res.TotalBreakdown[k] += v
		}
	}
	if res.TotalOptimizedPJ > 0 {
		res.InstrFraction = instrPJ / res.TotalOptimizedPJ
		res.ReorderFraction = reorderPJ / res.TotalOptimizedPJ
	}
	return res, nil
}

// RenderFig9 renders the overhead analysis.
func RenderFig9(r Fig9Result) string {
	var b strings.Builder
	b.WriteString("Fig. 9 — tiling and unrolling overhead analysis (ResNet-18 on DianNao-like)\n")
	fmt.Fprintf(&b, "  %-10s %-12s %-12s %-8s %-10s %s\n", "layer", "naive pJ", "optimized pJ", "ratio", "instrs", "passes")
	for _, l := range r.Layers {
		fmt.Fprintf(&b, "  %-10s %-12.3e %-12.3e %-8.2f %-10d %d\n",
			l.Layer, l.NaivePJ, l.OptimizedPJ, l.NaivePJ/l.OptimizedPJ, l.Instructions, l.Passes)
	}
	fmt.Fprintf(&b, "  TOTAL: naive %.3e pJ, optimized %.3e pJ -> %.2fx more energy-efficient\n",
		r.TotalNaivePJ, r.TotalOptimizedPJ, r.TotalNaivePJ/r.TotalOptimizedPJ)
	fmt.Fprintf(&b, "  overheads: instructions %.2f%%, data reordering %.2f%% of optimized energy (%d instrs total)\n",
		100*r.InstrFraction, 100*r.ReorderFraction, r.TotalInstrs)
	b.WriteString("  energy breakdown (Fig. 9b):\n")
	for _, k := range sortedKeys(r.TotalBreakdown) {
		fmt.Fprintf(&b, "    %-10s %12.3e pJ (%.1f%%)\n", k, r.TotalBreakdown[k],
			100*r.TotalBreakdown[k]/r.TotalOptimizedPJ)
	}
	return b.String()
}
