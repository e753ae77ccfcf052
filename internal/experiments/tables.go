package experiments

import (
	"fmt"
	"strings"

	"sunstone/internal/arch"
	"sunstone/internal/baselines/fixed"
	"sunstone/internal/core"
	"sunstone/internal/spacesize"
	"sunstone/internal/workloads"
)

// Table1 renders the per-tool mapping-space size comparison for the
// Inception-v3 example layer (Table I).
func Table1() string {
	w := workloads.InceptionExampleLayer.Inference(1)
	ests := spacesize.Table1(w, arch.Conventional())
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — mapping-space sizes, Inception-v3 layer %s, conventional accelerator\n",
		workloads.InceptionExampleLayer.Name)
	fmt.Fprintf(&b, "  %-14s %-9s %-8s %-10s %s\n", "tool", "tile dims", "unroll", "space", "pruning")
	for _, e := range ests {
		fmt.Fprintf(&b, "  %-14s %-9d %-8d %-10.2e %s\n", e.Tool, e.TemporalDims, e.UnrollDims, e.Size, e.Note)
	}
	return b.String()
}

// Table3 renders the inferred reuse of the 1D-convolution running example
// (Table III).
func Table3() string {
	w := workloads.Conv1D("conv1d", 4, 4, 7, 3)
	return "Table III — inferred reuse, 1D convolution\n" + w.ReuseTable()
}

// Table6Row is one row of the optimization-order study.
type Table6Row struct {
	InterLevel string
	IntraLevel string
	SpaceSize  int
	GeomeanEDP float64
}

// Table6 studies the effect of optimization order (Table VI): the three
// intra-level orders bottom-up, plus the top-down inter-level order, over
// ResNet-18 convolution layers on the Eyeriss-like conventional machine.
func Table6(cfg Config) []Table6Row {
	a := arch.Conventional()
	ws := resnetLayers(cfg.Quick, 1)
	budget := 400_000
	if cfg.Quick {
		budget = 60_000
	}

	configs := []struct {
		name string
		opt  core.Options
	}{
		{"bottom-up/unrolling->tiling->ordering", core.Options{Strategy: core.UnrollTileOrder}},
		{"bottom-up/tiling->unrolling->ordering", core.Options{Strategy: core.TileUnrollOrder}},
		{"bottom-up/ordering->tiling->unrolling", core.Options{Strategy: core.OrderTileUnroll}},
		{"top-down/unrolling->tiling->ordering", core.Options{Direction: core.TopDown, TopDownVisitBudget: budget}},
	}

	var rows []Table6Row
	for _, c := range configs {
		space := 0
		var edps []float64
		for _, w := range ws {
			res, err := core.Solve(core.Problem{Workload: w, Arch: a}, cfg.options(c.opt))
			if err != nil {
				continue
			}
			space += res.SpaceSize
			if res.Report.Valid {
				edps = append(edps, res.Report.EDP)
			}
		}
		parts := strings.SplitN(c.name, "/", 2)
		rows = append(rows, Table6Row{
			InterLevel: parts[0], IntraLevel: parts[1],
			SpaceSize: space, GeomeanEDP: Geomean(edps),
		})
	}
	return rows
}

// RenderTable6 renders the optimization-order rows.
func RenderTable6(rows []Table6Row) string {
	var b strings.Builder
	b.WriteString("Table VI — effect of optimization order (ResNet-18, Eyeriss-like)\n")
	fmt.Fprintf(&b, "  %-11s %-34s %-12s %s\n", "inter-level", "intra-level", "space size", "geomean EDP")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-11s %-34s %-12d %.3e\n", r.InterLevel, r.IntraLevel, r.SpaceSize, r.GeomeanEDP)
	}
	return b.String()
}

// SpreadRow is one dataflow's result in the motivation study.
type SpreadRow struct {
	Dataflow string
	EDP      float64
	EnergyPJ float64
	Valid    bool
}

// DataflowSpread reproduces the paper's motivating observation (Section I,
// citing Timeloop): dataflow choice alone spans an order of magnitude or
// more in efficiency. It runs the three classic fixed dataflows and the
// searched Sunstone mapping on one ResNet-18 layer.
func DataflowSpread(cfg Config) []SpreadRow {
	w := workloads.ResNet18[1].Inference(4)
	a := arch.Conventional()
	var rows []SpreadRow
	res, err := core.Solve(core.Problem{Workload: w, Arch: a}, cfg.options(core.Options{}))
	if err == nil {
		rows = append(rows, SpreadRow{Dataflow: "searched (Sunstone)", EDP: res.Report.EDP,
			EnergyPJ: res.Report.EnergyPJ, Valid: res.Report.Valid})
	}
	for _, s := range []fixed.Style{fixed.WeightStationary, fixed.OutputStationary, fixed.InputStationary} {
		r := fixed.New(s).Map(w, a)
		rows = append(rows, SpreadRow{Dataflow: s.String(), EDP: r.Report.EDP,
			EnergyPJ: r.Report.EnergyPJ, Valid: r.Valid})
	}
	return rows
}

// RenderSpread renders the dataflow-spread study.
func RenderSpread(rows []SpreadRow) string {
	var b strings.Builder
	b.WriteString("Dataflow spread — ResNet-18 conv2_x (batch 4), conventional accelerator\n")
	var base float64
	for _, r := range rows {
		if r.Dataflow == "searched (Sunstone)" {
			base = r.EDP
		}
	}
	fmt.Fprintf(&b, "  %-22s %-12s %-12s %s\n", "dataflow", "EDP", "energy pJ", "vs searched")
	for _, r := range rows {
		if !r.Valid {
			fmt.Fprintf(&b, "  %-22s INVALID\n", r.Dataflow)
			continue
		}
		fmt.Fprintf(&b, "  %-22s %-12.3e %-12.3e %.2fx\n", r.Dataflow, r.EDP, r.EnergyPJ, r.EDP/base)
	}
	return b.String()
}
