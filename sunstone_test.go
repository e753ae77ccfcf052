package sunstone_test

import (
	"context"
	"fmt"
	"testing"

	"sunstone"
)

func TestPublicAPIQuickstart(t *testing.T) {
	w := sunstone.Conv2D("layer", 1, 32, 32, 14, 14, 3, 3, 1, 1)
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.Conventional()}, sunstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid || res.Report.EDP <= 0 {
		t.Fatalf("bad result: %+v", res.Report)
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPICustomWorkload(t *testing.T) {
	// Users can describe any Table II-style kernel directly, e.g. the
	// paper's 1D convolution from Section IV.
	w, err := sunstone.NewWorkload("conv1d",
		map[sunstone.Dim]int{"K": 4, "C": 4, "P": 7, "R": 3},
		&sunstone.Tensor{Name: "ifmap", Axes: []sunstone.Axis{sunstone.Win("P", 1, "R", 1), sunstone.A("C")}},
		&sunstone.Tensor{Name: "weight", Axes: []sunstone.Axis{sunstone.A("K"), sunstone.A("C"), sunstone.A("R")}},
		&sunstone.Tensor{Name: "ofmap", Axes: []sunstone.Axis{sunstone.A("K"), sunstone.A("P")}, Output: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.Tiny(64)}, sunstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
}

func TestPublicAPIHandMappingEvaluate(t *testing.T) {
	w := sunstone.Conv1D("c", 4, 4, 14, 3)
	m := sunstone.NewMapping(w, sunstone.Tiny(4096))
	m.Levels[0].Temporal = map[sunstone.Dim]int{"P": 7, "K": 2, "C": 2, "R": 3}
	m.Levels[1].Temporal = map[sunstone.Dim]int{"P": 2, "K": 2, "C": 2}
	m.Levels[1].Order = []sunstone.Dim{"C", "K", "P"}
	rep := sunstone.Evaluate(m)
	if !rep.Valid {
		t.Fatalf("invalid: %v", rep.Invalid)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	w := sunstone.Conv2D("layer", 1, 16, 16, 14, 14, 3, 3, 1, 1)
	for _, bl := range []sunstone.BaselineMapper{
		sunstone.DMazeFast(), sunstone.DMazeSlow(), sunstone.Interstellar(),
	} {
		r := bl.Map(w, sunstone.Conventional())
		if r.Mapping == nil && r.InvalidReason == "" {
			t.Errorf("%s: no mapping and no reason", bl.Name())
		}
	}
	r := sunstone.CoSA().Map(w, sunstone.Simba())
	if r.Evaluated > 20 {
		t.Error("CoSA must be one-shot (constant permutation variants only)")
	}
}

func TestLayerTablesExported(t *testing.T) {
	if len(sunstone.ResNet18Layers) == 0 || len(sunstone.InceptionV3Layers) == 0 {
		t.Fatal("layer tables missing")
	}
	w := sunstone.ResNet18Layers[0].Inference(16)
	if w.Dims["N"] != 16 {
		t.Error("batch not applied")
	}
}

func ExampleSolve() {
	w := sunstone.Conv1D("example", 4, 4, 14, 3)
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.Tiny(64)}, sunstone.Options{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("valid:", res.Report.Valid)
	// Output: valid: true
}

func TestFacadeNamesAndObjectives(t *testing.T) {
	if sunstone.TimeloopFast().Name() != "TL-fast" || sunstone.TimeloopSlow().Name() != "TL-slow" {
		t.Error("timeloop facade names")
	}
	if sunstone.DMazeFast().Name() != "dMaze-fast" || sunstone.Interstellar().Name() != "INTER" {
		t.Error("baseline facade names")
	}
	for _, o := range []sunstone.Objective{
		sunstone.MinEDP, sunstone.MinEnergy, sunstone.MinDelay, sunstone.MinED2P,
	} {
		if o.String() == "" {
			t.Error("objective string")
		}
	}
}

func TestFacadeDianNaoPipeline(t *testing.T) {
	w := sunstone.Conv2D("c", 1, 32, 32, 8, 8, 3, 3, 1, 1)
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.DianNao()}, sunstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := sunstone.RunOnDianNao(res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	if run.Instructions <= 0 || run.MACs != w.MACs() {
		t.Errorf("bad run: %+v", run)
	}
	naive := sunstone.NaiveDianNaoEnergy(w)
	if run.TotalEnergyPJ() >= naive["MAC"]+naive["DRAM"] {
		t.Error("optimized execution should beat naive streaming")
	}
}

func TestFacadeObjectiveOptimize(t *testing.T) {
	w := sunstone.Conv2D("c", 1, 16, 16, 8, 8, 3, 3, 1, 1)
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.TinySpatial(512, 1<<16, 4)}, sunstone.Options{
		Objective: sunstone.MinEnergy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
}

func TestExtraBaselines(t *testing.T) {
	w := sunstone.Conv2D("c", 1, 16, 16, 8, 8, 3, 3, 1, 1)
	a := sunstone.Conventional()
	for _, bl := range []sunstone.BaselineMapper{
		sunstone.Marvel(), sunstone.WeightStationary(),
		sunstone.OutputStationary(), sunstone.InputStationary(),
	} {
		r := bl.Map(w, a)
		if r.Mapping == nil && r.InvalidReason == "" {
			t.Errorf("%s: no mapping and no reason", bl.Name())
		}
	}
}

func TestParseWorkloadFacade(t *testing.T) {
	w, err := sunstone.ParseWorkload(`
		dimensions = {K:4, C:4, P:7, R:3}
		tensor_description = {
			operand1 = [C, (P, R)],
			operand2 = [K, C, R],
			output = [K, P]
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: sunstone.Tiny(64)}, sunstone.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Valid {
		t.Fatalf("invalid: %v", res.Report.Invalid)
	}
}

func TestScheduleNetwork(t *testing.T) {
	repeats := []int{1, 4, 1}
	net, err := sunstone.FromConvShapes("resnet18-head", sunstone.ResNet18Layers[:3], 1, repeats)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := sunstone.ScheduleNetwork(context.Background(), net, sunstone.Conventional(),
		sunstone.NetworkOptions{MaxGroup: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Layers) != 6 {
		t.Fatalf("layers = %d, want one per chain position", len(sched.Layers))
	}
	// Totals cover every executed position: repeats count once each.
	var wantE float64
	for _, l := range sched.Layers {
		if !l.Result.Report.Valid {
			t.Fatalf("%s invalid", l.Layer)
		}
		wantE += l.Result.Report.EnergyPJ
	}
	if sched.TotalEnergyPJ != wantE {
		t.Errorf("total energy %.3e, want %.3e", sched.TotalEnergyPJ, wantE)
	}
	if sched.EDP != sched.TotalEnergyPJ*sched.TotalCycles {
		t.Error("network EDP should be total energy x total cycles")
	}
	if len(sunstone.ResNet18Repeats()) != len(sunstone.ResNet18Layers) {
		t.Error("ResNet18Repeats must align with the layer table")
	}
}

func TestScheduleNetworkRejectsBadRepeats(t *testing.T) {
	if _, err := sunstone.FromConvShapes("x", sunstone.ResNet18Layers[:2], 1, []int{1}); err == nil {
		t.Error("mismatched repeats must error")
	}
}
