package sunstone_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sunstone"
)

// quickNetOpt keeps the multi-search network tests fast without changing
// what they exercise.
func quickNetOpt(dir sunstone.Options) sunstone.NetworkOptions {
	dir.BeamWidth = 4
	dir.TilesPerStep = 8
	dir.UnrollsPerStep = 1
	dir.Threads = 2
	return sunstone.NetworkOptions{Options: dir}
}

// TestFuseSmoke is the fusion pipeline's end-to-end guarantee on a tiny
// network: the fused schedule never scores worse EDP than the unfused
// baseline solved in the same run, the chosen groups tile the chain, and
// turning fusion off (MaxGroup 1) reproduces the unfused totals exactly.
func TestFuseSmoke(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	a := sunstone.Tiny(1024)
	opt := quickNetOpt(sunstone.Options{})

	sched, err := sunstone.ScheduleNetwork(context.Background(), net, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !sched.Fused {
		t.Fatal("schedule not marked as produced by the fusion-aware scheduler")
	}
	if sched.EDP > sched.UnfusedEDP {
		t.Errorf("fused EDP %v worse than unfused %v", sched.EDP, sched.UnfusedEDP)
	}
	at := 0
	for _, g := range sched.Groups {
		if g.Start != at {
			t.Fatalf("groups do not tile the chain at position %d", at)
		}
		at = g.End
	}
	if want := len(net.Positions()); at != want || len(sched.Layers) != want {
		t.Fatalf("schedule covers %d positions in groups, %d layers, want %d", at, len(sched.Layers), want)
	}

	// Fusion off: the all-singleton cut is the unfused baseline.
	opt.MaxGroup = 1
	off, err := sunstone.ScheduleNetwork(context.Background(), net, a, opt)
	if err != nil {
		t.Fatal(err)
	}
	if off.EDP != off.UnfusedEDP {
		t.Errorf("fusion off: EDP %v != unfused %v", off.EDP, off.UnfusedEDP)
	}
	if len(off.Groups) != len(net.Positions()) {
		t.Errorf("fusion off: %d groups for %d positions", len(off.Groups), len(net.Positions()))
	}
}

// TestScheduleNetworkIRRepeatsWeighting pins the per-layer schedule (MaxGroup
// 1) of ResNet-18 at batch 16, repeats expanded, on both accelerators: every
// chain position's mapping and Report equal an independent Engine.Solve of
// that layer, and the totals are the left-to-right sums over positions —
// both compared exactly.
func TestScheduleNetworkIRRepeatsWeighting(t *testing.T) {
	net, err := sunstone.FromConvShapes("resnet18", sunstone.ResNet18Layers, 16, sunstone.ResNet18Repeats())
	if err != nil {
		t.Fatal(err)
	}
	pos := net.Positions()
	for _, tc := range []struct {
		name string
		arch *sunstone.Arch
	}{
		{"conventional", sunstone.Conventional()},
		{"simba", sunstone.Simba()},
	} {
		a := tc.arch
		t.Run(tc.name, func(t *testing.T) {
			opt := quickNetOpt(sunstone.Options{})
			opt.MaxGroup = 1
			sched, err := sunstone.ScheduleNetwork(context.Background(), net, a, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(sched.Layers) != len(pos) {
				t.Fatalf("%d layer entries for %d chain positions", len(sched.Layers), len(pos))
			}
			ref := sunstone.NewEngine()
			solved := map[int]sunstone.Result{}
			var wantE, wantC float64
			for i, p := range pos {
				want, ok := solved[p.Layer]
				if !ok {
					want, err = ref.Solve(context.Background(),
						sunstone.Problem{Workload: net.Layers[p.Layer].Workload, Arch: a}, opt.Options)
					if err != nil {
						t.Fatal(err)
					}
					solved[p.Layer] = want
				}
				got := sched.Layers[i]
				if got.Layer != net.Layers[p.Layer].Name || got.Err != nil {
					t.Fatalf("position %d: layer %q err %v, want %q", i, got.Layer, got.Err, net.Layers[p.Layer].Name)
				}
				if got.Result.Mapping.String() != want.Mapping.String() {
					t.Errorf("position %d (%s): mapping differs from an independent Solve", i, got.Layer)
				}
				if !reflect.DeepEqual(got.Result.Report, want.Report) {
					t.Errorf("position %d (%s): report differs from an independent Solve", i, got.Layer)
				}
				wantE += got.Result.Report.EnergyPJ
				wantC += got.Result.Report.Cycles
			}
			if sched.TotalEnergyPJ != wantE || sched.TotalCycles != wantC || sched.EDP != wantE*wantC {
				t.Errorf("totals (%v, %v, %v) are not the position sums (%v, %v, %v)",
					sched.TotalEnergyPJ, sched.TotalCycles, sched.EDP, wantE, wantC, wantE*wantC)
			}
		})
	}
}

// TestScheduleNetworkIRFailFast drives the fail-fast policy in both
// optimization directions: a layer whose cost model panics on every
// evaluation fails, and its failure cancels the long sibling search, which
// either degrades to its best-so-far mapping or classifies as
// sibling-cancel.
func TestScheduleNetworkIRFailFast(t *testing.T) {
	bad := sunstone.ConvShape{Name: "bad", K: 4, C: 4, P: 4, Q: 4, R: 1, S: 1, StrideH: 1, StrideW: 1}
	big := sunstone.ResNet18Layers[1] // conv2_x, 56x56x64: a long search
	net, err := sunstone.FromConvShapes("pair", []sunstone.ConvShape{bad, big}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []struct {
		name string
		opt  sunstone.Options
	}{
		{"bottom-up", sunstone.Options{Direction: sunstone.BottomUp}},
		{"top-down", sunstone.Options{Direction: sunstone.TopDown}},
	} {
		t.Run(dir.name, func(t *testing.T) {
			opt := poisonedOptions("bad")
			opt.Direction = dir.opt.Direction
			sched, err := sunstone.NewEngine().ScheduleNetwork(context.Background(), net,
				sunstone.Conventional(), sunstone.NetworkOptions{Options: opt, MaxGroup: 1})
			if err == nil {
				t.Fatal("expected the bad layer to fail the schedule")
			}
			if len(sched.Layers) != 2 || sched.Layers[0].Err == nil {
				t.Fatalf("bad layer missing its error: %+v", sched.Layers)
			}
			if sched.Failed == 0 {
				t.Error("Failed counter not incremented")
			}
			if cause := sunstone.CauseOf(sched.Layers[1].Err); sched.Layers[1].Err != nil &&
				cause != sunstone.CauseSiblingCancel {
				t.Errorf("sibling classified as %q, want %q", cause, sunstone.CauseSiblingCancel)
			}
		})
	}
}

// TestNetworkScheduleSerdeRoundTrip: a fused schedule's summary — totals,
// per-layer entries, group structure, failure messages — survives an
// encode/decode round trip under the stamped format, and the legacy
// headerless array still reads as a layer-per-entry schedule.
func TestNetworkScheduleSerdeRoundTrip(t *testing.T) {
	net := sunstone.TransformerChain(16, 16, 64)
	sched, err := sunstone.ScheduleNetwork(context.Background(), net,
		sunstone.Tiny(1024), quickNetOpt(sunstone.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	data, err := sunstone.EncodeNetworkSchedule(&sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"format": "sunstone/v1"`) {
		t.Error("encoded schedule missing the format stamp")
	}
	back, err := sunstone.DecodeNetworkSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Network != sched.Network || back.Fused != sched.Fused ||
		back.TotalEnergyPJ != sched.TotalEnergyPJ || back.TotalCycles != sched.TotalCycles ||
		back.EDP != sched.EDP || back.UnfusedEDP != sched.UnfusedEDP {
		t.Errorf("summary did not round-trip:\nenc %+v\ndec %+v", sched, back)
	}
	if len(back.Groups) != len(sched.Groups) {
		t.Fatalf("groups: %d != %d", len(back.Groups), len(sched.Groups))
	}
	for i, g := range sched.Groups {
		b := back.Groups[i]
		if b.Start != g.Start || b.End != g.End || b.PinLevel != g.PinLevel ||
			b.EnergyPJ != g.EnergyPJ || b.Cycles != g.Cycles || len(b.Layers) != len(g.Layers) {
			t.Errorf("group %d did not round-trip: %+v vs %+v", i, b, g)
		}
	}
	if len(back.Layers) != len(sched.Layers) {
		t.Fatalf("layers: %d != %d", len(back.Layers), len(sched.Layers))
	}
	for i, l := range sched.Layers {
		b := back.Layers[i]
		if b.Layer != l.Layer || b.Result.Report.EnergyPJ != l.Result.Report.EnergyPJ ||
			b.Result.Report.Cycles != l.Result.Report.Cycles {
			t.Errorf("layer %d did not round-trip: %+v vs %+v", i, b, l)
		}
	}

	// Headerless legacy form: a bare array of layer entries.
	legacy := []byte(`[
		{"layer": "conv1", "repeats": 2, "energy_pj": 10, "cycles": 5, "edp": 50},
		{"layer": "conv2", "error": "search: no feasible candidate"}
	]`)
	ls, err := sunstone.DecodeNetworkSchedule(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Fused || len(ls.Groups) != 0 {
		t.Error("headerless schedule must stay layer-per-entry (unfused)")
	}
	if len(ls.Layers) != 2 || ls.Layers[0].Repeats != 2 || ls.Layers[1].Err == nil {
		t.Errorf("headerless layers mis-decoded: %+v", ls.Layers)
	}
	if ls.TotalEnergyPJ != 20 || ls.TotalCycles != 10 || ls.EDP != 200 || ls.Failed != 1 {
		t.Errorf("headerless totals: %+v", ls)
	}

	// Unknown stamps are rejected.
	if _, err := sunstone.DecodeNetworkSchedule([]byte(`{"format": "sunstone/v9", "network": "x"}`)); err == nil {
		t.Error("unknown format accepted")
	}
}
