// External test package: core imports serde (to serialize panicking
// candidates for repro), so a test that drives the optimizer must live
// outside package serde to avoid an import cycle.
package serde_test

import (
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/cost"
	"sunstone/internal/serde"
	"sunstone/internal/workloads"
)

func TestMappingRoundTripThroughOptimizer(t *testing.T) {
	w := workloads.Conv1D("c", 8, 8, 28, 3)
	a := arch.Tiny(256)
	res, err := core.Solve(core.Problem{Workload: w, Arch: a}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := serde.EncodeMapping(res.Mapping)
	if err != nil {
		t.Fatal(err)
	}
	back, err := serde.DecodeMapping(data, w, a)
	if err != nil {
		t.Fatal(err)
	}
	// The decoded mapping must evaluate to exactly the same cost.
	r1, r2 := cost.Evaluate(res.Mapping), cost.Evaluate(back)
	if r1.EDP != r2.EDP || r1.EnergyPJ != r2.EnergyPJ {
		t.Errorf("round trip changed cost: %v vs %v", r2.EDP, r1.EDP)
	}
}
