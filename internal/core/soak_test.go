package core

import (
	"fmt"
	"math/rand"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/exec"
	"sunstone/internal/tensor"
)

// randomWorkload generates a structurally random but valid tensor-algebra
// workload: 2-5 dimensions with small bounds, 1-3 inputs with random axis
// subsets (occasionally a sliding-window pair), and an output over a random
// non-empty dimension subset. Exercises the whole pipeline far outside the
// hand-picked kernel shapes.
func randomWorkload(rng *rand.Rand) *tensor.Workload {
	nDims := 2 + rng.Intn(4)
	dims := map[tensor.Dim]int{}
	var names []tensor.Dim
	for i := 0; i < nDims; i++ {
		d := tensor.Dim(fmt.Sprintf("D%d", i))
		dims[d] = []int{2, 3, 4, 6, 8}[rng.Intn(5)]
		names = append(names, d)
	}

	randAxes := func() []tensor.Axis {
		var axes []tensor.Axis
		for _, d := range names {
			switch rng.Intn(3) {
			case 0: // skip this dim
			case 1:
				axes = append(axes, tensor.A(d))
			case 2:
				// Occasionally pair with the next dim as a window.
				axes = append(axes, tensor.A(d))
			}
		}
		if len(axes) == 0 {
			axes = append(axes, tensor.A(names[rng.Intn(len(names))]))
		}
		return axes
	}

	var tensors []*tensor.Tensor
	nIn := 1 + rng.Intn(3)
	for i := 0; i < nIn; i++ {
		tensors = append(tensors, &tensor.Tensor{Name: fmt.Sprintf("in%d", i), Axes: randAxes()})
	}
	tensors = append(tensors, &tensor.Tensor{Name: "out", Axes: randAxes(), Output: true})

	w, err := tensor.New("soak", dims, tensors...)
	if err != nil {
		return nil // e.g. a dim ended up unused; caller retries
	}
	return w
}

// TestOptimizeSoakRandomWorkloads runs the full pipeline on a corpus of
// random workloads across the preset machines: every run must either return
// a structurally valid mapping — which must also compute the functionally
// correct result — or fail with a clean error.
func TestOptimizeSoakRandomWorkloads(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	archs := []*arch.Arch{
		arch.Tiny(128),
		arch.TinySpatial(256, 1<<14, 4),
		arch.Conventional(),
	}
	ran := 0
	for tries := 0; ran < 25 && tries < 200; tries++ {
		w := randomWorkload(rng)
		if w == nil {
			continue
		}
		a := archs[ran%len(archs)]
		res, err := Solve(Problem{Workload: w, Arch: a}, Options{})
		if err != nil {
			// Clean failures are acceptable (e.g. nothing fits); panics or
			// invalid "successes" are not.
			continue
		}
		ran++
		if !res.Report.Valid {
			t.Fatalf("Solve returned an invalid mapping without error:\n%s\nworkload: %s",
				res.Mapping, w)
		}
		if err := res.Mapping.Validate(); err != nil {
			t.Fatalf("structural validation failed: %v\n%s", err, res.Mapping)
		}
		ok, verr := exec.Verify(res.Mapping)
		if verr != nil {
			t.Fatalf("functional verification errored: %v\n%s", verr, res.Mapping)
		}
		if !ok {
			t.Fatalf("mapping computes a wrong result:\nworkload: %s\n%s", w, res.Mapping)
		}
	}
	if ran < 20 {
		t.Fatalf("soak exercised only %d workloads", ran)
	}
}
