package cost

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/factor"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// randomMappingOn samples one unconstrained mapping of w onto a: prime
// factors scattered uniformly over every temporal and spatial slot, random
// (sometimes partial) loop orders, and an occasional dropped factor. The
// samples deliberately include invalid mappings — capacity and fanout
// overflows, uncovered dimensions, reduction dims unrolled across
// non-reducing levels — because production must agree with the reference
// on those too.
func randomMappingOn(w *tensor.Workload, a *arch.Arch, rng *rand.Rand) *mapping.Mapping {
	m := mapping.New(w, a)
	type slot struct {
		level   int
		spatial bool
	}
	var slots []slot
	for l := range a.Levels {
		slots = append(slots, slot{l, false})
		if a.Levels[l].Fanout > 1 {
			slots = append(slots, slot{l, true})
		}
	}
	for _, d := range w.Order {
		for _, p := range factor.Primes(w.Dims[d]) {
			if rng.Intn(20) == 0 {
				continue // dropped factor: coverage-invalid sample
			}
			s := slots[rng.Intn(len(slots))]
			if s.spatial {
				m.Levels[s.level].Spatial[d] = m.Levels[s.level].S(d) * p
			} else {
				m.Levels[s.level].Temporal[d] = m.Levels[s.level].T(d) * p
			}
		}
	}
	for l := range m.Levels {
		order := append([]tensor.Dim(nil), w.Order...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if rng.Intn(3) == 0 {
			order = order[:rng.Intn(len(order)+1)] // partial declared order
		}
		m.Levels[l].Order = order
	}
	return m
}

// validWalkOn samples a valid mapping of w onto a by a random walk from the
// everything-at-the-top mapping: each step moves one prime factor of a
// top-level bound into a random lower temporal or spatial slot and keeps the
// move only if the mapping stays valid. Unlike randomMappingOn it reliably
// reaches valid tiled and unrolled mappings on the large presets.
func validWalkOn(w *tensor.Workload, a *arch.Arch, rng *rand.Rand) *mapping.Mapping {
	m := dramMapping(w, a)
	top := len(a.Levels) - 1
	for step := 0; step < 40; step++ {
		d := w.Order[rng.Intn(len(w.Order))]
		ps := factor.Primes(m.Levels[top].T(d))
		if len(ps) == 0 {
			continue
		}
		p := ps[rng.Intn(len(ps))]
		l := rng.Intn(len(a.Levels))
		spatial := a.Levels[l].Fanout > 1 && rng.Intn(2) == 0
		if l == top && !spatial {
			continue
		}
		trial := m.Clone()
		trial.Levels[top].Temporal[d] = m.Levels[top].T(d) / p
		if spatial {
			trial.Levels[l].Spatial[d] = trial.Levels[l].S(d) * p
		} else {
			trial.Levels[l].Temporal[d] = trial.Levels[l].T(d) * p
		}
		if trial.Validate() == nil {
			m = trial
		}
	}
	for l := range m.Levels {
		order := append([]tensor.Dim(nil), w.Order...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		m.Levels[l].Order = order
	}
	return m
}

// requireSameScalars asserts bit-for-bit agreement between a reference
// report and one scalar-path result.
func requireSameScalars(t *testing.T, label string, rep Report, edp, en, cy float64, valid bool) {
	t.Helper()
	if valid != rep.Valid ||
		math.Float64bits(edp) != math.Float64bits(rep.EDP) ||
		math.Float64bits(en) != math.Float64bits(rep.EnergyPJ) ||
		math.Float64bits(cy) != math.Float64bits(rep.Cycles) {
		t.Fatalf("%s: (edp=%v en=%v cy=%v valid=%v) != reference (edp=%v en=%v cy=%v valid=%v)",
			label, edp, en, cy, valid, rep.EDP, rep.EnergyPJ, rep.Cycles, rep.Valid)
	}
}

// requireSameReport asserts that a production Report equals the reference
// field by field: bit-identical scalars and Breakdown entries, identical
// Breakdown and Accesses key sets and values, MACs, validity and the
// Invalid text.
func requireSameReport(t *testing.T, got, want Report) {
	t.Helper()
	requireSameScalars(t, "Report", want, got.EDP, got.EnergyPJ, got.Cycles, got.Valid)
	if got.MACs != want.MACs {
		t.Fatalf("Report MACs %d != reference %d", got.MACs, want.MACs)
	}
	if fmt.Sprint(got.Invalid) != fmt.Sprint(want.Invalid) {
		t.Fatalf("Report Invalid %q != reference %q", got.Invalid, want.Invalid)
	}
	if len(got.Breakdown) != len(want.Breakdown) {
		t.Fatalf("Report Breakdown %v != reference %v", got.Breakdown, want.Breakdown)
	}
	for k, v := range want.Breakdown {
		g, ok := got.Breakdown[k]
		if !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Fatalf("Report Breakdown[%q] = %v (present %v), reference %v", k, g, ok, v)
		}
	}
	if len(got.Accesses) != len(want.Accesses) {
		t.Fatalf("Report Accesses %v != reference %v", got.Accesses, want.Accesses)
	}
	for k, v := range want.Accesses {
		if g, ok := got.Accesses[k]; !ok || g != v {
			t.Fatalf("Report Accesses[%q] = %+v (present %v), reference %+v", k, g, ok, v)
		}
	}
}

// checkEquivalence runs one mapping through the reference model, Report,
// and the scalar path (twice, so the second pass runs on scratch the first
// one dirtied), requiring the reference's numbers from all of them.
func checkEquivalence(t *testing.T, model Model, ev *Evaluator, m *mapping.Mapping) {
	t.Helper()
	rep := model.referenceEvaluate(m)
	requireSameReport(t, ev.Report(m), rep)
	for pass := 0; pass < 2; pass++ {
		edp, en, cy, valid := ev.EvaluateEDP(m)
		requireSameScalars(t, "EvaluateEDP", rep, edp, en, cy, valid)
	}
}

// equivalenceCase is one (workload, arch) pair of the property test.
func equivalenceCases() []struct {
	name string
	w    *tensor.Workload
	a    *arch.Arch
} {
	conv1d := tensor.MustNew("conv1d",
		map[tensor.Dim]int{"K": 16, "C": 8, "P": 24, "R": 3},
		&tensor.Tensor{Name: arch.Ifmap, Axes: []tensor.Axis{tensor.Win("P", 1, "R", 1), tensor.A("C")}},
		&tensor.Tensor{Name: arch.Weight, Axes: []tensor.Axis{tensor.A("K"), tensor.A("C"), tensor.A("R")}},
		&tensor.Tensor{Name: arch.Ofmap, Axes: []tensor.Axis{tensor.A("K"), tensor.A("P")}, Output: true},
	)
	conv2d := workloads.ResNet18[1].Inference(4)
	return []struct {
		name string
		w    *tensor.Workload
		a    *arch.Arch
	}{
		{"conv1d/tinyspatial", conv1d, arch.TinySpatial(4096, 1<<18, 8)},
		{"conv2d/conventional", conv2d, arch.Conventional()},
		{"conv2d/simba", conv2d, arch.Simba()},
		{"conv2d/diannao", conv2d, arch.DianNao()},
		{"mttkrp/conventional", workloads.MTTKRPOn(workloads.Nell2), arch.Conventional()},
		{"conv1d/tiny", conv1d, arch.Tiny(256)}, // no fanout: no NoC component
	}
}

// TestEvaluateEDPEquivalenceProperty pins production to the reference
// model: Report field by field, and the scalar path bit for bit, on
// randomized valid AND invalid mappings across the Conventional, Simba, and
// DianNao presets, plus the tiny fixtures the other property tests use (one
// with a fanout level, one without).
func TestEvaluateEDPEquivalenceProperty(t *testing.T) {
	const samples = 120
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
			valid, invalid := 0, 0
			for i := 0; i < samples; i++ {
				m := randomMappingOn(tc.w, tc.a, rng)
				if m.Validate() == nil {
					valid++
				} else {
					invalid++
				}
				checkEquivalence(t, Default, ev, m)
			}
			if invalid == 0 {
				t.Error("sampler produced no invalid mappings; the invalid branch went untested")
			}
			for i := 0; i < samples/2; i++ {
				m := validWalkOn(tc.w, tc.a, rng)
				if m.Validate() != nil {
					t.Fatalf("random walk left the valid set: %v", m.Validate())
				}
				valid++
				checkEquivalence(t, Default, ev, m)
			}
			t.Logf("%d valid, %d invalid samples", valid, invalid)
		})
	}
}

// TestEvaluateEDPSlidingReuseOff: equivalence holds for non-default model
// configurations too, on every case.
func TestEvaluateEDPSlidingReuseOff(t *testing.T) {
	model := Model{SlidingReuse: false}
	for _, tc := range equivalenceCases() {
		t.Run(tc.name, func(t *testing.T) {
			ev := model.NewSession(tc.w, tc.a).NewEvaluator()
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 60; i++ {
				checkEquivalence(t, model, ev, randomMappingOn(tc.w, tc.a, rng))
				checkEquivalence(t, model, ev, validWalkOn(tc.w, tc.a, rng))
			}
		})
	}
}

// TestEvaluateEDPEdgeCases pins the off-domain handling: raw factors < 1
// and spatial factors on undeclared dimensions are invalid on every path
// and have no Key (Key refuses them); undeclared temporal factors and
// explicit 1-entries are cost-invisible.
func TestEvaluateEDPEdgeCases(t *testing.T) {
	tc := equivalenceCases()[0]
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(3))
	base := func() *mapping.Mapping {
		for {
			m := randomMappingOn(tc.w, tc.a, rng)
			if m.Validate() == nil {
				return m
			}
		}
	}
	invalid := func(label string, m *mapping.Mapping) {
		t.Helper()
		checkEquivalence(t, Default, ev, m)
		if ev.Report(m).Valid {
			t.Errorf("%s: Report accepted the mapping", label)
		}
		if _, _, _, valid := ev.EvaluateEDP(m); valid {
			t.Errorf("%s: EvaluateEDP accepted the mapping", label)
		}
		if _, ok := ev.Key(m); ok {
			t.Errorf("%s: Key accepted the mapping", label)
		}
	}

	zero := base()
	zero.Levels[0].Temporal["K"] = 0
	invalid("raw zero factor", zero)

	neg := base()
	neg.Levels[1].Spatial["C"] = -2
	invalid("negative spatial factor", neg)

	stray := base()
	stray.Levels[1].Spatial["Z"] = 2 // undeclared dim: would spend fanout on a loop that does not exist
	invalid("stray spatial factor", stray)

	strayT := base()
	strayT.Levels[2].Temporal["Z"] = 5 // undeclared temporal dim: cost-invisible
	checkEquivalence(t, Default, ev, strayT)

	ones := base()
	ones.Levels[0].Temporal["R"] = 1
	ones.Levels[1].Spatial["K"] = 1
	checkEquivalence(t, Default, ev, ones)
}

// TestMappingKeyCanonicalization: equal-content mappings share a Key, the
// Key ignores differences the model cannot observe (bound-1 loop positions,
// explicit 1-factors), and real tiling changes alter it.
func TestMappingKeyCanonicalization(t *testing.T) {
	tc := equivalenceCases()[0]
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(5))
	var m *mapping.Mapping
	for {
		m = randomMappingOn(tc.w, tc.a, rng)
		if m.Validate() == nil {
			break
		}
	}
	k1, ok := ev.Key(m)
	if !ok {
		t.Fatal("Key rejected a valid mapping")
	}
	if k2, _ := ev.Key(m.Clone()); k2 != k1 {
		t.Error("clone changed the Key")
	}

	ones := m.Clone()
	for _, lm := range ones.Levels { // explicit 1-entries in empty slots: T()/S() view unchanged
		for _, d := range tc.w.Order {
			if lm.T(d) == 1 {
				lm.Temporal[d] = 1
			}
		}
	}
	if k2, _ := ev.Key(ones); k2 != k1 {
		t.Error("explicit 1-factor changed the Key")
	}

	tiled := m.Clone()
	tiled.Levels[len(tiled.Levels)-1].Temporal["K"] = tiled.Levels[len(tiled.Levels)-1].T("K") * 2
	if k2, _ := ev.Key(tiled); k2 == k1 {
		t.Error("tiling change did not change the Key")
	}
}

// TestEvaluateEDPZeroAlloc guards the scalar path's core claim: it
// allocates nothing in steady state.
func TestEvaluateEDPZeroAlloc(t *testing.T) {
	tc := equivalenceCases()[1] // conv2d on Conventional: a realistic size
	ev := Default.NewSession(tc.w, tc.a).NewEvaluator()
	rng := rand.New(rand.NewSource(9))
	var m *mapping.Mapping
	for {
		m = randomMappingOn(tc.w, tc.a, rng)
		if m.Validate() == nil {
			break
		}
	}
	if allocs := testing.AllocsPerRun(200, func() { ev.EvaluateEDP(m) }); allocs != 0 {
		t.Errorf("EvaluateEDP allocates %v objects/op, want 0", allocs)
	}
}

// TestEvaluatorConcurrentScratchReuse exercises per-worker scratch reuse
// against one shared Session under concurrency (run with -race): workers
// with private Evaluators score an overlapping candidate stream, and every
// result must match the serial reference model.
func TestEvaluatorConcurrentScratchReuse(t *testing.T) {
	tc := equivalenceCases()[2] // conv2d on Simba: multi-spatial-level
	sess := Default.NewSession(tc.w, tc.a)
	rng := rand.New(rand.NewSource(17))
	const n = 200
	ms := make([]*mapping.Mapping, n)
	want := make([]Report, n)
	for i := range ms {
		ms[i] = randomMappingOn(tc.w, tc.a, rng)
		want[i] = Default.referenceEvaluate(ms[i])
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			ev := sess.NewEvaluator()
			// Offset start: workers overlap on the same mappings from
			// different goroutines.
			for j := 0; j < n; j++ {
				i := (j + wk*n/workers) % n
				edp, en, cy, valid := ev.EvaluateEDP(ms[i])
				rep := want[i]
				if valid != rep.Valid ||
					math.Float64bits(edp) != math.Float64bits(rep.EDP) ||
					math.Float64bits(en) != math.Float64bits(rep.EnergyPJ) ||
					math.Float64bits(cy) != math.Float64bits(rep.Cycles) {
					select {
					case errs <- "concurrent scalar result diverged from the reference":
					default:
					}
					return
				}
			}
		}(wk)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
