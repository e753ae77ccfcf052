package cost

import (
	"fmt"
	"sort"
	"strings"

	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// This file holds the reference cost model: the paper's access-count algebra
// written directly over the map-based mapping representation, one keeper-pair
// flow at a time. Production scores every mapping through Session and
// Evaluator, which encode the same equations over dense tables; the tests
// pin the paper's equations against this reference and pin production to
// it, Report field by field and bit for bit.

// Flow describes the traffic between one tensor's adjacent keeper levels.
type Flow struct {
	Tensor        *tensor.Tensor
	Child, Parent int   // level indices; Child == -1 means the MAC datapath
	ParentReads   int64 // words read out of Parent (toward Child)
	ParentWrites  int64 // words written into Parent (from Child; outputs only)
	PsumReads     int64 // partial-sum readback words out of Parent
	ChildFills    int64 // words written into Child instances (inputs)
	ChildDrains   int64 // words read out of Child instances (outputs)
}

// referenceEvaluate validates and scores a mapping on the map-walking
// reference model. It fires neither the Probe nor the fault hooks: it is the
// model alone.
func (mo Model) referenceEvaluate(m *mapping.Mapping) Report {
	r := Report{
		Breakdown: map[string]float64{},
		Accesses:  map[string]Access{},
	}
	if err := m.Validate(); err != nil {
		r.Invalid = err
		r.EDP = inf
		r.EnergyPJ = inf
		r.Cycles = inf
		return r
	}
	r.Valid = true
	r.MACs = m.PaddedMACs()

	a := m.Arch
	r.Breakdown["MAC"] += float64(r.MACs) * a.MACPJ

	// Per-tensor traffic over each adjacent keeper pair, plus the compute
	// level below the innermost keeper.
	for _, t := range m.Workload.Tensors {
		for _, f := range mo.Flows(m, t) {
			mo.account(m, &r, f)
		}
	}

	// Sum in sorted key order: float addition is not associative, and a
	// map-order sum would make equal mappings score differently bit-wise.
	keys := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.EnergyPJ += r.Breakdown[k]
	}
	r.Cycles = mo.cycles(m, &r)
	r.EDP = r.EnergyPJ * r.Cycles
	return r
}

// Flows computes the traffic of tensor t across every adjacent pair of its
// keeper levels, innermost pair first. The first flow has Child == -1: the
// MAC datapath consuming/producing one word per MAC below t's innermost
// keeper.
func (mo Model) Flows(m *mapping.Mapping, t *tensor.Tensor) []Flow {
	a := m.Arch
	var keepers []int
	for l := 0; l < len(a.Levels); l++ {
		if a.Levels[l].Keeps(t.Name) {
			keepers = append(keepers, l)
		}
	}
	keepers = mo.residentKeepers(t.Name, keepers)
	var flows []Flow
	// Compute <- innermost keeper.
	flows = append(flows, mo.computeFlow(m, t, keepers[0]))
	for i := 0; i+1 < len(keepers); i++ {
		flows = append(flows, mo.pairFlow(m, t, keepers[i], keepers[i+1]))
	}
	return flows
}

// computeFlow models the MAC datapath's consumption of t from its innermost
// keeper k0: each MAC consumes one word of each input and produces one
// update of each output per cycle. Spatial distribution below/at k0 merges
// accesses: multicast (non-indexing unroll) serves several MACs with one
// read, and spatial reduction (reduction-dimension unroll) combines several
// updates into one write. Implicit datapath latches are not modeled:
// accesses merge only spatially.
func (mo Model) computeFlow(m *mapping.Mapping, t *tensor.Tensor, k0 int) Flow {
	f := Flow{Tensor: t, Child: -1, Parent: k0}
	macs := m.PaddedMACs()
	merge := int64(1)
	for l := 0; l <= k0; l++ {
		for d, s := range m.Levels[l].Spatial {
			if s > 1 && !t.Indexing(d) {
				merge *= int64(s)
			}
		}
	}
	if t.Output {
		f.ParentWrites = macs / merge
		f.PsumReads = f.ParentWrites // read-modify-write accumulation
	} else {
		f.ParentReads = macs / merge
	}
	return f
}

// pairFlow computes the traffic between keeper levels c and p (c < p).
//
// Refills of the level-c tile are driven by every temporal loop above c —
// loops above p change p's own tile and therefore also re-trigger refills of
// c — so passes are counted over loops at levels (c, top], with the
// innermost non-indexing run skipped (Ordering Principles 1-2). Spatially
// unrolled indexing dimensions enlarge the aggregate slice read from p
// (footprint automatically ignores non-indexing spatial dims — multicast,
// Eqs. (5)-(7)). Non-indexing spatial unrolling *above* p replicates p's
// tile across p-instances, each of which pays its own accesses.
func (mo Model) pairFlow(m *mapping.Mapping, t *tensor.Tensor, c, p int) Flow {
	f := Flow{Tensor: t, Child: c, Parent: p}
	top := len(m.Levels) - 1

	ext := m.Extents(c)
	for l := c + 1; l <= top; l++ {
		for d, s := range m.Levels[l].Spatial {
			if s > 1 {
				ext[d] *= s
			}
		}
	}
	fp := int64(t.Footprint(ext))
	replication := int64(1)
	for l := p + 1; l <= top; l++ {
		for d, s := range m.Levels[l].Spatial {
			if s > 1 && !t.Indexing(d) {
				replication *= int64(s)
			}
		}
	}
	fp *= replication

	loops := loopsBetween(m, c, top)
	passes, breaker := passCount(t, loops)

	if t.Output {
		outIters := int64(1)
		for _, lp := range loops {
			if lp.bound > 1 && t.Indexing(lp.d) {
				outIters *= int64(lp.bound)
			}
		}
		f.ParentWrites = passes * fp
		f.PsumReads = (passes - outIters) * fp
		f.ChildDrains = f.ParentWrites * spatialReduceWidth(m, t, c, p)
		return f
	}

	reads := passes * fp
	if mo.SlidingReuse && breaker != nil && windowOnly(t, breaker.d) {
		inc := incrementalFootprint(t, ext, breaker.d)
		outer := passes / int64(breaker.bound)
		reads = outer * (fp + int64(breaker.bound-1)*inc)
	}
	f.ParentReads = reads
	f.ChildFills = reads * multicastWidth(m, t, c, p)
	return f
}

// loop is one temporal loop between two keeper levels.
type loop struct {
	d     tensor.Dim
	bound int
	level int
}

// loopsBetween returns the temporal loops at levels (c, p], innermost first
// (within a level, the level's effective order; levels bottom-up).
func loopsBetween(m *mapping.Mapping, c, p int) []loop {
	var loops []loop
	for l := c + 1; l <= p; l++ {
		for _, d := range m.EffectiveOrder(l) {
			loops = append(loops, loop{d: d, bound: m.Levels[l].T(d), level: l})
		}
	}
	return loops
}

// passCount applies Ordering Principles 1-2: the number of times the child
// tile is refilled is the product of all loop bounds except the maximal
// innermost-contiguous run of t-non-indexing loops (bound-1 loops are
// transparent). It also returns the loop that breaks the reuse run (the
// innermost t-indexing loop with bound > 1), or nil.
func passCount(t *tensor.Tensor, loops []loop) (int64, *loop) {
	passes := int64(1)
	inPrefix := true
	var breaker *loop
	for i := range loops {
		lp := &loops[i]
		if lp.bound <= 1 {
			continue
		}
		if inPrefix && !t.Indexing(lp.d) {
			continue // fully reused across this loop
		}
		if inPrefix {
			inPrefix = false
			breaker = lp
		}
		passes *= int64(lp.bound)
	}
	return passes, breaker
}

// incrementalFootprint returns the footprint of the *new* data fetched when
// the tile advances one step along window dimension d: for each compound
// axis containing d, the axis extent is replaced by the step size
// stride_d * ext[d] (capped at the full axis extent).
func incrementalFootprint(t *tensor.Tensor, ext map[tensor.Dim]int, d tensor.Dim) int64 {
	fp := int64(1)
	for _, a := range t.Axes {
		full := a.Extent(ext)
		hasD := false
		var strideD int
		for _, term := range a {
			if term.D == d {
				hasD = true
				strideD = term.Stride
			}
		}
		if hasD && len(a) > 1 {
			step := strideD * ext[d]
			if step > full {
				step = full
			}
			fp *= int64(step)
		} else {
			fp *= int64(full)
		}
	}
	return fp
}

// multicastWidth returns the product of non-indexing spatial unroll factors
// for t at levels (c, p]: how many child instances each parent word is
// delivered to.
func multicastWidth(m *mapping.Mapping, t *tensor.Tensor, c, p int) int64 {
	w := int64(1)
	for l := c + 1; l <= p; l++ {
		for d, s := range m.Levels[l].Spatial {
			if s > 1 && !t.Indexing(d) {
				w *= int64(s)
			}
		}
	}
	return w
}

// spatialReduceWidth is multicastWidth for outputs: the number of child
// partial results combined per parent word (reduction dims are exactly the
// output's non-indexing dims).
func spatialReduceWidth(m *mapping.Mapping, t *tensor.Tensor, c, p int) int64 {
	return multicastWidth(m, t, c, p)
}

// account adds one flow's energy and access counts to the report.
func (mo Model) account(m *mapping.Mapping, r *Report, f Flow) {
	a := m.Arch
	t := f.Tensor
	parent := &a.Levels[f.Parent]
	pbuf := parent.BufferFor(t.Name)

	add := func(lvl int, bufName string, reads, writes int64) {
		key := fmt.Sprintf("%s/%s/%s", a.Levels[lvl].Name, bufName, t.Name)
		acc := r.Accesses[key]
		acc.Reads += reads
		acc.Writes += writes
		r.Accesses[key] = acc
	}

	// Parent-side accesses.
	add(f.Parent, pbuf.Name, f.ParentReads+f.PsumReads, f.ParentWrites)
	r.Breakdown[pbuf.Name] += float64(f.ParentReads+f.PsumReads)*pbuf.ReadPJ +
		float64(f.ParentWrites)*pbuf.WritePJ

	// Child-side accesses (fills for inputs, drains + psum refills for
	// outputs). Child == -1 is the MAC datapath: its operand consumption is
	// part of MAC energy, so only the parent side is billed above.
	if f.Child >= 0 {
		child := &a.Levels[f.Child]
		cbuf := child.BufferFor(t.Name)
		if t.Output {
			add(f.Child, cbuf.Name, f.ChildDrains, f.PsumReads)
			r.Breakdown[cbuf.Name] += float64(f.ChildDrains)*cbuf.ReadPJ +
				float64(f.PsumReads)*cbuf.WritePJ
		} else {
			add(f.Child, cbuf.Name, 0, f.ChildFills)
			r.Breakdown[cbuf.Name] += float64(f.ChildFills) * cbuf.WritePJ
		}
	}

	// NoC distribution/collection energy across the spatial levels the flow
	// traverses.
	lo := f.Child
	if lo < 0 {
		lo = -1
	}
	if t.Output {
		// Collection: child partials flow up, combined at reducing levels.
		vol := float64(f.ParentWrites)
		volBelow := vol * float64(spatialReduceWidth(m, t, f.Child, f.Parent))
		for l := lo + 1; l <= f.Parent; l++ {
			al := &a.Levels[l]
			if al.Fanout <= 1 {
				continue
			}
			rho := levelWidth(m, t, l)
			if rho > 1 {
				r.Breakdown["SpatialReduce"] += volBelow * al.SpatialReducePJ
				volBelow /= float64(rho)
			}
			r.Breakdown["NoC"] += volBelow * al.NoCPerWordPJ
		}
	} else {
		// Distribution: parent words flow down, multicast at each level.
		vol := float64(f.ParentReads)
		for l := f.Parent; l > lo; l-- {
			al := &a.Levels[l]
			if al.Fanout <= 1 {
				continue
			}
			r.Breakdown["NoC"] += vol * al.NoCPerWordPJ
			vol *= float64(levelWidth(m, t, l))
			r.Breakdown["NoC"] += vol * al.NoCTagCheckPJ
		}
	}
}

// levelWidth is the multicast (or reduction) width contributed by level l
// alone for tensor t.
func levelWidth(m *mapping.Mapping, t *tensor.Tensor, l int) int64 {
	w := int64(1)
	for d, s := range m.Levels[l].Spatial {
		if s > 1 && !t.Indexing(d) {
			w *= int64(s)
		}
	}
	return w
}

// cycles computes the double-buffered latency: the maximum of compute time
// and any buffer's transfer time (reads and writes serialized per port,
// parallel instances dividing the traffic).
func (mo Model) cycles(m *mapping.Mapping, r *Report) float64 {
	a := m.Arch
	spatialUsed := 1
	for l := range m.Levels {
		spatialUsed *= m.Levels[l].SpatialProduct()
	}
	compute := float64(r.MACs) / float64(spatialUsed)
	worst := compute

	// Instances of level l actually active = product of used spatial
	// factors above l.
	instAbove := make([]float64, len(a.Levels))
	acc := 1.0
	for l := len(a.Levels) - 1; l >= 0; l-- {
		instAbove[l] = acc
		acc *= float64(m.Levels[l].SpatialProduct())
	}

	for key, accCount := range r.Accesses {
		parts := strings.SplitN(key, "/", 3)
		lvl := levelIndexByName(a, parts[0])
		if lvl < 0 {
			continue
		}
		buf := a.Levels[lvl].BufferFor(parts[2])
		if buf == nil {
			continue
		}
		var t float64
		if buf.ReadBW > 0 {
			t += float64(accCount.Reads) / (buf.ReadBW * instAbove[lvl])
		}
		if buf.WriteBW > 0 {
			t += float64(accCount.Writes) / (buf.WriteBW * instAbove[lvl])
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
