// Session and Evaluator: the cost model's implementation. A Session
// precomputes everything about a (workload, arch) pair the model consults —
// tensor axis structure, keeper chains, per-flow buffer energy coefficients,
// the component and access-slot tables behind the Report's Breakdown and
// Accesses maps — and an Evaluator owns reusable scratch, so scoring a
// mapping's scalars allocates nothing in steady state. Report materializes
// those tables into the full Report for final mappings and the CLI.

package cost

import (
	"errors"
	"fmt"
	"strings"

	"sunstone/internal/arch"
	"sunstone/internal/faults"
	"sunstone/internal/mapping"
	"sunstone/internal/tensor"
)

// Key is the canonical 128-bit fingerprint of a mapping's (ordering, tile,
// unroll) content for a fixed (workload, arch) Session. Two mappings with
// equal Keys are scored identically by the cost model (the fingerprint
// canonicalizes away differences the model cannot observe, such as the
// relative order of bound-1 loops), so Keys double as dedup handles for the
// search's candidate sets.
type Key struct{ Hi, Lo uint64 }

// termPlan is one summand of an axis index expression, with the dimension
// resolved to its Session index.
type termPlan struct {
	dim    int
	stride int
}

type axisPlan struct {
	terms []termPlan
}

// flowPlan is one tensor's traffic between adjacent keeper levels (or the
// MAC datapath, child == -1), with component/slot indices and buffer energy
// coefficients resolved at build time.
type flowPlan struct {
	child, parent int
	pReadPJ       float64
	pWritePJ      float64
	cReadPJ       float64
	cWritePJ      float64
	pComp, cComp  int
	pSlot, cSlot  int
}

// tensorPlan is the per-tensor precomputation: axis structure, indexing and
// window-only dimension sets, and the keeper-pair flows.
type tensorPlan struct {
	output   bool
	axes     []axisPlan
	indexing []bool // by dim index: does the dim appear in any axis?
	winOnly  []bool // by dim index: windowOnly(t, d)
	flows    []flowPlan
}

// slotPlan is one "level/buffer/tensor" access slot. Its bandwidth is found
// by splitting the rendered key and looking the level and buffer back up by
// name, so a degenerate name (one containing '/', or a duplicate level name)
// degrades predictably instead of charging the wrong port.
type slotPlan struct {
	key             string
	lvl             int // -1: unresolvable key, skipped by cycles
	readBW, writeBW float64
	resolved        bool
}

// capPlan is one bounded buffer's capacity check at one level.
type capPlan struct {
	lvl     int
	capBits int64
	tensors []int // tensor indices held by this buffer
}

// Session holds the per-(workload, arch) precomputation shared by all
// Evaluators of one search. A Session is immutable after NewSession and
// safe for concurrent use.
type Session struct {
	model Model
	w     *tensor.Workload
	a     *arch.Arch

	dims    []tensor.Dim // w.Order (canonical)
	dimIdx  map[tensor.Dim]int
	bounds  []int // problem bound per dim
	nLevels int

	tensors []tensorPlan
	caps    []capPlan
	redDims []int  // reduction dimension indices
	noSR    []bool // per level: !AllowSpatialReduction
	fanout  []int

	macPJ     float64
	levels    []levelCoef
	compMAC   int
	compNoC   int
	compSR    int
	compNames []string
	// compListed marks the components every valid Report lists, even at
	// zero energy: MAC, every buffer a flow touches, and NoC when some flow
	// crosses a level with fanout > 1. SpatialReduce is listed only when an
	// evaluation combines partials across a reduction width > 1.
	compListed []bool
	sumOrder   []int // component indices in sorted-name order (EnergyPJ sum)
	slots      []slotPlan

	// Admissible lower-bound tables (see LowerBound), built once by
	// buildLowerBound from compulsory traffic and peak-throughput
	// occupancy. They depend only on the problem, never on a mapping.
	lbMacsU      float64 // unpadded MAC count (Π problem bounds)
	lbEnergyPJ   float64 // energy floor: MACs + compulsory buffer traffic
	lbXferCycles float64 // cycle floor from bandwidth on compulsory traffic
	lbMaxSpatial float64 // Π fanouts — the most parallelism any mapping has
}

// levelCoef caches the per-level NoC coefficients.
type levelCoef struct {
	noCPerWordPJ    float64
	noCTagCheckPJ   float64
	spatialReducePJ float64
}

// NewSession precomputes the fast-path tables for mapping w onto a. The
// workload and arch must be structurally valid (every tensor kept at the
// top level — what arch.Validate guarantees); they are treated as immutable
// for the Session's lifetime.
func (mo Model) NewSession(w *tensor.Workload, a *arch.Arch) *Session {
	s := &Session{
		model:   mo,
		w:       w,
		a:       a,
		dims:    w.Order,
		dimIdx:  make(map[tensor.Dim]int, len(w.Order)),
		bounds:  make([]int, len(w.Order)),
		nLevels: len(a.Levels),
		macPJ:   a.MACPJ,
	}
	for i, d := range s.dims {
		s.dimIdx[d] = i
		s.bounds[i] = w.Dims[d]
	}
	for _, d := range w.ReductionDims() {
		s.redDims = append(s.redDims, s.dimIdx[d])
	}
	s.noSR = make([]bool, s.nLevels)
	s.fanout = make([]int, s.nLevels)
	s.levels = make([]levelCoef, s.nLevels)
	for l := 0; l < s.nLevels; l++ {
		al := &a.Levels[l]
		s.noSR[l] = !al.AllowSpatialReduction
		s.fanout[l] = al.Fanout
		s.levels[l] = levelCoef{
			noCPerWordPJ:    al.NoCPerWordPJ,
			noCTagCheckPJ:   al.NoCTagCheckPJ,
			spatialReducePJ: al.SpatialReducePJ,
		}
	}

	compIdx := map[string]int{}
	var compNames []string
	comp := func(name string) int {
		if i, ok := compIdx[name]; ok {
			return i
		}
		i := len(compNames)
		compIdx[name] = i
		compNames = append(compNames, name)
		return i
	}
	s.compMAC = comp("MAC")
	s.compNoC = comp("NoC")
	s.compSR = comp("SpatialReduce")

	slotIdx := map[string]int{}
	slot := func(lvl int, bufName, tName string) int {
		key := fmt.Sprintf("%s/%s/%s", a.Levels[lvl].Name, bufName, tName)
		if i, ok := slotIdx[key]; ok {
			return i
		}
		parts := strings.SplitN(key, "/", 3)
		p := slotPlan{key: key, lvl: -1}
		if li := levelIndexByName(a, parts[0]); li >= 0 {
			if buf := a.Levels[li].BufferFor(parts[2]); buf != nil {
				p = slotPlan{key: key, lvl: li, readBW: buf.ReadBW, writeBW: buf.WriteBW, resolved: true}
			}
		}
		i := len(s.slots)
		slotIdx[key] = i
		s.slots = append(s.slots, p)
		return i
	}

	// Capacity checks: every bounded buffer below the top level, with the
	// tensors it holds (Holds implies Keeps at that level, so Validate's
	// holds-and-keeps test reduces to Holds).
	for lvl := 0; lvl < s.nLevels-1; lvl++ {
		al := &a.Levels[lvl]
		for bi := range al.Buffers {
			buf := &al.Buffers[bi]
			if buf.Bytes == 0 {
				continue
			}
			cp := capPlan{lvl: lvl, capBits: buf.Bytes * 8}
			for ti, t := range w.Tensors {
				if buf.Holds(t.Name) {
					cp.tensors = append(cp.tensors, ti)
				}
			}
			s.caps = append(s.caps, cp)
		}
	}

	// Per-tensor plans, in w.Tensors order: the order every Breakdown
	// component accumulates in, which fixes its floating-point bits.
	nd := len(s.dims)
	for _, t := range w.Tensors {
		tp := tensorPlan{
			output:   t.Output,
			indexing: make([]bool, nd),
			winOnly:  make([]bool, nd),
		}
		for i, d := range s.dims {
			tp.indexing[i] = t.Indexing(d)
			tp.winOnly[i] = windowOnly(t, d)
		}
		for _, ax := range t.Axes {
			ap := axisPlan{terms: make([]termPlan, len(ax))}
			for i, term := range ax {
				ap.terms[i] = termPlan{dim: s.dimIdx[term.D], stride: term.Stride}
			}
			tp.axes = append(tp.axes, ap)
		}
		var keepers []int
		for l := 0; l < s.nLevels; l++ {
			if a.Levels[l].Keeps(t.Name) {
				keepers = append(keepers, l)
			}
		}
		// Residency truncation; buildLowerBound walks these flow plans, so
		// the lower bound inherits it.
		keepers = mo.residentKeepers(t.Name, keepers)
		mkFlow := func(child, parent int) flowPlan {
			pbuf := a.Levels[parent].BufferFor(t.Name)
			fl := flowPlan{
				child: child, parent: parent,
				pReadPJ: pbuf.ReadPJ, pWritePJ: pbuf.WritePJ,
				pComp: comp(pbuf.Name),
				pSlot: slot(parent, pbuf.Name, t.Name),
				cComp: -1, cSlot: -1,
			}
			if child >= 0 {
				cbuf := a.Levels[child].BufferFor(t.Name)
				fl.cReadPJ, fl.cWritePJ = cbuf.ReadPJ, cbuf.WritePJ
				fl.cComp = comp(cbuf.Name)
				fl.cSlot = slot(child, cbuf.Name, t.Name)
			}
			return fl
		}
		tp.flows = append(tp.flows, mkFlow(-1, keepers[0]))
		for i := 0; i+1 < len(keepers); i++ {
			tp.flows = append(tp.flows, mkFlow(keepers[i], keepers[i+1]))
		}
		s.tensors = append(s.tensors, tp)
	}

	s.compNames = compNames
	s.compListed = make([]bool, len(compNames))
	s.compListed[s.compMAC] = true
	for ti := range s.tensors {
		for _, fl := range s.tensors[ti].flows {
			s.compListed[fl.pComp] = true
			if fl.cComp >= 0 {
				s.compListed[fl.cComp] = true
			}
			for l := fl.child + 1; l <= fl.parent; l++ {
				if s.fanout[l] > 1 {
					s.compListed[s.compNoC] = true
				}
			}
		}
	}

	// EnergyPJ sums every component in sorted-name order; a component the
	// Report does not list contributes +0.0, which cannot change the bits
	// of a sum of non-negative terms.
	s.sumOrder = make([]int, len(compNames))
	order := append([]string(nil), compNames...)
	insertionSortStrings(order)
	for i, name := range order {
		s.sumOrder[i] = compIdx[name]
	}

	s.buildLowerBound()
	return s
}

// lbSlack shaves a relative epsilon off the lower-bound tables so that
// floating-point summation-order differences between the bound and the real
// evaluation can never push the bound above a true cost. The admissibility
// argument is exact in real arithmetic; the slack only absorbs ulp-level
// rounding and is far below anything the search could act on.
const lbSlack = 1 - 1e-9

// buildLowerBound precomputes the cost floor consulted by LowerBound. Each
// term is argued below to under-approximate what compute() charges for any
// valid mapping of the problem (the cycle floor's argument fails on strided
// 1x1 convs; see LowerBound):
//
//   - MAC energy: compute() charges PaddedMACs × macPJ; the unpadded product
//     of problem bounds (macsU) never exceeds PaddedMACs.
//   - Datapath flows: compute() moves macs/mergeWidth words at the innermost
//     keeper. mergeWidth is a product of spatial factors, capped by the
//     fanout product of the levels at or below the keeper — and, for a
//     tensor whose non-indexing dimensions are all reduction dimensions
//     (the usual single-output case), only AllowSpatialReduction levels can
//     contribute, because noSR levels force reduction spatial factors to 1.
//   - Keeper-pair flows: every distinct element of a tensor must cross each
//     keeper pair at least once (sliding-window reuse removes only repeat
//     fetches), so child-side traffic is at least the unpadded footprint
//     fpFull, and parent-side reads at least fpFull divided by the maximal
//     multicast width between the two levels. Output partial-sum round
//     trips are bounded below by zero.
//   - NoC and spatial-reduce energy are non-negative extras: floor zero.
//   - Cycles: compute cycles are at least macsU / (total spatial), and each
//     resolved slot needs its compulsory traffic through its bandwidth at
//     the maximal instance count (fanout product strictly above the level).
func (s *Session) buildLowerBound() {
	top := s.nLevels - 1
	if top < 0 {
		return
	}

	macsU := 1.0
	for _, b := range s.bounds {
		macsU *= float64(b)
	}

	isRed := make([]bool, len(s.dims))
	for _, ri := range s.redDims {
		isRed[ri] = true
	}

	// fanPrefix[l]: max spatial product over levels [0..l]; fanPrefixSR[l]:
	// the same counting only AllowSpatialReduction levels.
	fanPrefix := make([]float64, s.nLevels)
	fanPrefixSR := make([]float64, s.nLevels)
	accP, accSR := 1.0, 1.0
	for l := 0; l < s.nLevels; l++ {
		accP *= float64(s.fanout[l])
		if !s.noSR[l] {
			accSR *= float64(s.fanout[l])
		}
		fanPrefix[l] = accP
		fanPrefixSR[l] = accSR
	}
	s.lbMaxSpatial = fanPrefix[top]

	// instMax[l]: maximal instance count of a level-l slot — the fanout
	// product strictly above l (cycles()'s e.inst with every fanout used).
	instMax := make([]float64, s.nLevels)
	acc := 1.0
	for l := top; l >= 0; l-- {
		instMax[l] = acc
		acc *= float64(s.fanout[l])
	}

	readsLB := make([]float64, len(s.slots))
	writesLB := make([]float64, len(s.slots))
	energy := macsU * s.macPJ

	for ti := range s.tensors {
		tp := &s.tensors[ti]

		// fpFull: footprint over the unpadded problem bounds — the distinct
		// elements every flow of this tensor must move at least once.
		fp := 1.0
		for ai := range tp.axes {
			ex := 1
			for _, t := range tp.axes[ai].terms {
				ex += t.stride * (s.bounds[t.dim] - 1)
			}
			fp *= float64(ex)
		}

		// srCapped: every non-indexing dim is a reduction dim, so the
		// tensor's merge width can only grow at SR-allowing levels.
		srCapped := true
		for i := range s.dims {
			if !tp.indexing[i] && !isRed[i] {
				srCapped = false
				break
			}
		}

		for fi := range tp.flows {
			fl := &tp.flows[fi]
			if fl.child < 0 {
				// Datapath flow at the innermost keeper.
				mergeCap := fanPrefix[fl.parent]
				if srCapped {
					mergeCap = fanPrefixSR[fl.parent]
				}
				v := macsU / mergeCap
				if tp.output {
					// psum re-reads equal the writes in account().
					readsLB[fl.pSlot] += v
					writesLB[fl.pSlot] += v
					energy += v * (fl.pReadPJ + fl.pWritePJ)
				} else {
					readsLB[fl.pSlot] += v
					energy += v * fl.pReadPJ
				}
				continue
			}
			// Keeper-pair flow (child, parent): mc is the maximal multicast
			// (input) width between the levels.
			mc := fanPrefix[fl.parent] / fanPrefix[fl.child]
			if tp.output {
				// Writeback: ≥ fpFull words written to the parent, each
				// drained through the child at least once.
				writesLB[fl.pSlot] += fp
				readsLB[fl.cSlot] += fp
				energy += fp * (fl.pWritePJ + fl.cReadPJ)
			} else {
				// Fill: ≥ fpFull words into the child, sourced by at least
				// fpFull/mc parent reads.
				readsLB[fl.pSlot] += fp / mc
				writesLB[fl.cSlot] += fp
				energy += fp/mc*fl.pReadPJ + fp*fl.cWritePJ
			}
		}
	}

	worst := 0.0
	for si := range s.slots {
		sp := &s.slots[si]
		if !sp.resolved {
			continue
		}
		var t float64
		if sp.readBW > 0 {
			t += readsLB[si] / (sp.readBW * instMax[sp.lvl])
		}
		if sp.writeBW > 0 {
			t += writesLB[si] / (sp.writeBW * instMax[sp.lvl])
		}
		if t > worst {
			worst = t
		}
	}

	s.lbMacsU = macsU * lbSlack
	s.lbEnergyPJ = energy * lbSlack
	s.lbXferCycles = worst * lbSlack
}

// LowerBound returns a floor on (EnergyPJ, Cycles) for any valid completion
// of a mapping whose total spatial parallelism cannot exceed maxSpatial.
// Pass maxSpatial <= 0 (or anything above the fanout product) for the
// problem-wide bound. It is meant to be admissible, and the property tests
// find no valid mapping below it on their fixtures, but it is not
// everywhere: on strided 1x1 convs (ResNet-18 conv3_ds/conv4_ds/conv5_ds
// at batch 16) the cycle floor is too high and valid mappings evaluate to
// 0.44-0.94x of the bound's EDP. perfbench reports these cases as
// analytic.bound_violations.
func (s *Session) LowerBound(maxSpatial float64) (energyPJ, cycles float64) {
	if maxSpatial <= 0 || maxSpatial > s.lbMaxSpatial {
		maxSpatial = s.lbMaxSpatial
	}
	cycles = s.lbMacsU / maxSpatial
	if s.lbXferCycles > cycles {
		cycles = s.lbXferCycles
	}
	return s.lbEnergyPJ, cycles
}

// insertionSortStrings avoids importing sort for one tiny build-time sort.
func insertionSortStrings(a []string) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// Evaluator owns the mutable scratch for scoring mappings against one
// Session. It is NOT safe for concurrent use; create one per worker
// goroutine (Session.NewEvaluator is cheap and the Session itself is
// shared).
type Evaluator struct {
	s *Session

	// Snapshot of the mapping under evaluation (filled by snapshot()).
	tb    []int   // nLevels x nDims temporal bounds (the T() view)
	sf    []int   // nLevels x nDims spatial factors (the S() view)
	eo    []int32 // nLevels x nDims effective order of bound>1 temporal loops
	eoLen []int
	spIdx []int32 // per-level spatial entries with s>1: dim indices...
	spS   []int64 // ...and factors
	spOff []int   // level l's entries are spIdx/spS[spOff[l]:spOff[l+1]]
	seen  []bool

	// Evaluation scratch.
	cum    []int // nLevels x nDims cumulative extents (Extents at each level)
	ext    []int // per-flow working extents
	loopD  []int32
	loopB  []int
	bd     []float64
	acc    []Access
	inst   []float64
	macs   int64 // padded MAC count of the last valid compute
	srUsed bool  // the last compute combined partials across a width > 1
}

// NewEvaluator returns a fresh Evaluator with all scratch preallocated.
func (s *Session) NewEvaluator() *Evaluator {
	nd, nl := len(s.dims), s.nLevels
	return &Evaluator{
		s:     s,
		tb:    make([]int, nl*nd),
		sf:    make([]int, nl*nd),
		eo:    make([]int32, nl*nd),
		eoLen: make([]int, nl),
		spIdx: make([]int32, nl*nd),
		spS:   make([]int64, nl*nd),
		spOff: make([]int, nl+1),
		seen:  make([]bool, nd),
		cum:   make([]int, nl*nd),
		ext:   make([]int, nd),
		loopD: make([]int32, nl*nd),
		loopB: make([]int, nl*nd),
		bd:    make([]float64, len(s.compNames)),
		acc:   make([]Access, len(s.slots)),
		inst:  make([]float64, nl),
	}
}

// Report validates and scores m, returning the full Report: the scalars,
// the per-component energy Breakdown, the per-slot Accesses, and the MAC
// count. Legality and the Invalid error come from m.Validate; invalid
// mappings get +Inf scalars and empty maps. The Probe and the evaluation
// fault hook fire once.
func (e *Evaluator) Report(m *mapping.Mapping) Report {
	s := e.s
	if s.model.Probe != nil {
		s.model.Probe.BeforeEvaluate(m)
	}
	// Chaos hook: an injected evaluation fault panics, contained by the
	// caller's per-candidate isolation like any poisoned cost model.
	faults.MustFire(faults.SiteEvaluate)
	r := Report{
		Breakdown: map[string]float64{},
		Accesses:  map[string]Access{},
		EDP:       inf,
		EnergyPJ:  inf,
		Cycles:    inf,
	}
	if r.Invalid = m.Validate(); r.Invalid != nil {
		return r
	}
	edp, energyPJ, cycles, valid := inf, inf, inf, false
	if e.snapshot(m) {
		edp, energyPJ, cycles, valid = e.compute()
	}
	if !valid {
		r.Invalid = errors.New("cost: the model rejects a mapping Validate accepts")
		return r
	}
	r.Valid, r.EDP, r.EnergyPJ, r.Cycles, r.MACs = true, edp, energyPJ, cycles, e.macs
	for ci, name := range s.compNames {
		if s.compListed[ci] || (ci == s.compSR && e.srUsed) {
			r.Breakdown[name] = e.bd[ci]
		}
	}
	for si := range s.slots {
		r.Accesses[s.slots[si].key] = e.acc[si]
	}
	return r
}

// EvaluateEDP scores m on the zero-allocation scalar path, returning exactly
// the EDP/EnergyPJ/Cycles/Valid that Report would. Every call computes: a
// search scores only a few hundred mappings, so scoring again is cheaper
// than keeping a per-mapping result cache alive for the Session's lifetime.
// The Probe and the evaluation fault hook fire on every call.
func (e *Evaluator) EvaluateEDP(m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool) {
	if e.s.model.Probe != nil {
		e.s.model.Probe.BeforeEvaluate(m)
	}
	// Chaos hook: an injected evaluation fault panics, contained by the
	// caller's per-candidate isolation like any poisoned cost model.
	faults.MustFire(faults.SiteEvaluate)
	if !e.snapshot(m) {
		return inf, inf, inf, false
	}
	return e.compute()
}

// EvaluateEDPUncached is EvaluateEDP. It survives only because the
// repository benchmark compiles against it; the next benchmark change
// removes it.
func (e *Evaluator) EvaluateEDPUncached(m *mapping.Mapping) (edp, energyPJ, cycles float64, valid bool) {
	return e.EvaluateEDP(m)
}

// Key returns the mapping's canonical fingerprint, or ok=false when the
// snapshot already proves the mapping invalid (a raw factor < 1, or a
// spatial factor > 1 on a dimension the workload does not declare). No
// Probe fires: computing a key is not an evaluation.
func (e *Evaluator) Key(m *mapping.Mapping) (k Key, ok bool) {
	if !e.snapshot(m) {
		return Key{}, false
	}
	return e.key(), true
}

// snapshot captures m's T/S bounds, per-level spatial entries, and the
// effective order of its bound>1 temporal loops into the evaluator scratch.
// It returns false, leaving the scratch partial, when the raw maps hold
// what Validate rejects but the T/S view cannot represent: a factor < 1,
// or a spatial factor > 1 on an undeclared dimension. Such a mapping is
// invalid.
func (e *Evaluator) snapshot(m *mapping.Mapping) bool {
	s := e.s
	nd := len(s.dims)
	sp := 0
	for l := 0; l < s.nLevels; l++ {
		lm := &m.Levels[l]
		for _, n := range lm.Temporal {
			if n < 1 {
				return false
			}
		}
		for d, n := range lm.Spatial {
			if n < 1 {
				return false
			}
			if n > 1 {
				if _, known := s.dimIdx[d]; !known {
					return false
				}
			}
		}
		base := l * nd
		for i, d := range s.dims {
			e.tb[base+i] = lm.T(d)
			e.sf[base+i] = lm.S(d)
		}
		e.spOff[l] = sp
		for i := 0; i < nd; i++ {
			if f := e.sf[base+i]; f > 1 {
				e.spIdx[sp] = int32(i)
				e.spS[sp] = int64(f)
				sp++
			}
		}
		// Effective order restricted to bound>1 loops: declared order first
		// (deduped, declared dims only), then the canonical remainder —
		// bound-1 loops never break reuse, so dropping them here
		// canonicalizes equal-cost orderings onto one Key.
		cnt := 0
		for _, d := range lm.Order {
			i, known := s.dimIdx[d]
			if !known || e.seen[i] {
				continue
			}
			e.seen[i] = true
			if e.tb[base+i] > 1 {
				e.eo[base+cnt] = int32(i)
				cnt++
			}
		}
		for i := 0; i < nd; i++ {
			if !e.seen[i] && e.tb[base+i] > 1 {
				e.eo[base+cnt] = int32(i)
				cnt++
			}
		}
		e.eoLen[l] = cnt
		for i := 0; i < nd; i++ {
			e.seen[i] = false
		}
	}
	e.spOff[s.nLevels] = sp
	return true
}

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// key folds the snapshot into a 128-bit fingerprint: two independently
// seeded/mixed 64-bit accumulators over the same value stream.
func (e *Evaluator) key() Key {
	s := e.s
	nd := len(s.dims)
	h1 := uint64(0x9e3779b97f4a7c15)
	h2 := uint64(0xc2b2ae3d27d4eb4f)
	fold := func(v uint64) {
		h1 = mix64(h1 ^ v)
		h2 = mix64(h2 + v*0xff51afd7ed558ccd)
	}
	for l := 0; l < s.nLevels; l++ {
		base := l * nd
		fold(0xf00d + uint64(l))
		for k := 0; k < e.eoLen[l]; k++ {
			fold(uint64(e.eo[base+k]) | 1<<32)
		}
		for i := 0; i < nd; i++ {
			fold(uint64(e.tb[base+i]))
			fold(uint64(e.sf[base+i]) | 1<<40)
		}
	}
	return Key{Hi: h1, Lo: h2}
}

// compute runs the cost model over the snapshot against the precomputed
// tables, leaving the per-component energy in e.bd and the per-slot access
// counts in e.acc. It allocates nothing.
func (e *Evaluator) compute() (edp, energyPJ, cycles float64, valid bool) {
	s := e.s
	nd := len(s.dims)
	top := s.nLevels - 1

	// Cumulative extents per level (the Extents view): cum[l][i] is the tile
	// extent of dim i at level l. Same int-multiply sequence as Extent.
	for i := 0; i < nd; i++ {
		e.cum[i] = e.tb[i] * e.sf[i]
	}
	for l := 1; l < s.nLevels; l++ {
		base, prev := l*nd, (l-1)*nd
		for i := 0; i < nd; i++ {
			e.cum[base+i] = e.cum[prev+i] * (e.tb[base+i] * e.sf[base+i])
		}
	}

	// Validity, in Validate's order of checks (the boolean outcome is all
	// that matters; invalid maps to +Inf scalars).
	topBase := top * nd
	for i := 0; i < nd; i++ {
		if e.cum[topBase+i] < s.bounds[i] {
			return inf, inf, inf, false
		}
	}
	for ci := range s.caps {
		cp := &s.caps[ci]
		var usedBits int64
		for _, ti := range cp.tensors {
			usedBits += int64(e.footprint(&s.tensors[ti], cp.lvl*nd)) * int64(s.a.Bits(s.w.Tensors[ti].Name))
		}
		if usedBits > cp.capBits {
			return inf, inf, inf, false
		}
	}
	for l := 0; l < s.nLevels; l++ {
		spp := 1
		for k := e.spOff[l]; k < e.spOff[l+1]; k++ {
			spp *= int(e.spS[k])
		}
		if spp > s.fanout[l] {
			return inf, inf, inf, false
		}
		if s.noSR[l] {
			base := l * nd
			for _, ri := range s.redDims {
				if e.sf[base+ri] > 1 {
					return inf, inf, inf, false
				}
			}
		}
	}

	// MACs (PaddedMACs): product of per-dim coverage.
	macs := int64(1)
	for i := 0; i < nd; i++ {
		macs *= int64(e.cum[topBase+i])
	}

	for i := range e.bd {
		e.bd[i] = 0
	}
	for i := range e.acc {
		e.acc[i] = Access{}
	}
	e.macs, e.srUsed = macs, false
	e.bd[s.compMAC] += float64(macs) * s.macPJ

	for ti := range s.tensors {
		tp := &s.tensors[ti]
		for fi := range tp.flows {
			fl := &tp.flows[fi]
			if fl.child < 0 {
				e.datapath(tp, fl, macs)
			} else {
				e.keeperPair(tp, fl)
			}
		}
	}

	energyPJ = 0.0
	for _, ci := range s.sumOrder {
		energyPJ += e.bd[ci]
	}
	cycles = e.cycles(macs)
	edp = energyPJ * cycles
	return edp, energyPJ, cycles, true
}

// footprint is Tensor.Footprint over the extents stored at e.cum[base:].
func (e *Evaluator) footprint(tp *tensorPlan, base int) int {
	fp := 1
	for ai := range tp.axes {
		ex := 1
		for _, t := range tp.axes[ai].terms {
			n := e.cum[base+t.dim]
			if n <= 0 {
				n = 1
			}
			ex += t.stride * (n - 1)
		}
		fp *= ex
	}
	return fp
}

// extFootprint is footprint over the per-flow working extents e.ext.
func (e *Evaluator) extFootprint(tp *tensorPlan) int {
	fp := 1
	for ai := range tp.axes {
		ex := 1
		for _, t := range tp.axes[ai].terms {
			n := e.ext[t.dim]
			if n <= 0 {
				n = 1
			}
			ex += t.stride * (n - 1)
		}
		fp *= ex
	}
	return fp
}

// mergeWidth is the product of spatial factors at levels [lo, hi] on
// dimensions not indexing tp — multicast (inputs) or spatial-reduce
// (outputs) width, and the merge divisor of the compute flow.
func (e *Evaluator) mergeWidth(tp *tensorPlan, lo, hi int) int64 {
	w := int64(1)
	for k := e.spOff[lo]; k < e.spOff[hi+1]; k++ {
		if !tp.indexing[e.spIdx[k]] {
			w *= e.spS[k]
		}
	}
	return w
}

// datapath charges the MAC datapath's traffic with tp's innermost keeper:
// one word per MAC, merged by the multicast (inputs) or spatial-reduction
// (outputs) width at or below the keeper. Outputs pay a read-modify-write
// per update.
func (e *Evaluator) datapath(tp *tensorPlan, fl *flowPlan, macs int64) {
	merge := e.mergeWidth(tp, 0, fl.parent)
	var pr, pw, psum int64
	if tp.output {
		pw = macs / merge
		psum = pw
	} else {
		pr = macs / merge
	}
	e.account(tp, fl, pr, pw, psum, 0, 0)
}

// keeperPair charges the traffic between keeper pair (child, parent): the
// child tile is refilled once per pass over the temporal loops above it,
// skipping the innermost run of loops over dims that do not index tp
// (Ordering Principles 1-2); inputs fetch only the new window on a
// sliding-window step, and outputs pay partial-sum writeback and readback.
func (e *Evaluator) keeperPair(tp *tensorPlan, fl *flowPlan) {
	s := e.s
	nd := len(s.dims)
	top := s.nLevels - 1
	c, p := fl.child, fl.parent

	// Working extents: the child tile enlarged by every spatial unroll above
	// it (replication by non-indexing unrolls above the parent is folded
	// into fp, not the extents).
	copy(e.ext, e.cum[c*nd:c*nd+nd])
	for k := e.spOff[c+1]; k < e.spOff[top+1]; k++ {
		e.ext[e.spIdx[k]] *= int(e.spS[k])
	}
	fp := int64(e.extFootprint(tp))
	fp *= e.mergeWidth(tp, p+1, top)

	// Temporal loops at levels (c, top], innermost first; bound-1 loops are
	// already absent from the snapshot's effective orders.
	nLoops := 0
	for l := c + 1; l <= top; l++ {
		base := l * nd
		for k := 0; k < e.eoLen[l]; k++ {
			i := e.eo[base+k]
			e.loopD[nLoops] = i
			e.loopB[nLoops] = e.tb[base+int(i)]
			nLoops++
		}
	}
	passes := int64(1)
	inPrefix := true
	breakIdx := -1
	for li := 0; li < nLoops; li++ {
		if inPrefix && !tp.indexing[e.loopD[li]] {
			continue
		}
		if inPrefix {
			inPrefix = false
			breakIdx = li
		}
		passes *= int64(e.loopB[li])
	}

	if tp.output {
		outIters := int64(1)
		for li := 0; li < nLoops; li++ {
			if tp.indexing[e.loopD[li]] {
				outIters *= int64(e.loopB[li])
			}
		}
		pw := passes * fp
		psum := (passes - outIters) * fp
		drains := pw * e.mergeWidth(tp, c+1, p)
		e.account(tp, fl, 0, pw, psum, 0, drains)
		return
	}

	reads := passes * fp
	if s.model.SlidingReuse && breakIdx >= 0 && tp.winOnly[e.loopD[breakIdx]] {
		inc := e.incFootprint(tp, int(e.loopD[breakIdx]))
		outer := passes / int64(e.loopB[breakIdx])
		reads = outer * (fp + int64(e.loopB[breakIdx]-1)*inc)
	}
	fills := reads * e.mergeWidth(tp, c+1, p)
	e.account(tp, fl, reads, 0, 0, fills, 0)
}

// incFootprint is the footprint of the new data fetched when the tile
// advances one step along window dim d: each compound axis containing d
// contributes the step stride_d * ext[d] (capped at the axis extent)
// instead of its full extent.
func (e *Evaluator) incFootprint(tp *tensorPlan, d int) int64 {
	fp := int64(1)
	for ai := range tp.axes {
		terms := tp.axes[ai].terms
		full := 1
		hasD := false
		strideD := 0
		for _, t := range terms {
			n := e.ext[t.dim]
			if n <= 0 {
				n = 1
			}
			full += t.stride * (n - 1)
			if t.dim == d {
				hasD = true
				strideD = t.stride
			}
		}
		if hasD && len(terms) > 1 {
			step := strideD * e.ext[d]
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

// account charges one flow's buffer energy and access-slot counts, plus
// the NoC energy of distributing input words down (multicast at each
// fanout level) or collecting output partials up (combined at each level
// that reduces across a width > 1).
func (e *Evaluator) account(tp *tensorPlan, fl *flowPlan, pr, pw, psum, fills, drains int64) {
	s := e.s
	e.acc[fl.pSlot].Reads += pr + psum
	e.acc[fl.pSlot].Writes += pw
	e.bd[fl.pComp] += float64(pr+psum)*fl.pReadPJ + float64(pw)*fl.pWritePJ

	if fl.child >= 0 {
		if tp.output {
			e.acc[fl.cSlot].Reads += drains
			e.acc[fl.cSlot].Writes += psum
			e.bd[fl.cComp] += float64(drains)*fl.cReadPJ + float64(psum)*fl.cWritePJ
		} else {
			e.acc[fl.cSlot].Writes += fills
			e.bd[fl.cComp] += float64(fills) * fl.cWritePJ
		}
	}

	lo := fl.child
	if lo < 0 {
		lo = -1
	}
	if tp.output {
		vol := float64(pw)
		volBelow := vol * float64(e.mergeWidth(tp, lo+1, fl.parent))
		for l := lo + 1; l <= fl.parent; l++ {
			if s.fanout[l] <= 1 {
				continue
			}
			rho := e.levelWidth(tp, l)
			if rho > 1 {
				e.srUsed = true
				e.bd[s.compSR] += volBelow * s.levels[l].spatialReducePJ
				volBelow /= float64(rho)
			}
			e.bd[s.compNoC] += volBelow * s.levels[l].noCPerWordPJ
		}
	} else {
		vol := float64(pr)
		for l := fl.parent; l > lo; l-- {
			if s.fanout[l] <= 1 {
				continue
			}
			e.bd[s.compNoC] += vol * s.levels[l].noCPerWordPJ
			vol *= float64(e.levelWidth(tp, l))
			e.bd[s.compNoC] += vol * s.levels[l].noCTagCheckPJ
		}
	}
}

// levelWidth is level l's own multicast (or reduction) width for tp: its
// spatial product over dims that do not index tp.
func (e *Evaluator) levelWidth(tp *tensorPlan, l int) int64 {
	w := int64(1)
	for k := e.spOff[l]; k < e.spOff[l+1]; k++ {
		if !tp.indexing[e.spIdx[k]] {
			w *= e.spS[k]
		}
	}
	return w
}

// cycles is the double-buffered latency: the maximum of compute time and
// any slot's transfer time (reads and writes serialized per port, the
// active instances above the slot's level dividing the traffic).
func (e *Evaluator) cycles(macs int64) float64 {
	s := e.s
	spatialUsed := 1
	for l := 0; l < s.nLevels; l++ {
		spp := 1
		for k := e.spOff[l]; k < e.spOff[l+1]; k++ {
			spp *= int(e.spS[k])
		}
		spatialUsed *= spp
	}
	compute := float64(macs) / float64(spatialUsed)
	worst := compute

	acc := 1.0
	for l := s.nLevels - 1; l >= 0; l-- {
		e.inst[l] = acc
		spp := 1
		for k := e.spOff[l]; k < e.spOff[l+1]; k++ {
			spp *= int(e.spS[k])
		}
		acc *= float64(spp)
	}

	for si := range s.slots {
		sp := &s.slots[si]
		if !sp.resolved {
			continue
		}
		var t float64
		if sp.readBW > 0 {
			t += float64(e.acc[si].Reads) / (sp.readBW * e.inst[sp.lvl])
		}
		if sp.writeBW > 0 {
			t += float64(e.acc[si].Writes) / (sp.writeBW * e.inst[sp.lvl])
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
