// Package mapping defines the dataflow-mapping representation shared by
// Sunstone and every baseline mapper, plus the legality validator used to
// flag the invalid mappings the paper reports for prior tools.
//
// A mapping assigns to each architecture storage level l (innermost first,
// index-aligned with arch.Arch.Levels):
//
//   - Temporal[d]: the bound of the temporal loop over dimension d at level
//     l — how many level-(l-1) tiles are traversed in time;
//   - Order: the innermost-first order of those temporal loops (the paper's
//     "loop reordering"; only loops with bound > 1 matter);
//   - Spatial[d]: the unroll factor of dimension d across the level's
//     spatial fanout (parallel instances of the subtree below l).
//
// The tile held at level l therefore has, per dimension, extent
// E(d,l) = prod_{l' <= l} Temporal[l'][d] * Spatial[l'][d], and the loops at
// level l+1 iterate over level-l tiles. The product over all levels must
// cover the (possibly padded) problem dimension.
package mapping

import (
	"fmt"
	"sort"
	"strings"

	"sunstone/internal/arch"
	"sunstone/internal/tensor"
)

// LevelMapping holds the loops assigned at one storage level.
type LevelMapping struct {
	// Temporal maps each dimension to its temporal loop bound at this
	// level; missing dimensions default to 1.
	Temporal map[tensor.Dim]int
	// Order lists temporal dimensions innermost-first. Dimensions absent
	// from Order (or with bound 1) are appended outermost in canonical
	// order; bound-1 loops never affect reuse.
	Order []tensor.Dim
	// Spatial maps dimensions to unroll factors across this level's fanout.
	Spatial map[tensor.Dim]int
}

// T returns the temporal bound of d at this level (default 1).
func (lm *LevelMapping) T(d tensor.Dim) int {
	if n, ok := lm.Temporal[d]; ok && n > 0 {
		return n
	}
	return 1
}

// S returns the spatial unroll factor of d at this level (default 1).
func (lm *LevelMapping) S(d tensor.Dim) int {
	if n, ok := lm.Spatial[d]; ok && n > 0 {
		return n
	}
	return 1
}

// SpatialProduct returns the product of all spatial factors at this level.
func (lm *LevelMapping) SpatialProduct() int {
	p := 1
	for _, n := range lm.Spatial {
		if n > 1 {
			p *= n
		}
	}
	return p
}

// Mapping binds a workload to an architecture.
type Mapping struct {
	Workload *tensor.Workload
	Arch     *arch.Arch
	Levels   []LevelMapping // index-aligned with Arch.Levels
}

// New returns a mapping with every loop bound 1 (nothing assigned yet).
func New(w *tensor.Workload, a *arch.Arch) *Mapping {
	m := &Mapping{Workload: w, Arch: a, Levels: make([]LevelMapping, len(a.Levels))}
	for i := range m.Levels {
		m.Levels[i].Temporal = map[tensor.Dim]int{}
		m.Levels[i].Spatial = map[tensor.Dim]int{}
	}
	return m
}

// Clone deep-copies the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{Workload: m.Workload, Arch: m.Arch, Levels: make([]LevelMapping, len(m.Levels))}
	for i := range m.Levels {
		src := &m.Levels[i]
		dst := &c.Levels[i]
		dst.Temporal = make(map[tensor.Dim]int, len(src.Temporal))
		for d, n := range src.Temporal {
			dst.Temporal[d] = n
		}
		dst.Spatial = make(map[tensor.Dim]int, len(src.Spatial))
		for d, n := range src.Spatial {
			dst.Spatial[d] = n
		}
		dst.Order = append([]tensor.Dim(nil), src.Order...)
	}
	return c
}

// Extent returns the tile extent of dimension d at level lvl:
// the product of temporal and spatial factors at levels 0..lvl.
func (m *Mapping) Extent(d tensor.Dim, lvl int) int {
	e := 1
	for l := 0; l <= lvl && l < len(m.Levels); l++ {
		e *= m.Levels[l].T(d) * m.Levels[l].S(d)
	}
	return e
}

// Extents returns the per-dimension tile extents at level lvl.
func (m *Mapping) Extents(lvl int) map[tensor.Dim]int {
	ext := make(map[tensor.Dim]int, len(m.Workload.Dims))
	for d := range m.Workload.Dims {
		ext[d] = m.Extent(d, lvl)
	}
	return ext
}

// Coverage returns the total factor product for dimension d across all
// levels (temporal and spatial). A legal mapping has Coverage(d) >= Dims[d].
func (m *Mapping) Coverage(d tensor.Dim) int {
	return m.Extent(d, len(m.Levels)-1)
}

// PaddedMACs returns the number of loop-body evaluations the mapping actually
// executes (including padding waste): the product of per-dimension coverage.
func (m *Mapping) PaddedMACs() int64 {
	p := int64(1)
	for d := range m.Workload.Dims {
		p *= int64(m.Coverage(d))
	}
	return p
}

// EffectiveOrder returns the complete innermost-first temporal loop order at
// level lvl: the explicit Order first, then any remaining dimensions in
// canonical workload order.
func (m *Mapping) EffectiveOrder(lvl int) []tensor.Dim {
	lm := &m.Levels[lvl]
	seen := map[tensor.Dim]bool{}
	out := make([]tensor.Dim, 0, len(m.Workload.Dims))
	for _, d := range lm.Order {
		if _, declared := m.Workload.Dims[d]; declared && !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, d := range m.Workload.Order {
		if !seen[d] {
			out = append(out, d)
		}
	}
	return out
}

// FootprintBits returns the storage, in bits, tensor t occupies at level lvl.
func (m *Mapping) FootprintBits(t *tensor.Tensor, lvl int) int64 {
	fp := int64(t.Footprint(m.Extents(lvl)))
	return fp * int64(m.Arch.Bits(t.Name))
}

// Validate checks full mapping legality:
//
//  1. coverage: per-dimension factor products cover the problem bounds;
//  2. capacity: at every level, for every buffer, the tiles of the tensors
//     it holds fit (the invalidity mode the paper reports for CoSA and
//     dMazeRunner);
//  3. fanout: the spatial factor product at each level fits its fanout;
//  4. spatial reduction: reduction dimensions are unrolled only across
//     levels that support combining partial sums;
//  5. factors: every factor is positive, and no spatial factor > 1 sits on
//     a dimension the workload does not declare (it would spend fanout on a
//     loop that does not exist). A temporal factor on an undeclared
//     dimension changes no extent the model reads, so it stays legal.
func (m *Mapping) Validate() error {
	for _, d := range m.Workload.Order {
		if m.Coverage(d) < m.Workload.Dims[d] {
			return fmt.Errorf("dimension %s: coverage %d < bound %d", d, m.Coverage(d), m.Workload.Dims[d])
		}
	}
	for lvl := range m.Levels {
		al := &m.Arch.Levels[lvl]
		// Top level is unbounded; skip capacity there.
		if lvl < len(m.Levels)-1 {
			ext := m.Extents(lvl)
			for bi := range al.Buffers {
				buf := &al.Buffers[bi]
				if buf.Bytes == 0 {
					continue
				}
				var usedBits int64
				for _, t := range m.Workload.Tensors {
					if buf.Holds(t.Name) && m.heldHere(t.Name, lvl, bi) {
						usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
					}
				}
				if capBits := buf.Bytes * 8; usedBits > capBits {
					return fmt.Errorf("level %s buffer %s: tile needs %d bits, capacity %d bits",
						al.Name, buf.Name, usedBits, capBits)
				}
			}
		}
		lm := &m.Levels[lvl]
		if sp := lm.SpatialProduct(); sp > al.Fanout {
			return fmt.Errorf("level %s: spatial product %d exceeds fanout %d", al.Name, sp, al.Fanout)
		}
		if !al.AllowSpatialReduction {
			for _, d := range m.Workload.ReductionDims() {
				if lm.S(d) > 1 {
					return fmt.Errorf("level %s: reduction dimension %s unrolled spatially but level cannot combine partial sums", al.Name, d)
				}
			}
		}
		for d, n := range lm.Temporal {
			if n < 1 {
				return fmt.Errorf("level %s: non-positive temporal factor %d for %s", al.Name, n, d)
			}
		}
		for d, n := range lm.Spatial {
			if n < 1 {
				return fmt.Errorf("level %s: non-positive spatial factor %d for %s", al.Name, n, d)
			}
			if _, declared := m.Workload.Dims[d]; n > 1 && !declared {
				return fmt.Errorf("level %s: spatial factor %d for %s, which workload %q does not declare",
					al.Name, n, d, m.Workload.Name)
			}
		}
	}
	return nil
}

// heldHere reports whether tensor name is actually resident in buffer bi of
// level lvl: the buffer must hold it and the level must be on the tensor's
// keep chain (a level whose buffers exclude the tensor is a bypass level).
func (m *Mapping) heldHere(name string, lvl, bi int) bool {
	return m.Arch.Levels[lvl].Buffers[bi].Holds(name) && m.Arch.Levels[lvl].Keeps(name)
}

// Utilization returns, for buffer bi at level lvl, the fraction of capacity
// the mapped tiles occupy (0 for unbounded buffers). Used by the
// dMazeRunner-style utilization-threshold heuristics.
func (m *Mapping) Utilization(lvl, bi int) float64 {
	buf := &m.Arch.Levels[lvl].Buffers[bi]
	if buf.Bytes == 0 {
		return 0
	}
	ext := m.Extents(lvl)
	var usedBits int64
	for _, t := range m.Workload.Tensors {
		if buf.Holds(t.Name) {
			usedBits += int64(t.Footprint(ext)) * int64(m.Arch.Bits(t.Name))
		}
	}
	return float64(usedBits) / float64(buf.Bytes*8)
}

// PEUtilization returns the fraction of the total spatial MAC fanout the
// mapping actually uses.
func (m *Mapping) PEUtilization() float64 {
	used, avail := 1, 1
	for lvl := range m.Levels {
		used *= m.Levels[lvl].SpatialProduct()
		avail *= m.Arch.Levels[lvl].Fanout
	}
	return float64(used) / float64(avail)
}

// String renders the mapping level by level, outermost first, in the paper's
// loop-order notation (e.g. "DRAM: K4 P2 | L1: C4 R3 ...").
func (m *Mapping) String() string {
	var b strings.Builder
	for lvl := len(m.Levels) - 1; lvl >= 0; lvl-- {
		lm := &m.Levels[lvl]
		fmt.Fprintf(&b, "%s:", m.Arch.Levels[lvl].Name)
		order := m.EffectiveOrder(lvl)
		for i := len(order) - 1; i >= 0; i-- { // print outermost first
			d := order[i]
			if lm.T(d) > 1 {
				fmt.Fprintf(&b, " %s%d", d, lm.T(d))
			}
		}
		if sp := lm.SpatialProduct(); sp > 1 {
			b.WriteString(" [spatial:")
			var ds []tensor.Dim
			for d := range lm.Spatial {
				if lm.S(d) > 1 {
					ds = append(ds, d)
				}
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			for _, d := range ds {
				fmt.Fprintf(&b, " %s%d", d, lm.S(d))
			}
			b.WriteString("]")
		}
		if lvl > 0 {
			b.WriteString("\n")
		}
	}
	return b.String()
}
