// Package network defines the fusion IR the network-scheduling stack is
// built on: a Network is an ordered chain of typed Layer nodes with explicit
// producer→consumer tensor Edges. The network scheduler (internal/core's
// fused solver) solves the Layers independently, then walks the Edges to
// enumerate contiguous fusion groups whose intermediate tensors stay
// resident on-chip (see cost.Residency).
//
// An Edge carries the inter-layer tile-compatibility constraint: the
// producer's output tensor and the consumer's input tensor name the same
// data (up to the consumer's halo/padding view), so a level that keeps both
// can hand the intermediate over in place. PinLevel resolves where that is
// possible on a concrete architecture; HandoffBytes says how much capacity
// the resident intermediate reserves there.
package network

import (
	"fmt"

	"sunstone/internal/arch"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// Layer is one node of a Network: a workload plus its back-to-back
// occurrence count in the executed chain.
type Layer struct {
	Name     string
	Workload *tensor.Workload
	// Repeats counts consecutive occurrences of this layer (ResNet-18's
	// conv2_x block appears four times in a row). Values below 1 are kept
	// verbatim for the legacy weighting semantics of the unfused adapter
	// but are rejected by Validate, which the fused scheduler requires.
	Repeats int
}

// Edge is one producer→consumer tensor handoff between chain neighbors:
// layer To consumes layer From's output. From == To is the self-edge of a
// repeated layer (occurrence i feeds occurrence i+1); otherwise To must be
// From+1 — the IR is a chain, not a general DAG.
type Edge struct {
	From, To int
	// FromTensor names the producer's output tensor; ToTensor names the
	// consumer's input tensor reading the same data.
	FromTensor, ToTensor string
}

// Network is an ordered chain of layers with the edges along which fusion is
// legal. Absent edges are forced fusion cuts: consecutive layers without an
// edge never share a group.
type Network struct {
	Name   string
	Layers []Layer
	Edges  []Edge
}

// Position is one executed layer occurrence in chain order (repeats
// expanded).
type Position struct {
	Layer int // index into Layers
	Occ   int // 0-based occurrence within the layer's repeats
}

// Positions expands layer repeats into the explicit executed chain, in
// network order. Repeats below 1 contribute a single position.
func (n *Network) Positions() []Position {
	var out []Position
	for li := range n.Layers {
		rep := n.Layers[li].Repeats
		if rep < 1 {
			rep = 1
		}
		for o := 0; o < rep; o++ {
			out = append(out, Position{Layer: li, Occ: o})
		}
	}
	return out
}

// EdgeBetween returns the edge handing layer from's output to layer to, if
// any. Consecutive chain positions use it with (p.Layer, q.Layer): the
// self-edge when both positions belong to one repeated layer, the cross
// edge otherwise.
func (n *Network) EdgeBetween(from, to int) (Edge, bool) {
	for _, e := range n.Edges {
		if e.From == from && e.To == to {
			return e, true
		}
	}
	return Edge{}, false
}

// Validate checks the structural invariants the fused scheduler relies on:
// non-empty chain, valid workloads, positive repeats, chain-shaped edges
// whose endpoint tensors exist with the right polarity, and the tile-
// compatibility constraint that the consumer's input view covers the
// producer's output (equal data up to the consumer's halo/padding).
func (n *Network) Validate() error {
	if len(n.Layers) == 0 {
		return fmt.Errorf("network %q has no layers", n.Name)
	}
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.Workload == nil {
			return fmt.Errorf("network %q: layer %d (%s) has no workload", n.Name, i, l.Name)
		}
		if err := l.Workload.Validate(); err != nil {
			return fmt.Errorf("network %q: layer %d (%s): %w", n.Name, i, l.Name, err)
		}
		if l.Repeats < 1 {
			return fmt.Errorf("network %q: layer %d (%s) has repeats %d, must be >= 1",
				n.Name, i, l.Name, l.Repeats)
		}
	}
	seen := map[[2]int]bool{}
	for _, e := range n.Edges {
		if e.From < 0 || e.From >= len(n.Layers) || e.To < 0 || e.To >= len(n.Layers) {
			return fmt.Errorf("network %q: edge %d->%d out of range", n.Name, e.From, e.To)
		}
		if e.To != e.From && e.To != e.From+1 {
			return fmt.Errorf("network %q: edge %d->%d is not chain-shaped (self or next only)",
				n.Name, e.From, e.To)
		}
		if seen[[2]int{e.From, e.To}] {
			return fmt.Errorf("network %q: duplicate edge %d->%d", n.Name, e.From, e.To)
		}
		seen[[2]int{e.From, e.To}] = true
		prod, cons := &n.Layers[e.From], &n.Layers[e.To]
		ft := prod.Workload.Tensor(e.FromTensor)
		if ft == nil || !ft.Output {
			return fmt.Errorf("network %q: edge %d->%d: %q is not an output of layer %s",
				n.Name, e.From, e.To, e.FromTensor, prod.Name)
		}
		tt := cons.Workload.Tensor(e.ToTensor)
		if tt == nil || tt.Output {
			return fmt.Errorf("network %q: edge %d->%d: %q is not an input of layer %s",
				n.Name, e.From, e.To, e.ToTensor, cons.Name)
		}
		pf := ft.Footprint(prod.Workload.FullExtents())
		cf := tt.Footprint(cons.Workload.FullExtents())
		if pf > cf {
			return fmt.Errorf("network %q: edge %s.%s->%s.%s: producer footprint %d exceeds the consumer's input view %d (tile-incompatible handoff)",
				n.Name, prod.Name, e.FromTensor, cons.Name, e.ToTensor, pf, cf)
		}
	}
	return nil
}

// PinLevel returns the outermost on-chip level of a that can hold edge e's
// handoff resident: a level below the top whose bounded buffers keep both
// the producer's output name and the consumer's input name. Returns -1 when
// no such level exists — the edge cannot fuse on this architecture.
func PinLevel(a *arch.Arch, e Edge) int {
	for l := len(a.Levels) - 2; l >= 0; l-- {
		pb := a.Levels[l].BufferFor(e.FromTensor)
		cb := a.Levels[l].BufferFor(e.ToTensor)
		if pb != nil && pb.Bytes > 0 && cb != nil && cb.Bytes > 0 {
			return l
		}
	}
	return -1
}

// HandoffBytes returns the capacity the edge's resident intermediate
// reserves at its pin level: the larger of the producer's full output
// footprint and the consumer's full input view (the consumer may read a
// halo-padded superset), at the wider of the two word widths.
func (n *Network) HandoffBytes(a *arch.Arch, e Edge) int64 {
	prod, cons := &n.Layers[e.From], &n.Layers[e.To]
	fp := prod.Workload.Tensor(e.FromTensor).Footprint(prod.Workload.FullExtents())
	if cf := cons.Workload.Tensor(e.ToTensor).Footprint(cons.Workload.FullExtents()); cf > fp {
		fp = cf
	}
	bits := a.Bits(e.FromTensor)
	if b := a.Bits(e.ToTensor); b > bits {
		bits = b
	}
	return (int64(fp)*int64(bits) + 7) / 8
}

// FromConvShapes builds the conv-chain IR of a layer table: one layer per
// shape at the given batch, a self-edge for every repeated shape whose
// output feeds itself (K == C), and a cross edge between consecutive shapes
// whose channels chain (K_i == C_{i+1}) and whose spatial geometry consumes
// the producer's output directly — a shrunken consumer view (an unmodeled
// pooling stage, e.g. ResNet's conv1 → conv2_x maxpool) forces a fusion cut
// instead.
// A nil repeats slice means one occurrence each; a non-nil slice must match
// shapes in length. A non-positive batch, loop bound or stride is an error
// naming the offending layer's index and name.
func FromConvShapes(name string, shapes []workloads.ConvShape, batch int, repeats []int) (*Network, error) {
	if repeats != nil && len(repeats) != len(shapes) {
		return nil, fmt.Errorf("repeats has %d entries for %d shapes", len(repeats), len(shapes))
	}
	net := &Network{Name: name}
	inH := func(cs workloads.ConvShape) (int, int) {
		return (cs.P-1)*cs.StrideH + cs.R, (cs.Q-1)*cs.StrideW + cs.S
	}
	for i, cs := range shapes {
		if bad := nonPositiveDim(cs, batch); bad != "" {
			return nil, fmt.Errorf("layer %d (%s): %s, must be positive", i, cs.Name, bad)
		}
		rep := 1
		if repeats != nil {
			rep = repeats[i]
		}
		net.Layers = append(net.Layers, Layer{Name: cs.Name, Workload: cs.Inference(batch), Repeats: rep})
		if rep > 1 && cs.K == cs.C {
			if h, w := inH(cs); h >= cs.P && w >= cs.Q {
				net.Edges = append(net.Edges, Edge{From: i, To: i, FromTensor: arch.Ofmap, ToTensor: arch.Ifmap})
			}
		}
		if i+1 < len(shapes) && cs.K == shapes[i+1].C {
			if h, w := inH(shapes[i+1]); h >= cs.P && w >= cs.Q {
				net.Edges = append(net.Edges, Edge{From: i, To: i + 1, FromTensor: arch.Ofmap, ToTensor: arch.Ifmap})
			}
		}
	}
	return net, nil
}

// nonPositiveDim names the first loop bound or stride of cs at batch that
// is not positive (the inputs workload construction rejects), or "".
func nonPositiveDim(cs workloads.ConvShape, batch int) string {
	for _, d := range []struct {
		name string
		v    int
	}{
		{"batch", batch}, {"K", cs.K}, {"C", cs.C}, {"P", cs.P}, {"Q", cs.Q},
		{"R", cs.R}, {"S", cs.S}, {"StrideH", cs.StrideH}, {"StrideW", cs.StrideW},
	} {
		if d.v < 1 {
			return fmt.Sprintf("%s = %d", d.name, d.v)
		}
	}
	return ""
}

// TransformerChain is the MHA-flavored GEMM→GEMM chain preset: the four
// back-to-back projections of one transformer block — QKV projection,
// attention output projection, FFN up-projection, FFN down-projection —
// over a seq×dModel activation. (The attention score/value contractions
// between the projections reuse the same activations and are elided; this
// is the GEMM chain fusion has to keep on-chip.) Every adjacent pair
// chains (K_i == C_{i+1}), so the whole block is one fusible segment.
func TransformerChain(seq, dModel, dFF int) *Network {
	mk := func(name string, k, c int) Layer {
		return Layer{Name: name, Workload: workloads.FC(name, seq, k, c), Repeats: 1}
	}
	net := &Network{
		Name: "transformer",
		Layers: []Layer{
			mk("qkv_proj", dModel, dModel),
			mk("attn_out", dModel, dModel),
			mk("ffn_up", dFF, dModel),
			mk("ffn_down", dModel, dFF),
		},
	}
	for i := 0; i+1 < len(net.Layers); i++ {
		net.Edges = append(net.Edges, Edge{From: i, To: i + 1, FromTensor: arch.Ofmap, ToTensor: arch.Ifmap})
	}
	return net
}
