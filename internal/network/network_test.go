package network

import (
	"strings"
	"testing"

	"sunstone/internal/arch"
	"sunstone/internal/workloads"
)

func TestFromConvShapesEdges(t *testing.T) {
	net, err := FromConvShapes("resnet18", workloads.ResNet18, 1, []int{1, 4, 1, 1, 3, 1, 1, 3, 1, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	// conv1 -> conv2_x crosses ResNet's maxpool (the consumer view shrinks):
	// the edge must be absent, forcing a fusion cut there.
	if _, ok := net.EdgeBetween(0, 1); ok {
		t.Error("conv1->conv2_x edge should be cut by the pooling-geometry check")
	}
	// conv2_x repeats with K == C: the self-edge makes its block fusible.
	if _, ok := net.EdgeBetween(1, 1); !ok {
		t.Error("conv2_x self-edge missing")
	}
	// conv2_x (K=64) -> conv3_1 (C=64) chains directly.
	if _, ok := net.EdgeBetween(1, 2); !ok {
		t.Error("conv2_x->conv3_1 edge missing")
	}
	// conv3_1 (K=128) -> conv3_ds (C=64): channel mismatch, no edge.
	if _, ok := net.EdgeBetween(2, 3); ok {
		t.Error("conv3_1->conv3_ds edge should not exist (K != C)")
	}
	// Positions expand repeats: 1+4+1+1+3+1+1+3+1+1+3 = 20.
	if got := len(net.Positions()); got != 20 {
		t.Errorf("positions: got %d, want 20", got)
	}
}

func TestFromConvShapesRepeatsMismatch(t *testing.T) {
	if _, err := FromConvShapes("x", workloads.ResNet18, 1, []int{1}); err == nil {
		t.Fatal("want repeats-length error")
	}
}

// TestFromConvShapesRejectsNonPositiveDims: a shape workload construction
// would panic on comes back as an error naming the layer's index and name.
func TestFromConvShapesRejectsNonPositiveDims(t *testing.T) {
	good := workloads.ConvShape{Name: "ok", K: 4, C: 4, P: 7, Q: 7, R: 3, S: 3, StrideH: 1, StrideW: 1}
	negK := good
	negK.Name, negK.K = "negk", -1
	for _, tc := range []struct {
		name  string
		shape workloads.ConvShape
		batch int
		want  string
	}{
		{"zero shape", workloads.ConvShape{Name: "bad"}, 1, `layer 1 (bad): K = 0`},
		{"zero batch", good, 0, `layer 0 (ok): batch = 0`},
		{"negative K", negK, 1, `layer 1 (negk): K = -1`},
		{"zero stride", workloads.ConvShape{Name: "s0", K: 4, C: 4, P: 7, Q: 7, R: 3, S: 3, StrideW: 1}, 1, `layer 1 (s0): StrideH = 0`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := FromConvShapes("net", []workloads.ConvShape{good, tc.shape}, tc.batch, nil)
			if err == nil {
				t.Fatalf("accepted: %+v", net)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name %q", err, tc.want)
			}
		})
	}
}

func TestValidateRejectsBadEdges(t *testing.T) {
	base := func() *Network {
		n, err := FromConvShapes("n", workloads.ResNet18[:2], 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	for _, tc := range []struct {
		name string
		edge Edge
		want string
	}{
		{"range", Edge{From: 0, To: 9, FromTensor: arch.Ofmap, ToTensor: arch.Ifmap}, "out of range"},
		{"shape", Edge{From: 1, To: 0, FromTensor: arch.Ofmap, ToTensor: arch.Ifmap}, "chain-shaped"},
		{"polarity", Edge{From: 0, To: 1, FromTensor: arch.Ifmap, ToTensor: arch.Ifmap}, "not an output"},
		{"input", Edge{From: 0, To: 1, FromTensor: arch.Ofmap, ToTensor: arch.Ofmap}, "not an input"},
	} {
		n := base()
		n.Edges = []Edge{tc.edge}
		err := n.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want %q", tc.name, err, tc.want)
		}
	}
	n := base()
	n.Layers[0].Repeats = 0
	if err := n.Validate(); err == nil || !strings.Contains(err.Error(), "repeats") {
		t.Errorf("zero repeats: got %v", err)
	}
}

func TestPinLevelAndHandoffBytes(t *testing.T) {
	net := TransformerChain(64, 64, 256)
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	e, ok := net.EdgeBetween(0, 1)
	if !ok {
		t.Fatal("transformer chain missing edge 0->1")
	}
	// Conventional: the unified L2 (level 1) is the outermost on-chip home.
	if got := PinLevel(arch.Conventional(), e); got != 1 {
		t.Errorf("conventional pin level: got %d, want 1", got)
	}
	// Simba: the global L2 (level 2) keeps ifmap+ofmap (weights bypass it).
	if got := PinLevel(arch.Simba(), e); got != 2 {
		t.Errorf("simba pin level: got %d, want 2", got)
	}
	// 64x64 activations at 16-bit words = 8192 bytes each way.
	if got := net.HandoffBytes(arch.Conventional(), e); got != 64*64*2 {
		t.Errorf("handoff bytes: got %d, want %d", got, 64*64*2)
	}
}

func TestTransformerChainFullyFusible(t *testing.T) {
	net := TransformerChain(512, 512, 2048)
	pos := net.Positions()
	if len(pos) != 4 {
		t.Fatalf("positions: got %d, want 4", len(pos))
	}
	for i := 0; i+1 < len(pos); i++ {
		if _, ok := net.EdgeBetween(pos[i].Layer, pos[i+1].Layer); !ok {
			t.Errorf("missing edge between positions %d and %d", i, i+1)
		}
	}
}
