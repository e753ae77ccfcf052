package main

import (
	"fmt"
	"math/rand"

	"sunstone/internal/arch"
	"sunstone/internal/network"
	"sunstone/internal/tensor"
	"sunstone/internal/workloads"
)

// The problem pools every workload draws from. Every problem any workload
// can draw has a reference-table key (reference.go), so the pools, the keys
// and reference.json change together.

// archPreset resolves the preset names the pools and the service use.
func archPreset(name string) *arch.Arch {
	switch name {
	case "conventional":
		return arch.Conventional()
	case "simba":
		return arch.Simba()
	case "diannao":
		return arch.DianNao()
	}
	panic("perfbench: unknown arch preset " + name)
}

// solveCase is one single-problem preset of the solve-cold pool.
type solveCase struct {
	key   string
	arch  string
	build func() *tensor.Workload
}

// convKey names a ResNet-18 inference layer at a batch on an architecture;
// the service workload submits the same problems, so it shares the keys.
func convKey(shape workloads.ConvShape, batch int, archName string) string {
	return fmt.Sprintf("resnet18/%s/b%d@%s", shape.Name, batch, archName)
}

// solveColdPool is the paper's single-problem presets: ResNet-18 batch-16
// layers on Conventional and Simba (Fig. 8), Inception-v3 batch-16 weight
// update on Conventional (Fig. 7), FROSTT MTTKRP/TTMc and SuiteSparse SDDMM
// on Conventional (Fig. 6), and ResNet-18 batch-1 layers on DianNao (Fig. 9).
func solveColdPool() []solveCase {
	var pool []solveCase
	for _, a := range []string{"conventional", "simba"} {
		for _, s := range workloads.ResNet18 {
			pool = append(pool, solveCase{convKey(s, 16, a), a, func() *tensor.Workload { return s.Inference(16) }})
		}
	}
	for _, s := range workloads.ResNet18 {
		pool = append(pool, solveCase{convKey(s, 1, "diannao"), "diannao", func() *tensor.Workload { return s.Inference(1) }})
	}
	for _, s := range workloads.InceptionV3 {
		pool = append(pool, solveCase{"inception3_wu/" + s.Name + "/b16@conventional", "conventional",
			func() *tensor.Workload { return s.WeightUpdate(16) }})
	}
	for _, d := range []workloads.TensorDataset{workloads.Nell2, workloads.Netflix, workloads.Poisson1} {
		pool = append(pool,
			solveCase{"mttkrp/" + d.Name + "@conventional", "conventional", func() *tensor.Workload { return workloads.MTTKRPOn(d) }},
			solveCase{"ttmc/" + d.Name + "@conventional", "conventional", func() *tensor.Workload { return workloads.TTMcOn(d) }})
	}
	for _, d := range []workloads.MatrixDataset{workloads.Bcsstk17, workloads.Cant} {
		pool = append(pool, solveCase{"sddmm/" + d.Name + "@conventional", "conventional",
			func() *tensor.Workload { return workloads.SDDMMOn(d) }})
	}
	return pool
}

// solveColdDraw is how many distinct presets one solve-cold pass solves.
const solveColdDraw = 40

// drawSolveCold picks solveColdDraw distinct pool indices in a seeded
// order. Each pass draws afresh, so over a run every preset is solved
// several times and runs with different seeds see the same mix.
func drawSolveCold(rng *rand.Rand, poolSize int) []int {
	return rng.Perm(poolSize)[:solveColdDraw]
}

// netCase is one network of the network-fused pool.
type netCase struct {
	key   string
	arch  string
	build func() (*network.Network, error)
}

// Transformer chain sizes the seed draws from; d_ff is always 4×d_model.
var (
	transformerSeqs   = []int{128, 256, 512}
	transformerModels = []int{256, 512, 768}
)

// transformerCases lists every drawable transformer chain.
func transformerCases() []netCase {
	var out []netCase
	for _, seq := range transformerSeqs {
		for _, dm := range transformerModels {
			out = append(out, netCase{
				key:  fmt.Sprintf("net/transformer/s%d-d%d-f%d@conventional", seq, dm, 4*dm),
				arch: "conventional",
				build: func() (*network.Network, error) {
					return network.TransformerChain(seq, dm, 4*dm), nil
				},
			})
		}
	}
	return out
}

// resnetNetCases is ResNet-18 at batch 16 with its repeats, on Conventional
// and on Simba.
func resnetNetCases() []netCase {
	var out []netCase
	for _, a := range []string{"conventional", "simba"} {
		out = append(out, netCase{
			key:  "net/resnet18/b16@" + a,
			arch: a,
			build: func() (*network.Network, error) {
				return network.FromConvShapes("resnet18", workloads.ResNet18, 16, workloads.ResNet18Repeats())
			},
		})
	}
	return out
}

// networkPool is both ResNet-18 schedules followed by every drawable
// transformer chain.
func networkPool() []netCase { return append(resnetNetCases(), transformerCases()...) }

// drawNetworks returns every networkPool index in a seeded order for one
// pass. Every pass schedules every network: a draw of 3 of the 9
// transformer sizes per pass moved op_p50_ms by about 20% between seeds,
// because the median operation is the largest transformer drawn.
func drawNetworks(rng *rand.Rand, poolSize int) []int { return rng.Perm(poolSize) }

// convCase is one problem of the service universe.
type convCase struct {
	shape workloads.ConvShape
	batch int
	arch  string
}

func (c convCase) key() string { return convKey(c.shape, c.batch, c.arch) }

// workload builds the problem the way the service builds an inline conv
// submission, so a decoded job mapping binds to the same dimensions.
func (c convCase) workload() *tensor.Workload {
	s := c.shape
	return workloads.Conv2D("conv", c.batch, s.K, s.C, s.P, s.Q, s.R, s.S, s.StrideH, s.StrideW)
}

// serviceBatches are the batch sizes service jobs use.
var serviceBatches = []int{1, 4, 16}

// serviceUniverse is every problem a service job can name: ResNet-18
// shapes × serviceBatches × {conventional, simba}.
func serviceUniverse() []convCase {
	var out []convCase
	for _, a := range []string{"conventional", "simba"} {
		for _, b := range serviceBatches {
			for _, s := range workloads.ResNet18 {
				out = append(out, convCase{s, b, a})
			}
		}
	}
	return out
}
