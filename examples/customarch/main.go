// Custom architectures and workloads from JSON: define a machine and a
// kernel in the serialization format (the same files `cmd/sunstone
// -arch-file/-workload-file` consume), optimize, verify the mapping
// functionally, and export it — the full configuration-file workflow.
package main

import (
	"context"
	"fmt"
	"log"

	"sunstone"
)

// A hypothetical edge accelerator: an 8x8 PE grid with 1 KB unified L1 per
// PE, a 256 KB shared L2, and DRAM. Energies in pJ per word access.
const archJSON = `{
  "name": "edge-64pe",
  "default_word_bits": 16,
  "mac_pj": 2.2,
  "levels": [
    {
      "name": "L1",
      "buffers": [{"name": "L1", "bytes": 1024, "read_pj": 1.1, "write_pj": 1.2, "read_bw": 2, "write_bw": 2}]
    },
    {
      "name": "L2",
      "fanout": 64,
      "allow_spatial_reduction": true,
      "noc_per_word_pj": 1.3,
      "noc_tag_check_pj": 0.05,
      "spatial_reduce_pj": 0.11,
      "buffers": [{"name": "L2", "bytes": 262144, "read_pj": 18, "write_pj": 20, "read_bw": 32, "write_bw": 32}]
    },
    {
      "name": "DRAM",
      "buffers": [{"name": "DRAM", "read_pj": 200, "write_pj": 200, "read_bw": 8, "write_bw": 8}]
    }
  ]
}`

// A depthwise-separable pointwise convolution (1x1), written by hand.
const workloadJSON = `{
  "name": "pointwise_conv",
  "dims": {"N": 4, "K": 128, "C": 64, "P": 28, "Q": 28},
  "tensors": [
    {"name": "ifmap",  "axes": [[{"dim":"N","stride":1}], [{"dim":"C","stride":1}], [{"dim":"P","stride":1}], [{"dim":"Q","stride":1}]]},
    {"name": "weight", "axes": [[{"dim":"K","stride":1}], [{"dim":"C","stride":1}]]},
    {"name": "ofmap",  "axes": [[{"dim":"N","stride":1}], [{"dim":"K","stride":1}], [{"dim":"P","stride":1}], [{"dim":"Q","stride":1}]], "output": true}
  ]
}`

func main() {
	a, err := sunstone.DecodeArch([]byte(archJSON))
	if err != nil {
		log.Fatal(err)
	}
	w, err := sunstone.DecodeWorkload([]byte(workloadJSON))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(a)
	fmt.Println()
	fmt.Println(w)
	fmt.Println()

	res, err := sunstone.Solve(context.Background(), sunstone.Problem{Workload: w, Arch: a}, sunstone.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("best mapping (EDP %.4e, found in %v):\n%s\n\n",
		res.Report.EDP, res.Elapsed, res.Mapping)
	fmt.Println("as a loop nest:")
	fmt.Print(res.Mapping.PseudoCode())

	ok, err := sunstone.VerifyMapping(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfunctional verification against the reference execution: %v\n", ok)

	data, err := sunstone.EncodeMapping(res.Mapping)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nexported mapping (%d bytes of JSON); round-trips losslessly:\n", len(data))
	back, err := sunstone.DecodeMapping(data, w, a)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("re-evaluated EDP: %.4e (identical: %v)\n",
		sunstone.Evaluate(back).EDP, sunstone.Evaluate(back).EDP == res.Report.EDP)
}
