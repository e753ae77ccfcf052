// ResNet-18 on Simba: schedule every convolution layer of ResNet-18 (batch
// 16) onto the Simba-like accelerator of Table IV — the Fig. 8 scenario,
// one layer per group — and report per-layer and whole-network results. This is
// the "modern architecture" case with two levels of spatial processing
// (a PE grid and vector-MAC lanes inside each PE) plus weight bypass of the
// global buffer, which most prior mappers cannot target at all.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"sunstone"
)

func main() {
	a := sunstone.Simba()
	fmt.Println(a)
	fmt.Println()

	net, err := sunstone.FromConvShapes("resnet18", sunstone.ResNet18Layers, 16, sunstone.ResNet18Repeats())
	if err != nil {
		log.Fatal(err)
	}
	// MaxGroup 1 keeps every layer its own group; leave it 0 to let the
	// scheduler fuse adjacent layers where that lowers the network's EDP.
	sched, err := sunstone.ScheduleNetwork(context.Background(), net, a, sunstone.NetworkOptions{MaxGroup: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %-12s %-12s %-10s %-8s %s\n",
		"layer", "EDP", "energy pJ", "cycles", "search", "mapping (DRAM level)")
	for _, l := range sched.Layers {
		rep := l.Result.Report
		firstLine, _, _ := strings.Cut(l.Result.Mapping.String(), "\n")
		fmt.Printf("%-10s %-12.3e %-12.3e %-10.0f %-8v %s\n",
			l.Layer, rep.EDP, rep.EnergyPJ, rep.Cycles,
			l.Result.Elapsed.Round(time.Millisecond), firstLine)
	}
	fmt.Printf("\nnetwork totals: %.4e pJ, %.3e cycles, EDP %.4e\n",
		sched.TotalEnergyPJ, sched.TotalCycles, sched.EDP)
	fmt.Printf("whole network scheduled in %v\n", sched.Elapsed.Round(time.Millisecond))
}
