package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"sunstone/internal/arch"
	"sunstone/internal/core"
	"sunstone/internal/mapping"
	"sunstone/internal/network"
)

// networkFused schedules seeded draws of networks with fusion on a fresh
// Engine per pass; member problems repeated across groups and networks hit
// the Engine.
type networkFused struct {
	rng   *rand.Rand
	cases []netCase
	nets  []*network.Network
	archs []*arch.Arch
}

func setupNetworkFused(r *run) (workload, error) {
	s := &networkFused{rng: rand.New(rand.NewSource(r.seed)), cases: networkPool()}
	for _, c := range s.cases {
		net, err := c.build()
		if err == nil {
			err = net.Validate()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.key, err)
		}
		s.nets = append(s.nets, net)
		s.archs = append(s.archs, archPreset(c.arch))
	}
	return s, nil
}

func (s *networkFused) close() {}

func (s *networkFused) measure(r *run) error {
	var groups [4]int
	var gains []float64
	out, err := runBatch(r, batchSpec[core.NetworkResult]{
		span: "schedule.network_fused",
		// About 3× the slowest network on two cores.
		limit: 2 * time.Second,
		draw:  func() []int { return drawNetworks(s.rng, len(s.cases)) },
		op: func(ctx context.Context, eng *core.Engine, i int) (core.NetworkResult, error) {
			return eng.SolveNetworkFused(ctx, s.nets[i], s.archs[i], core.Options{}, core.FusionOptions{})
		},
		check: func(i int, res core.NetworkResult) (float64, error) {
			return checkNetwork(r.ref, s.cases[i].key, res)
		},
		record: func(_ int, res core.NetworkResult, acc *layerAcc) {
			for _, g := range res.Groups {
				for _, m := range g.Members {
					acc.addSearch(m)
				}
			}
			groups[0] += res.GroupsConsidered
			groups[1] += res.GroupsPruned
			groups[2] += res.GroupsInfeasible
			groups[3] += res.GroupsSolved
			gains = append(gains, res.UnfusedEDP/res.EDP)
		},
	})
	if err != nil || !r.trace {
		return err
	}
	out.report(r)
	n := float64(out.ops)
	r.set("fusion.groups_considered", float64(groups[0])/n)
	r.set("fusion.groups_pruned", float64(groups[1])/n)
	r.set("fusion.groups_infeasible", float64(groups[2])/n)
	r.set("fusion.groups_solved", float64(groups[3])/n)
	r.set("fusion.edp_gain", geomean(gains))
	var finals []*mapping.Mapping
	var probs []core.Problem
	for _, res := range out.first {
		for _, g := range res.Groups {
			for _, m := range g.Members {
				finals = append(finals, m.Mapping)
			}
		}
	}
	for i, net := range s.nets {
		for _, l := range net.Layers {
			probs = append(probs, core.Problem{Workload: l.Workload, Arch: s.archs[i]})
		}
	}
	reportEvalTiming(r, finals)
	return reportCompile(r, probs)
}
