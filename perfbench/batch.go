package main

import (
	"context"
	"time"

	"sunstone/internal/core"
	"sunstone/internal/obs"
)

// batchSpec describes a workload that repeats passes over a pool: each pass
// draws pool indices, runs one operation per index on a fresh Engine, then
// checks every result outside the timed region.
type batchSpec[T any] struct {
	span  string        // benchmark span recorded around each operation
	limit time.Duration // latency an operation must meet to count toward goodput
	draw  func() []int
	op    func(ctx context.Context, eng *core.Engine, i int) (T, error)
	check func(i int, res T) (ratio float64, err error)
	// record adds a checked result to the per-layer accounting.
	record func(i int, res T, acc *layerAcc)
}

// batchOut is what the per-layer report of a batch workload needs.
type batchOut[T any] struct {
	acc      *layerAcc
	allocs   allocMeter
	engine   core.EngineStats // of the last pass
	ops      int              // operations checked
	first    []T              // the first pass's results
	traced   []float64        // traced pass walls, s
	untraced []float64        // untraced pass walls, s
}

// runBatch runs passes until the run's time is up (at least two after a
// warm-up pass), sets the end-to-end metrics, and returns the material for
// the per-layer ones. The warm-up pass is checked but not timed: the first
// pass in a process runs slower while the heap grows. A traced run
// alternates untraced and traced passes, so the tracing overhead is
// measured on the same mix of work.
func runBatch[T any](r *run, b batchSpec[T]) (batchOut[T], error) {
	out := batchOut[T]{acc: newLayerAcc()}
	var p50s, p90s, goodputs, ratios []float64
	var deadline time.Time
	for pass := -1; pass < 2 || time.Now().Before(deadline); pass++ {
		if pass == 0 {
			deadline = time.Now().Add(r.seconds)
		}
		warmup := pass < 0
		if !warmup {
			r.probeSetup(1)
		}
		traced := r.trace && pass%2 == 1
		metered := r.trace && !traced && !warmup
		idx := b.draw()
		eng := core.NewEngine(0)
		results := make([]T, len(idx))
		errs := make([]error, len(idx))
		traces := make([]*obs.Trace, len(idx))
		walls := make([]time.Duration, len(idx))
		if metered {
			out.allocs.start()
		}
		passStart := time.Now()
		for k, i := range idx {
			ctx := bgCtx
			t0 := time.Now()
			if traced {
				traces[k] = obs.NewTrace()
				ctx = obs.WithTrace(bgCtx, traces[k])
			}
			results[k], errs[k] = b.op(ctx, eng, i)
			if traced {
				walls[k] = r.spans.add(b.span, t0)
			} else {
				walls[k] = time.Since(t0)
			}
		}
		passWall := time.Since(passStart)
		if metered {
			out.allocs.stop(len(idx))
		}
		out.engine = eng.Stats()

		var lats []float64
		within := 0
		for k, i := range idx {
			if traced {
				self, err := opSelfTimes(traces[k], walls[k])
				if err != nil {
					return out, err
				}
				out.acc.addOp(self, walls[k])
			}
			err := errs[k]
			if err == nil {
				var ratio float64
				ratio, err = b.check(i, results[k])
				if ratio > 0 && !warmup {
					ratios = append(ratios, ratio)
				}
			}
			r.check(err)
			if warmup {
				continue
			}
			if errs[k] == nil {
				b.record(i, results[k], out.acc)
				out.ops++
			}
			lats = append(lats, ms(walls[k]))
			if err == nil && walls[k] <= b.limit {
				within++
			}
		}
		if warmup {
			continue
		}
		if pass == 0 {
			out.first = results
		}
		p50s = append(p50s, percentile(lats, 50))
		p90s = append(p90s, percentile(lats, 90))
		goodputs = append(goodputs, float64(within)/passWall.Seconds())
		if traced {
			out.traced = append(out.traced, passWall.Seconds())
		} else {
			out.untraced = append(out.untraced, passWall.Seconds())
		}
	}
	// Each figure is the median over passes of the pass's own figure, so a
	// slow stretch of a shared machine during part of the run does not set
	// it. Per pass, the percentiles also stay inside one kind of operation:
	// pooled over passes, network-fused's p90 fell on the boundary between
	// its two ResNet-18 schedules and jumped between runs.
	r.set("tts_s", median(out.untraced))
	r.set("op_p50_ms", median(p50s))
	r.set("op_p90_ms", median(p90s))
	r.set("goodput_ops_per_s", median(goodputs))
	r.set("edp_ratio_geomean", geomean(ratios))
	return out, nil
}

// report sets the per-layer metrics every batch workload shares.
func (o batchOut[T]) report(r *run) {
	o.acc.report(r, o.ops)
	o.allocs.report(r)
	reportEngine(r, o.engine)
	reportOverhead(r, o.traced, o.untraced)
}
