package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. It
// always returns an observed sample, never an interpolation, so a metric
// keeps every digit it was measured with. xs need not be sorted; it is not
// modified. An empty xs gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// mean of xs (0 when empty).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean of strictly positive xs (0 when empty).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// interval is a half-open [start, end) stretch of time.
type interval struct{ start, end time.Duration }

// unionLength returns the total time covered by ivs clipped to [lo, hi):
// overlapping intervals (parallel child spans) count once.
func unionLength(ivs []interval, lo, hi time.Duration) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			cur, open = iv, true
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if open {
		total += cur.end - cur.start
	}
	return total
}
