package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {100, 10}, {1, 1}, {0, 1}, {95, 10}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 || xs[1] != 1 {
		t.Errorf("percentile sorted its input in place: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{3.25}); got != 3.25 {
		t.Errorf("median of one sample = %v", got)
	}
}

func ms2d(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func iv(a, b float64) interval { return interval{ms2d(a), ms2d(b)} }

func TestUnionLengthOverlaps(t *testing.T) {
	got := unionLength([]interval{iv(10, 50), iv(30, 70), iv(80, 90), iv(85, 120)}, 0, ms2d(100))
	if want := ms2d(60 + 20); got != want {
		t.Errorf("union = %v, want %v (overlaps once, clipped at the parent's end)", got, want)
	}
	if got := unionLength(nil, 0, ms2d(10)); got != 0 {
		t.Errorf("union of nothing = %v", got)
	}
}

func TestSelfTimesParallelChildren(t *testing.T) {
	// A fused schedule on one row: two member searches run in parallel
	// under the fuse span and overlap; a level span lies inside both.
	spans := []span{
		{name: "fuse net", row: 1, iv: iv(0, 100)},
		{name: "optimize a (bottom-up)", row: 1, iv: iv(0, 60)},
		{name: "optimize b (bottom-up)", row: 1, iv: iv(10, 90)},
		{name: "level 1 (L1)", row: 1, iv: iv(20, 40)},
		{name: "enumerate", row: 1, iv: iv(20, 30)},
		{name: "evaluate", row: 1, iv: iv(30, 40)},
		{name: "polish", row: 1, iv: iv(50, 55)},
	}
	st := selfTimes(spans)
	// fuse: 100 minus the union of its two overlapping children (0..90).
	if got, want := st[kindFuse], ms2d(10); got != want {
		t.Errorf("fuse self = %v, want %v", got, want)
	}
	if st[kindEnumerate] != ms2d(10) || st[kindEvaluate] != ms2d(10) || st[kindPolish] != ms2d(5) {
		t.Errorf("leaf self times = %v", st)
	}
	// Both later spans fall inside both member searches and go to the
	// innermost, b: other = optimize a (60) + optimize b (80 - 20 - 5) +
	// level (fully covered, 0). Overlap moves time between members only.
	if got, want := st[kindOther], ms2d(60+55); got != want {
		t.Errorf("other self = %v, want %v", got, want)
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	// One solve traced into its own trace: the benchmark op is the root,
	// program spans are sequential, so the kinds sum to the op's wall time.
	wall := ms2d(50)
	spans := []span{
		{name: "bench-op", row: -1, iv: interval{0, wall}},
		{name: "optimize w (bottom-up)", row: 1, iv: iv(2, 48)},
		{name: "orderings", row: 1, iv: iv(2, 3)},
		{name: "level 0 (L1)", row: 1, iv: iv(3, 20)},
		{name: "enumerate", row: 1, iv: iv(3, 15)},
		{name: "evaluate", row: 1, iv: iv(15, 19)},
		{name: "level 1 (DRAM)", row: 1, iv: iv(20, 40)},
		{name: "enumerate", row: 1, iv: iv(20, 30)},
		{name: "evaluate", row: 1, iv: iv(30, 40)},
		{name: "polish", row: 1, iv: iv(40, 47)},
	}
	st := selfTimes(spans)
	var sum time.Duration
	for _, d := range st {
		sum += d
	}
	if sum != wall {
		t.Errorf("self times sum to %v, want the op's wall %v: %v", sum, wall, st)
	}
	if st[kindOrder] != ms2d(1) || st[kindEnumerate] != ms2d(22) || st[kindEvaluate] != ms2d(14) || st[kindPolish] != ms2d(7) {
		t.Errorf("per-layer self times = %v", st)
	}
}

func TestReferenceLookup(t *testing.T) {
	ref := reference{"a": 2.5}
	if r, err := ref.ratio("a", 2.5); err != nil || r != 1 {
		t.Errorf("exact match: ratio %v, err %v", r, err)
	}
	if r, err := ref.ratio("a", 5); err == nil || r != 2 {
		t.Errorf("worse: ratio %v, err %v; want 2 and an error", r, err)
	}
	if r, err := ref.ratio("a", 1.25); err != nil || r != 0.5 {
		t.Errorf("better: ratio %v, err %v; want 0.5 and no error", r, err)
	}
	if r, err := ref.exact("a", 1.25); err == nil || r != 0.5 {
		t.Errorf("exact, better: ratio %v, err %v; want 0.5 and an error", r, err)
	}
	if r, err := ref.exact("a", 2.5); err != nil || r != 1 {
		t.Errorf("exact match: ratio %v, err %v", r, err)
	}
	for _, f := range []func(string, float64) (float64, error){ref.ratio, ref.exact} {
		if _, err := f("b", 1); err == nil {
			t.Error("missing key: want an error")
		}
	}
}

func TestReferenceCoversEveryDrawableProblem(t *testing.T) {
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, c := range solveColdPool() {
		keys = append(keys, c.key)
	}
	for _, c := range serviceUniverse() {
		keys = append(keys, c.key())
	}
	for _, c := range networkPool() {
		keys = append(keys, c.key, c.key+"/unfused")
	}
	for _, k := range keys {
		if v, ok := ref[k]; !ok || v <= 0 {
			t.Errorf("reference has no positive EDP for %s", k)
		}
	}
	if len(ref) != len(map[string]bool(setOf(keys))) {
		t.Errorf("reference has %d entries, the pools name %d problems", len(ref), len(setOf(keys)))
	}
}

func setOf(keys []string) map[string]bool {
	m := map[string]bool{}
	for _, k := range keys {
		m[k] = true
	}
	return m
}

func TestOpenLoopLateness(t *testing.T) {
	due := schedule(4, 2) // 2 jobs/s
	for i, want := range []float64{0, 500, 1000, 1500} {
		if due[i] != ms2d(want) {
			t.Fatalf("schedule = %v", due)
		}
	}
	start := time.Unix(1000, 0)
	dueAt := make([]time.Time, len(due))
	for i, d := range due {
		dueAt[i] = start.Add(d)
	}
	// The sender stalls on the second job and sends the third 300ms late.
	sent := []time.Time{dueAt[0], dueAt[1].Add(ms2d(0.5)), dueAt[2].Add(ms2d(300)), dueAt[3]}
	if got := maxLate(dueAt, sent); got != ms2d(300) {
		t.Errorf("maxLate = %v, want 300ms", got)
	}
	if got := maxLate(dueAt, dueAt); got != 0 {
		t.Errorf("maxLate on schedule = %v, want 0", got)
	}
	// Latency counts from the due time, so the stall is charged to the job.
	finished := dueAt[2].Add(ms2d(340)).UnixMilli()
	if got := latencyFromDue(dueAt[2], finished); got != 340 {
		t.Errorf("latencyFromDue = %v, want 340", got)
	}
}

func TestBalancedRepeats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	counts := make([]int, 10)
	for _, k := range balancedRepeats(rng, 10, 25) {
		counts[k]++
	}
	for k, c := range counts {
		if c != 2 && c != 3 {
			t.Errorf("problem %d drawn %d times, want 2 or 3: %v", k, c, counts)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(setups) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(setups))
	}
	for _, w := range doc.Workloads {
		if setups[w.Name] == nil {
			t.Errorf("workload %s has no set-up", w.Name)
		}
	}
	same := func(what string, json []struct{ Name, Unit string }, defs []metricDef) {
		if len(json) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", what, len(json), len(defs))
			return
		}
		for i, d := range defs {
			if json[i].Name != d.name || json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", what, i, json[i].Name, json[i].Unit, d.name, d.unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
