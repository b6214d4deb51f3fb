package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10, unsorted
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0.01, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestBeyondCountsTailSamples(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := beyond(xs, 0.99); got != 10 {
		t.Errorf("beyond(1..1000, 0.99) = %d, want 10", got)
	}
	if got := beyond(xs, 0.999); got != 1 {
		t.Errorf("beyond(1..1000, 0.999) = %d, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestPerEvent(t *testing.T) {
	if got := perEvent(3_000_000_000, 100_000_000); got != 30 {
		t.Errorf("3 s of CPU over 100M events = %v ns/event, want 30", got)
	}
	if got := perEvent(5, 0); got != 0 {
		t.Errorf("perEvent over zero events = %v, want 0", got)
	}
}

func TestCPUNowAdvancesWithWork(t *testing.T) {
	before := cpuNow()
	x := 0
	for i := 0; i < 50_000_000; i++ {
		x += i ^ (x >> 3)
	}
	if x == 42 {
		t.Log(x) // keeps the loop
	}
	if after := cpuNow(); after <= before {
		t.Errorf("cpuNow did not advance across a busy loop: %d then %d", before, after)
	}
}

func TestSelfTimesSubtractDirectChildren(t *testing.T) {
	// Two core batches, the first holding a boundary and a snapshot;
	// one signature batch holding a compress.
	spans := []span{
		{name: spCoreBatch, start: 0, end: 100, parent: -1, batch: 0},
		{name: spCoreBoundary, start: 10, end: 40, parent: 0, batch: 0},
		{name: spSnapshot, start: 50, end: 60, parent: 0, batch: 0},
		{name: spCoreBatch, start: 100, end: 150, parent: -1, batch: 1},
		{name: spSigBatch, start: 200, end: 230, parent: -1, batch: 0},
		{name: spSigCompress, start: 205, end: 215, parent: 4, batch: 0},
	}
	got := selfTimes(spans)
	want := map[spanName]layerTime{
		spCoreBatch:    {count: 2, total: 150, self: 110},
		spCoreBoundary: {count: 1, total: 30, self: 30},
		spSnapshot:     {count: 1, total: 10, self: 10},
		spSigBatch:     {count: 1, total: 30, self: 20},
		spSigCompress:  {count: 1, total: 10, self: 10},
	}
	for n := spanName(0); n < numSpanNames; n++ {
		if got[n] != want[n] {
			t.Errorf("%s: got %+v, want %+v", spanNames[n], got[n], want[n])
		}
	}
}

func TestAttributeSumsToCPU(t *testing.T) {
	c := ladderCosts{
		decode: 8, add: 4, coreBatch: 9, boundary: 2, compress: 0.5, classify: 1,
		snapshot: 0.25, restore: 0.75, fleetCPU: 10, walAppend: 3,
	}
	const cpu = 30.0
	rungs := attribute(c, cpu)
	sum := 0.0
	byName := map[string]float64{}
	for _, r := range rungs {
		sum += r.ns
		byName[r.name] = r.ns
	}
	if math.Abs(sum-cpu) > 1e-9 {
		t.Errorf("rungs add up to %v, want cpu_ns_per_event %v", sum, cpu)
	}
	for name, want := range map[string]float64{
		"fleet.send":          1,   // fleet CPU minus the core rung it contains
		"core.branch":         2,   // core rung minus boundaries, evictions and accumulation
		"predictor.update":    0.5, // boundary minus compress and classify
		"server.unattributed": 9,   // 30 - (8 + 10 + 3)
	} {
		if got := byName[name]; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
