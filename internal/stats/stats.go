// Package stats implements the statistical machinery used to evaluate
// phase classifications: running mean/variance (Welford), coefficient of
// variation (CoV), the paper's execution-weighted per-phase CoV metric
// (§3.1), histograms, and run-length extraction.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Running accumulates a stream of float64 samples and reports mean,
// variance, and standard deviation in O(1) space using Welford's
// algorithm. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add incorporates x into the summary.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	r.sum += x
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	r.m2 += delta * (x - r.mean)
}

// Reset returns the summary to its initial empty state.
func (r *Running) Reset() { *r = Running{} }

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Sum returns the sum of all samples.
func (r *Running) Sum() float64 { return r.sum }

// Mean returns the arithmetic mean, or 0 if no samples were added.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest sample, or 0 if no samples were added.
func (r *Running) Min() float64 { return r.min }

// Max returns the largest sample, or 0 if no samples were added.
func (r *Running) Max() float64 { return r.max }

// Variance returns the population variance, or 0 for fewer than two
// samples. Population (not sample) variance matches the paper's use of
// standard deviation over all intervals of a phase.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	return r.m2 / float64(r.n)
}

// StdDev returns the population standard deviation.
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// CoV returns the coefficient of variation, stddev/mean (§3.1). A zero
// mean yields 0 to keep weighted aggregates finite.
func (r *Running) CoV() float64 {
	if r.mean == 0 {
		return 0
	}
	return r.StdDev() / math.Abs(r.mean)
}

// CoV computes stddev/mean of xs directly.
func CoV(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.CoV()
}

// Mean computes the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// StdDev computes the population standard deviation of xs.
func StdDev(xs []float64) float64 {
	var r Running
	for _, x := range xs {
		r.Add(x)
	}
	return r.StdDev()
}

// PhaseCoV computes the paper's overall classification-quality metric
// (§3.1): the CoV of the metric within each phase, weighted by the
// fraction of execution (interval count) the phase accounts for, summed
// over phases. Lower is better; 0 means every phase is perfectly
// homogeneous.
//
// samples maps phase ID to the metric values (CPI) of the intervals
// classified into that phase. Phases listed in exclude (the transition
// phase, per §4.4: "The transition phase is not included in the CPI CoV
// calculations") contribute neither CoV nor weight.
func PhaseCoV(samples map[int][]float64, exclude ...int) float64 {
	ids := make([]int, 0, len(samples))
	for id := range samples {
		if !slices.Contains(exclude, id) {
			ids = append(ids, id)
		}
	}
	// Summarise phases in sorted ID order: accumulating in map order
	// would make the floating-point sum depend on Go's randomized map
	// iteration, and callers (tests, golden files) rely on Evaluate
	// being bit-deterministic.
	sort.Ints(ids)
	phases := make([]Running, len(ids))
	for i, id := range ids {
		for _, x := range samples[id] {
			phases[i].Add(x)
		}
	}
	return PhaseCoVSummaries(phases, -1)
}

// PhaseCoVSummaries is PhaseCoV over running summaries instead of
// sample lists, in O(phases) rather than O(samples): phases[i]
// summarises one phase's samples, phases are weighted in index order,
// and phases[exclude] contributes neither CoV nor weight (-1 excludes
// none). A summary fed the same samples in the same order as a sample
// list yields a bit-identical result.
func PhaseCoVSummaries(phases []Running, exclude int) float64 {
	total := 0
	for i := range phases {
		if i != exclude {
			total += phases[i].n
		}
	}
	if total == 0 {
		return 0
	}
	weighted := 0.0
	for i := range phases {
		if r := &phases[i]; i != exclude && r.n > 0 {
			weighted += r.CoV() * float64(r.n) / float64(total)
		}
	}
	return weighted
}

// Run is a maximal sequence of identical consecutive values.
type Run struct {
	Value  int // the repeated value (phase ID)
	Length int // number of consecutive occurrences
}

// RunLengths compresses ids into maximal runs, preserving order. An
// empty input yields nil.
func RunLengths(ids []int) []Run {
	var runs []Run
	for _, id := range ids {
		if n := len(runs); n > 0 && runs[n-1].Value == id {
			runs[n-1].Length++
		} else {
			runs = append(runs, Run{Value: id, Length: 1})
		}
	}
	return runs
}

// LengthStats summarises the lengths of the runs matching keep (or all
// runs when keep is nil).
func LengthStats(runs []Run, keep func(value int) bool) Running {
	var r Running
	for _, run := range runs {
		if keep == nil || keep(run.Value) {
			r.Add(float64(run.Length))
		}
	}
	return r
}

// Histogram counts samples into caller-defined buckets. Bounds are the
// inclusive upper edges of each bucket except the last, which is
// unbounded; e.g. bounds [15, 127, 1023] yields buckets
// [..15], [16..127], [128..1023], [1024..].
type Histogram struct {
	bounds []int
	counts []int
	total  int
}

// NewHistogram returns a histogram with the given strictly increasing
// inclusive upper bounds. It panics on unsorted or empty bounds.
func NewHistogram(bounds ...int) *Histogram {
	if len(bounds) == 0 {
		panic("stats: NewHistogram requires at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("stats: NewHistogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: append([]int(nil), bounds...),
		counts: make([]int, len(bounds)+1),
	}
}

// Add counts one sample of value v.
func (h *Histogram) Add(v int) {
	h.counts[h.Bucket(v)]++
	h.total++
}

// Bucket returns the index of the bucket v falls into.
func (h *Histogram) Bucket(v int) int {
	return sort.SearchInts(h.bounds, v)
}

// Buckets returns the number of buckets (len(bounds)+1).
func (h *Histogram) Buckets() int { return len(h.counts) }

// Count returns the number of samples in bucket i.
func (h *Histogram) Count(i int) int { return h.counts[i] }

// Total returns the number of samples added.
func (h *Histogram) Total() int { return h.total }

// Fraction returns the fraction of samples in bucket i, or 0 when empty.
func (h *Histogram) Fraction(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.counts[i]) / float64(h.total)
}

// BucketLabel returns a human-readable range label for bucket i, e.g.
// "1-15" or ">=1024".
func (h *Histogram) BucketLabel(i int) string {
	switch {
	case i == 0:
		return fmt.Sprintf("<=%d", h.bounds[0])
	case i == len(h.bounds):
		return fmt.Sprintf(">=%d", h.bounds[len(h.bounds)-1]+1)
	default:
		return fmt.Sprintf("%d-%d", h.bounds[i-1]+1, h.bounds[i])
	}
}

// Percent formats v (a 0..1 fraction) as a percentage with one decimal.
func Percent(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
