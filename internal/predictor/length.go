package predictor

import (
	"fmt"
	"slices"

	"phasekit/internal/stats"
)

// DefaultLengthBounds are the paper's four run-length classes (§6.2.1):
// 1-15, 16-127, 128-1023, and >= 1024 intervals, corresponding to
// 10-100M, 100M-1B, 1B-10B and > 10B instructions at 10M-instruction
// intervals.
var DefaultLengthBounds = []int{15, 127, 1023}

// LengthConfig configures the phase length predictor (§6.2.2): an
// RLE-2-indexed 32 entry 4-way associative table predicting run-length
// classes, with a hysteresis counter instead of confidence.
type LengthConfig struct {
	// Entries and Assoc give the table geometry.
	Entries int
	Assoc   int
	// Kind and Depth select the history indexing (RLE-2 in the paper).
	Kind  HistoryKind
	Depth int
	// Bounds are the inclusive upper bounds of all but the last class.
	Bounds []int
	// Hysteresis requires a class to be seen twice in a row before the
	// entry's prediction changes, filtering run-length noise.
	Hysteresis bool
}

// DefaultLengthConfig returns the §6.2.2 configuration.
func DefaultLengthConfig() LengthConfig {
	return LengthConfig{
		Entries:    32,
		Assoc:      4,
		Kind:       RLE,
		Depth:      2,
		Bounds:     DefaultLengthBounds,
		Hysteresis: true,
	}
}

// Validate reports whether the configuration is usable.
func (c LengthConfig) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("predictor: bad length table geometry %d/%d", c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("predictor: length table set count %d not a power of two", sets)
	}
	if c.Depth < 1 {
		return fmt.Errorf("predictor: length history depth must be >= 1")
	}
	if len(c.Bounds) == 0 {
		return fmt.Errorf("predictor: length bounds must be non-empty")
	}
	for i := 1; i < len(c.Bounds); i++ {
		if c.Bounds[i] <= c.Bounds[i-1] {
			return fmt.Errorf("predictor: length bounds must be strictly increasing")
		}
	}
	return nil
}

// lengthEntry is one way of the length prediction table.
type lengthEntry struct {
	valid bool
	tag   uint64
	lru   uint8
	class int // committed prediction
	last  int // last class observed (hysteresis state)
}

// LengthStats accumulates length prediction accounting (Fig 9).
type LengthStats struct {
	// Predictions is the number of resolved phase-length predictions
	// (one per completed run following a phase change).
	Predictions int
	// Mispredictions counts resolved predictions whose class differed
	// from the actual run's class.
	Mispredictions int
	// ClassCounts[i] counts completed runs whose length fell in class
	// i (the Fig 9 "Percentage of Run Lengths" distribution).
	ClassCounts []int
}

// MispredictRate returns mispredictions/predictions.
func (s LengthStats) MispredictRate() float64 {
	if s.Predictions == 0 {
		return 0
	}
	return float64(s.Mispredictions) / float64(s.Predictions)
}

// ClassFraction returns the fraction of runs in class i.
func (s LengthStats) ClassFraction(i int) float64 {
	total := 0
	for _, c := range s.ClassCounts {
		total += c
	}
	if total == 0 {
		return 0
	}
	return float64(s.ClassCounts[i]) / float64(total)
}

// LengthPredictor predicts, at each phase change, which run-length
// class the newly entered phase will fall into (§6.2). The prediction
// is resolved when that run ends.
type LengthPredictor struct {
	cfg   LengthConfig
	hist  *History
	ways  []lengthEntry
	sets  int
	histo *stats.Histogram

	// pending is the unresolved prediction for the in-progress run.
	pending struct {
		active    bool
		hash      uint64
		predicted int
	}
	stats LengthStats
}

// NewLengthPredictor returns a predictor for cfg. It panics on an
// invalid configuration.
func NewLengthPredictor(cfg LengthConfig) *LengthPredictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &LengthPredictor{
		cfg:   cfg,
		hist:  NewHistory(cfg.Kind, cfg.Depth),
		ways:  make([]lengthEntry, cfg.Entries),
		sets:  cfg.Entries / cfg.Assoc,
		histo: stats.NewHistogram(cfg.Bounds...),
		stats: LengthStats{ClassCounts: make([]int, len(cfg.Bounds)+1)},
	}
}

// Class returns the run-length class index for a run of the given
// length.
func (p *LengthPredictor) Class(runLength int) int { return p.histo.Bucket(runLength) }

// Classes returns the number of classes.
func (p *LengthPredictor) Classes() int { return p.histo.Buckets() }

// ClassLabel returns a human-readable label for class i.
func (p *LengthPredictor) ClassLabel(i int) string { return p.histo.BucketLabel(i) }

// PredictNext returns the predicted class of the next phase's run if a
// change happened now, from the current history state. A table miss
// statically predicts the shortest class, which the paper notes works
// well since most runs are short.
func (p *LengthPredictor) PredictNext() int {
	if i := p.find(p.hist.Hash()); i >= 0 {
		return p.ways[i].class
	}
	return 0
}

// Observe records the actual phase of the next interval. On a phase
// change it resolves the pending prediction for the run that just
// ended, trains the table with the actual class (with hysteresis), and
// issues a new pending prediction for the starting run.
func (p *LengthPredictor) Observe(actual int) {
	cur, run, seen := p.hist.Current()
	if seen && actual != cur {
		// The run (cur, run) just ended.
		class := p.Class(run)
		p.stats.ClassCounts[class]++
		if p.pending.active {
			p.stats.Predictions++
			if p.pending.predicted != class {
				p.stats.Mispredictions++
			}
			p.train(p.pending.hash, class)
		}
		// Predict the new run's class from the history at the change
		// point (including the ended run's final length).
		hash := p.hist.Hash()
		p.pending.active = true
		p.pending.hash = hash
		p.pending.predicted = p.lookupOrShort(hash)
	}
	p.hist.Observe(actual)
}

// lookupOrShort returns the committed class for hash, or class 0 on a
// miss.
func (p *LengthPredictor) lookupOrShort(hash uint64) int {
	if i := p.find(hash); i >= 0 {
		return p.ways[i].class
	}
	return 0
}

func (p *LengthPredictor) find(hash uint64) int {
	base := (int(hash) & (p.sets - 1)) * p.cfg.Assoc
	for w := 0; w < p.cfg.Assoc; w++ {
		if p.ways[base+w].valid && p.ways[base+w].tag == hash {
			return base + w
		}
	}
	return -1
}

// train folds an observed class into the entry for hash, allocating on
// miss and applying hysteresis on hit.
func (p *LengthPredictor) train(hash uint64, class int) {
	i := p.find(hash)
	if i < 0 {
		base := (int(hash) & (p.sets - 1)) * p.cfg.Assoc
		victim := base
		for w := 0; w < p.cfg.Assoc; w++ {
			if !p.ways[base+w].valid {
				victim = base + w
				break
			}
			if p.ways[base+w].lru >= p.ways[victim].lru {
				victim = base + w
			}
		}
		p.ways[victim] = lengthEntry{
			valid: true, tag: hash, class: class, last: class,
			lru: uint8(p.cfg.Assoc - 1),
		}
		p.touch(victim)
		return
	}
	e := &p.ways[i]
	if !p.cfg.Hysteresis || class == e.last {
		e.class = class
	}
	e.last = class
	p.touch(i)
}

func (p *LengthPredictor) touch(i int) {
	base := (i / p.cfg.Assoc) * p.cfg.Assoc
	cur := p.ways[i].lru
	for w := 0; w < p.cfg.Assoc; w++ {
		if p.ways[base+w].valid && p.ways[base+w].lru < cur {
			p.ways[base+w].lru++
		}
	}
	p.ways[i].lru = 0
}

// PendingPrediction returns the class predicted for the run currently
// in progress (issued when the run began) and whether such a
// prediction is active.
func (p *LengthPredictor) PendingPrediction() (class int, active bool) {
	return p.pending.predicted, p.pending.active
}

// Stats returns the accumulated accounting. ClassCounts is a copy: the
// predictor keeps counting (and a Restore refills its counts in place),
// so a returned value must not share its storage.
func (p *LengthPredictor) Stats() LengthStats {
	s := p.stats
	s.ClassCounts = slices.Clone(s.ClassCounts)
	return s
}
