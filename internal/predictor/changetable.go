package predictor

import (
	"cmp"
	"fmt"
	"slices"
)

// TrackKind selects what outcome state each phase change table entry
// stores.
type TrackKind int

const (
	// TrackSingle stores the most recent outcome of the change (the
	// standard Markov/RLE predictors).
	TrackSingle TrackKind = iota
	// TrackLast4 stores the last 4 unique outcomes; a prediction is
	// counted correct if the actual outcome matches any of them
	// (Fig 7/8 "Last 4" predictors).
	TrackLast4
	// TrackTopN stores frequency counts per outcome and predicts the
	// N most frequent (Fig 8 "Top 1"/"Top 4" predictors).
	TrackTopN
)

// ChangeTableConfig configures a phase change prediction table (§5.2.2,
// §5.2.3, §6.1).
type ChangeTableConfig struct {
	// Entries is the total table capacity (32 in §5, 128 in the Fig 8
	// large-table configurations).
	Entries int
	// Assoc is the set associativity (4 throughout the paper).
	Assoc int
	// Kind selects Markov or RLE indexing.
	Kind HistoryKind
	// Depth is N: how many history elements form the index.
	Depth int
	// Track selects the per-entry outcome state.
	Track TrackKind
	// TopN is the number of most-frequent outcomes predicted when
	// Track is TrackTopN.
	TopN int
	// UseConfidence gates predictions behind each entry's confidence
	// counter (§5.1: 1-bit counters for the phase change table).
	UseConfidence bool
	// ConfBits is the confidence counter width (1 in the paper).
	ConfBits int
	// ConfThreshold is the minimum counter value considered confident.
	// With 1-bit counters the paper uses threshold 1: an entry must
	// predict correctly once before it is trusted.
	ConfThreshold int
}

// DefaultChangeTableConfig returns the §5 configuration: a 32 entry
// 4-way associative table with 1-bit confidence counters.
func DefaultChangeTableConfig(kind HistoryKind, depth int) ChangeTableConfig {
	return ChangeTableConfig{
		Entries:       32,
		Assoc:         4,
		Kind:          kind,
		Depth:         depth,
		Track:         TrackSingle,
		UseConfidence: true,
		ConfBits:      1,
		ConfThreshold: 1,
	}
}

// Validate reports whether the configuration is usable.
func (c ChangeTableConfig) Validate() error {
	if c.Entries <= 0 || c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
		return fmt.Errorf("predictor: bad table geometry %d entries / %d ways", c.Entries, c.Assoc)
	}
	sets := c.Entries / c.Assoc
	if sets&(sets-1) != 0 {
		return fmt.Errorf("predictor: set count %d not a power of two", sets)
	}
	if c.Depth < 1 {
		return fmt.Errorf("predictor: history depth must be >= 1, got %d", c.Depth)
	}
	if c.Track == TrackTopN && c.TopN < 1 {
		return fmt.Errorf("predictor: TrackTopN requires TopN >= 1, got %d", c.TopN)
	}
	if c.UseConfidence {
		if c.ConfBits < 1 || c.ConfBits > 8 {
			return fmt.Errorf("predictor: ConfBits must be in [1,8], got %d", c.ConfBits)
		}
		if c.ConfThreshold < 1 || c.ConfThreshold > (1<<c.ConfBits)-1 {
			return fmt.Errorf("predictor: ConfThreshold %d out of range for %d bits", c.ConfThreshold, c.ConfBits)
		}
	}
	return nil
}

// tableEntry is one way of the phase change table.
type tableEntry struct {
	valid bool
	tag   uint64
	lru   uint8
	conf  int

	single int            // TrackSingle: last outcome
	last4  []int          // TrackLast4: unique outcomes, most recent first
	counts []outcomeCount // TrackTopN: occurrences, phase ascending

	// pred is the entry's current predicted outcome set, updated by
	// train and returned directly by outcomes. Predictions change only
	// when the entry trains, so the (for TrackTopN, ranked) set is
	// computed once per phase change instead of once per probe — the
	// table is probed every interval but trains only at changes. It is
	// nil on a valid entry fresh from Restore, until outcomes first
	// reads it. The slice is copy-on-write: train installs a fresh
	// slice whenever the set changes, so previously returned lookups
	// stay valid forever.
	pred []int
}

// outcomeCount is one TrackTopN outcome and how often it occurred.
type outcomeCount struct {
	phase int
	count uint32
}

// ranksAbove reports whether a precedes b in Top-N order: count
// descending, then phase ascending, a total order over an entry's
// distinct outcomes.
func (a outcomeCount) ranksAbove(b outcomeCount) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	return a.phase < b.phase
}

// count returns phase's occurrence count (0 if never seen).
func (e *tableEntry) count(phase int) uint32 {
	if i, ok := e.find(phase); ok {
		return e.counts[i].count
	}
	return 0
}

// find binary-searches counts for phase, returning its index or the
// index it would be inserted at.
func (e *tableEntry) find(phase int) (int, bool) {
	return slices.BinarySearchFunc(e.counts, phase, func(c outcomeCount, p int) int { return cmp.Compare(c.phase, p) })
}

// ChangeLookup is the result of probing the table.
type ChangeLookup struct {
	// Hit reports a tag match.
	Hit bool
	// Confident reports that the entry's confidence counter is at or
	// above the threshold (always true for hits when the table does
	// not use confidence).
	Confident bool
	// Outcomes is the predicted set of next phases: one element for
	// TrackSingle, up to 4 for TrackLast4, up to TopN for TrackTopN,
	// best prediction first.
	Outcomes []int
}

// Predicts reports whether phase is in the predicted outcome set.
func (l ChangeLookup) Predicts(phase int) bool {
	for _, o := range l.Outcomes {
		if o == phase {
			return true
		}
	}
	return false
}

// ChangeTable is the paper's phase change prediction table: a small
// set-associative, LRU-replaced structure keyed by a hash of phase
// history.
type ChangeTable struct {
	cfg     ChangeTableConfig
	sets    int
	ways    []tableEntry
	confMax int
}

// NewChangeTable returns an empty table. It panics on an invalid
// configuration.
func NewChangeTable(cfg ChangeTableConfig) *ChangeTable {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &ChangeTable{
		cfg:     cfg,
		sets:    cfg.Entries / cfg.Assoc,
		ways:    make([]tableEntry, cfg.Entries),
		confMax: (1 << cfg.ConfBits) - 1,
	}
}

// Config returns the table's configuration.
func (t *ChangeTable) Config() ChangeTableConfig { return t.cfg }

func (t *ChangeTable) set(hash uint64) (base int, tag uint64) {
	set := int(hash) & (t.sets - 1)
	return set * t.cfg.Assoc, hash
}

// find returns the way index of the entry with this hash, or -1.
func (t *ChangeTable) find(hash uint64) int {
	base, tag := t.set(hash)
	for w := 0; w < t.cfg.Assoc; w++ {
		if t.ways[base+w].valid && t.ways[base+w].tag == tag {
			return base + w
		}
	}
	return -1
}

// Lookup probes the table for the given history hash without modifying
// replacement or confidence state; the first probe of a way after a
// Restore builds its cached prediction set.
func (t *ChangeTable) Lookup(hash uint64) ChangeLookup {
	i := t.find(hash)
	if i < 0 {
		return ChangeLookup{}
	}
	e := &t.ways[i]
	confident := !t.cfg.UseConfidence || e.conf >= t.cfg.ConfThreshold
	return ChangeLookup{Hit: true, Confident: confident, Outcomes: t.outcomes(e)}
}

// outcomes returns an entry's predicted set, best first, building it
// from the tracked outcomes on the first read after a Restore. The
// returned slice is the entry's cached copy-on-write prediction and
// must not be modified by callers.
func (t *ChangeTable) outcomes(e *tableEntry) []int {
	if e.pred == nil {
		e.pred = t.appendPred(nil, e)
	}
	return e.pred
}

// appendPred appends the entry's prediction set, best first, computed
// from its tracked state.
func (t *ChangeTable) appendPred(dst []int, e *tableEntry) []int {
	switch t.cfg.Track {
	case TrackSingle:
		return append(dst, e.single)
	case TrackLast4:
		return append(dst, e.last4...)
	case TrackTopN:
		return appendTopN(dst, e.counts, t.cfg.TopN)
	default:
		panic("predictor: unknown TrackKind")
	}
}

// appendTopN appends the phases of the n highest-ranked counts, best
// first: n selection passes, each taking the best count ranked below
// the previous pick, with no sort and no temporary buffer.
func appendTopN(dst []int, counts []outcomeCount, n int) []int {
	var last outcomeCount
	for k := 0; k < min(n, len(counts)); k++ {
		best := -1
		for i, c := range counts {
			if k > 0 && !last.ranksAbove(c) {
				continue
			}
			if best < 0 || c.ranksAbove(counts[best]) {
				best = i
			}
		}
		last = counts[best]
		dst = append(dst, last.phase)
	}
	return dst
}

// promoteTopN updates the entry's Top-N prediction after outcome's
// count rose by one. No other count changed and outcome's rank can
// only have risen, so the new top N is drawn from the old set plus
// outcome: outcome moves ahead of the members it now outranks, and the
// member pushed past N (if any) drops out. The set is replaced only
// when it changes. RecordChange reads the set before training, so a
// restored entry's set is built from the counts before the increment;
// only a freshly inserted entry builds it here, from its one count.
func (t *ChangeTable) promoteTopN(e *tableEntry, outcome int) {
	moved := outcomeCount{outcome, e.count(outcome)}
	old := t.outcomes(e)
	was := slices.Index(old, outcome)
	at := 0
	for _, p := range old {
		if p == outcome || !(outcomeCount{p, e.count(p)}).ranksAbove(moved) {
			break
		}
		at++
	}
	if at == was || (was < 0 && at >= t.cfg.TopN) {
		return
	}
	n := len(old)
	if was < 0 {
		n = min(n+1, t.cfg.TopN)
	}
	out := make([]int, 0, n)
	for _, p := range old {
		if len(out) == at {
			out = append(out, outcome)
		}
		if len(out) == n {
			break
		}
		if p != outcome {
			out = append(out, p)
		}
	}
	if len(out) < n {
		out = append(out, outcome)
	}
	e.pred = out
}

// RecordChange trains the table with an observed phase change: from the
// history state hashed as hash, execution changed to phase outcome. The
// entry's confidence counter is incremented if it predicted this
// outcome (before training) and decremented otherwise. If no entry
// exists one is allocated, evicting the set's LRU way.
func (t *ChangeTable) RecordChange(hash uint64, outcome int) {
	i := t.find(hash)
	if i < 0 {
		t.insert(hash, outcome)
		return
	}
	e := &t.ways[i]
	correct := false
	for _, o := range t.outcomes(e) {
		if o == outcome {
			correct = true
			break
		}
	}
	e.conf = satUpdate(e.conf, correct, t.confMax)
	t.train(e, outcome)
	t.touch(i)
}

// train folds an outcome into the entry's tracked state and refreshes
// the cached prediction set.
func (t *ChangeTable) train(e *tableEntry, outcome int) {
	switch t.cfg.Track {
	case TrackSingle:
		e.single = outcome
		e.pred = t.appendPred(nil, e)
	case TrackLast4:
		// Move-to-front of a unique list capped at 4. Build into a
		// fresh slice: writing through e.last4[:0] would clobber the
		// old list while it is still being read.
		out := make([]int, 0, 4)
		out = append(out, outcome)
		for _, p := range e.last4 {
			if p != outcome && len(out) < 4 {
				out = append(out, p)
			}
		}
		e.last4 = out
		e.pred = t.appendPred(nil, e)
	case TrackTopN:
		if i, ok := e.find(outcome); ok {
			e.counts[i].count++
		} else {
			e.counts = slices.Insert(e.counts, i, outcomeCount{outcome, 1})
		}
		t.promoteTopN(e, outcome)
	default:
		panic("predictor: unknown TrackKind")
	}
}

// insert allocates an entry for hash with the given first outcome.
func (t *ChangeTable) insert(hash uint64, outcome int) {
	base, tag := t.set(hash)
	victim := base
	for w := 0; w < t.cfg.Assoc; w++ {
		if !t.ways[base+w].valid {
			victim = base + w
			break
		}
		if t.ways[base+w].lru >= t.ways[victim].lru {
			victim = base + w
		}
	}
	// Enter with maximum age so touch ages every other valid way once.
	t.ways[victim] = tableEntry{valid: true, tag: tag, conf: 0, lru: uint8(t.cfg.Assoc - 1)}
	t.train(&t.ways[victim], outcome)
	t.touch(victim)
}

// Remove deletes the entry for hash if present. The paper removes an
// entry when it incorrectly predicted a phase change that did not
// happen, because the last-value predictor would have been correct
// (§5.2.3).
func (t *ChangeTable) Remove(hash uint64) bool {
	i := t.find(hash)
	if i < 0 {
		return false
	}
	t.ways[i] = tableEntry{}
	return true
}

// touch makes way i the MRU of its set.
func (t *ChangeTable) touch(i int) {
	base := (i / t.cfg.Assoc) * t.cfg.Assoc
	cur := t.ways[i].lru
	for w := 0; w < t.cfg.Assoc; w++ {
		if t.ways[base+w].valid && t.ways[base+w].lru < cur {
			t.ways[base+w].lru++
		}
	}
	t.ways[i].lru = 0
}

// Len returns the number of valid entries.
func (t *ChangeTable) Len() int {
	n := 0
	for i := range t.ways {
		if t.ways[i].valid {
			n++
		}
	}
	return n
}
