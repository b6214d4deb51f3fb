// Package classifier implements the paper's dynamic phase classifier
// (§4): a signature table with LRU replacement that maps per-interval
// code signatures to phase IDs, extended with the transition phase
// (§4.4, Min Counter) and adaptive per-entry similarity thresholds
// driven by CPI homogeneity feedback (§4.6).
package classifier

import (
	"fmt"
	"math"

	"phasekit/internal/signature"
)

// TransitionPhase is the reserved phase ID for intervals classified as
// phase transitions (§4.4: "The transition phase is represented with
// phase ID zero").
const TransitionPhase = 0

// Config controls one classifier instance.
type Config struct {
	// TableEntries is the signature-table capacity; 0 means unbounded
	// (the infinite table of [25] used as a reference point in Fig 2).
	TableEntries int
	// SimilarityThreshold is the normalized Manhattan distance below
	// which a signature matches a table entry (0.125 or 0.25 in the
	// paper). With Adaptive set, it is each entry's starting threshold.
	SimilarityThreshold float64
	// MinCountThreshold is the number of times a signature must appear
	// before it is considered stable and assigned a real phase ID
	// (§4.4). 0 disables the transition phase entirely (the prior
	// work's behaviour).
	MinCountThreshold int
	// BestMatch selects the most-similar matching entry when several
	// satisfy the threshold; false reproduces the prior approach of
	// taking the first match (§4.1 step 3).
	BestMatch bool
	// Adaptive enables per-entry threshold tightening from CPI
	// feedback (§4.6).
	Adaptive bool
	// DeviationThreshold is the relative CPI deviation from the
	// phase's running average that triggers halving the entry's
	// similarity threshold (0.50, 0.25 or 0.125 in Fig 6).
	DeviationThreshold float64
	// MinSimilarityThreshold floors adaptive halving so a threshold
	// never reaches zero. Defaults to 1/64 when unset.
	MinSimilarityThreshold float64
	// FeedbackWarmup is the number of CPI samples an entry must
	// accumulate before deviation can trigger a split, so one noisy
	// startup interval does not shatter a healthy phase. Defaults to 3
	// when unset.
	FeedbackWarmup int
	// ReplacementFIFO evicts the oldest-inserted entry instead of the
	// least-recently-used one, as an ablation of the paper's LRU
	// signature table.
	ReplacementFIFO bool
}

// DefaultConfig returns the paper's preferred configuration (§5): a 32
// entry table, 25% similarity threshold, min count 8, best-match
// classification, and adaptive thresholds with a 25% deviation
// threshold.
func DefaultConfig() Config {
	return Config{
		TableEntries:        32,
		SimilarityThreshold: 0.25,
		MinCountThreshold:   8,
		BestMatch:           true,
		Adaptive:            true,
		DeviationThreshold:  0.25,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.TableEntries < 0 {
		return fmt.Errorf("classifier: TableEntries must be >= 0, got %d", c.TableEntries)
	}
	if c.SimilarityThreshold <= 0 || c.SimilarityThreshold > 1 {
		return fmt.Errorf("classifier: SimilarityThreshold must be in (0,1], got %v", c.SimilarityThreshold)
	}
	if c.MinCountThreshold < 0 {
		return fmt.Errorf("classifier: MinCountThreshold must be >= 0, got %d", c.MinCountThreshold)
	}
	if c.Adaptive && (c.DeviationThreshold <= 0 || c.DeviationThreshold > 4) {
		return fmt.Errorf("classifier: DeviationThreshold must be in (0,4], got %v", c.DeviationThreshold)
	}
	if c.MinSimilarityThreshold < 0 {
		return fmt.Errorf("classifier: MinSimilarityThreshold must be >= 0, got %v", c.MinSimilarityThreshold)
	}
	return nil
}

// entry is one signature-table row. The signature vector itself lives
// in the Classifier's flat sigs slab (row i occupies
// sigs[i*dims:(i+1)*dims]) so the scan walks contiguous memory instead
// of chasing a pointer per row.
type entry struct {
	sigSum     uint64 // cached sum of the row's signature
	phaseID    int    // TransitionPhase until promoted
	minCount   int    // §4.4 Min Counter (saturating; capped in code)
	threshold  float64
	lastUse    uint64 // LRU clock value
	insertedAt uint64 // FIFO clock value

	// CPI feedback state (§4.6).
	cpiCount  int
	cpiMean   float64
	devStreak int
}

// Result reports the outcome of classifying one interval.
type Result struct {
	// PhaseID is the phase the interval was classified into;
	// TransitionPhase for transition intervals.
	PhaseID int
	// Matched reports whether an existing table entry satisfied the
	// similarity threshold.
	Matched bool
	// Distance is the normalized distance to the matched entry
	// (meaningful only when Matched).
	Distance float64
	// NewSignature reports that a new table entry was created.
	NewSignature bool
	// Evicted reports that creating the entry evicted an LRU victim.
	Evicted bool
	// EvictedID is the victim's phase ID when Evicted (TransitionPhase
	// if it was never promoted). A real phase ID is minted once per
	// entry and survives splits, so an evicted one is never emitted
	// again: state keyed by it can be dropped.
	EvictedID int
	// Promoted reports that the matched entry crossed the min-count
	// threshold on this classification and received its real phase ID.
	Promoted bool
	// Split reports that CPI feedback tightened the matched entry's
	// similarity threshold (§4.6).
	Split bool
}

// Stats accumulates classifier behaviour over a run.
type Stats struct {
	Classifications      int
	TransitionIntervals  int
	NewSignatures        int
	Evictions            int
	Promotions           int
	Splits               int
	PhaseIDsCreated      int
	MatchedSameThreshold int // classifications that matched an entry
}

// IndexStats reports the behaviour of the two-level indexed scan. It
// lives beside Stats rather than inside it: Stats is serialized and
// compared bit-for-bit across snapshot/restore, while these counters
// are diagnostics of the derived index, deliberately excluded from
// snapshots (restore rebuilds the index and resets them).
type IndexStats struct {
	// MRUHits counts classifications resolved to the same row as the
	// previous one — the amortized O(1) path the paper's temporal
	// phase stability predicts.
	MRUHits uint64
	// EntriesScanned counts rows the indexed scan touched beyond the
	// bucket index (MRU evaluations included); divided by
	// Stats.Classifications it gives mean rows scanned per interval.
	EntriesScanned uint64
	// BucketsScanned counts sum buckets whose rows were visited.
	BucketsScanned uint64
	// Buckets is the current number of non-empty sum buckets.
	Buckets int
}

// Classifier is the dynamic phase classification architecture.
type Classifier struct {
	cfg     Config
	entries []entry
	// sigs holds every row's signature back to back (stride dims), so
	// the match scan streams through one allocation and an eviction
	// overwrites the victim's row in place without allocating.
	sigs []uint16
	// segs caches each row's quarter-segment sums (stride 4): the sum
	// of absolute segment-sum differences lower-bounds the Manhattan
	// distance, so most non-matching rows reject on four cached
	// integers without touching their vectors.
	segs []uint64
	// lbBuf is the per-Classify scratch holding each row's segment
	// lower bound, filled by the linear scan's seed pre-pass.
	lbBuf  []uint64
	dims   int // set by the first Classify; fixed thereafter
	clock  uint64
	nextID int
	stats  Stats
	istats IndexStats
	minSim float64

	// idx buckets rows by signature sum (a derived cache like segs,
	// rebuilt lazily after Restore and never serialized — see
	// index.go). idxDirty marks the index stale; the next Classify
	// rebuilds it, so restore-heavy paths (fleet rehydration, state
	// stores) never pay bucket allocations for streams that are
	// evicted again before classifying.
	idx      sumIndex
	idxDirty bool
	// mru is the row matched or inserted most recently, -1 when
	// unknown. It is purely a scan seed: a stale value costs time,
	// never correctness, so Restore just invalidates it.
	mru int32
	// maxThr upper-bounds every row threshold: inserts start at
	// cfg.SimilarityThreshold and adaptive feedback only halves, so
	// the bucket walk can prune whole buckets with one bound before
	// knowing which rows they hold.
	maxThr float64
	// linearScan forces the retained linear reference scan. In-package
	// differential tests flip it to use the pre-index code path as the
	// oracle for the indexed walk.
	linearScan bool
}

// rowSig returns row i's signature within the slab.
func (c *Classifier) rowSig(i int) signature.Vector {
	return signature.Vector(c.sigs[i*c.dims : (i+1)*c.dims])
}

// New returns a classifier for cfg. It panics on an invalid
// configuration.
func New(cfg Config) *Classifier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	minSim := cfg.MinSimilarityThreshold
	if minSim == 0 {
		minSim = 1.0 / 64
	}
	return &Classifier{
		cfg:    cfg,
		nextID: TransitionPhase + 1,
		minSim: minSim,
		mru:    -1,
		maxThr: cfg.SimilarityThreshold,
	}
}

// Config returns the classifier's configuration.
func (c *Classifier) Config() Config { return c.cfg }

// PhaseIDs returns the number of real (non-transition) phase IDs
// created so far. This is the "number of phases detected" metric of
// Figs 2–4: signatures lost to replacement and later reinserted are
// counted again, exactly as in the hardware.
func (c *Classifier) PhaseIDs() int { return c.nextID - 1 }

// TableLen returns the current number of signature-table entries.
func (c *Classifier) TableLen() int { return len(c.entries) }

// SigDims returns the signature dimensionality the classifier is
// locked to, or 0 before the first classification (or restore).
func (c *Classifier) SigDims() int { return c.dims }

// Stats returns cumulative statistics.
func (c *Classifier) Stats() Stats { return c.stats }

// IndexStats returns the indexed-scan diagnostics accumulated since
// construction (or the last Restore, which resets them). Buckets
// reflects the live index, which is rebuilt lazily: between a Restore
// and the next Classify it reads 0.
func (c *Classifier) IndexStats() IndexStats {
	s := c.istats
	s.Buckets = len(c.idx.keys)
	return s
}

// Classify assigns a phase ID to the interval whose compressed
// signature is sig and whose measured performance is cpi (used only for
// adaptive threshold feedback, never for matching — §4.6 keeps
// classification purely code-based).
//
// The scan runs in the integer domain: the incoming signature's sum is
// computed once, each row's sum is cached, and a row is rejected
// mid-vector as soon as its running Manhattan distance provably exceeds
// threshold*(sa+sb). Only rows that survive the integer bound pay the
// float divide, and that exact division reproduces the naive float
// comparison bit for bit (the bound is conservative: every distance the
// float path would accept is below it — see the derivation at
// matchBound). On top of that, the default path is a two-level indexed
// scan (scanIndexed): the MRU row first, then a nearest-sum-first
// bucket walk that visits only rows whose cached sums could beat the
// match in hand. Both levels are pure pruning, so the outcome is
// bit-identical to the retained linear scan (scanLinear).
func (c *Classifier) Classify(sig signature.Vector, cpi float64) Result {
	c.clock++
	c.stats.Classifications++

	if c.dims == 0 {
		c.dims = len(sig)
	} else if len(sig) != c.dims {
		panic("classifier: signature dimensionality changed mid-run")
	}
	segs, sigSum := sig.SegmentSums()
	// The index is maintained by match/insert on both scan paths, so a
	// stale (post-Restore) index must be rebuilt before any scan.
	if c.idxDirty {
		c.idx.rebuild(c.entries)
		c.idxDirty = false
	}
	var best int
	var bestDist float64
	if c.linearScan {
		best, bestDist = c.scanLinear(sig, &segs, sigSum)
	} else {
		wasMRU := int(c.mru)
		best, bestDist = c.scanIndexed(sig, &segs, sigSum)
		if best >= 0 && best == wasMRU {
			c.istats.MRUHits++
		}
	}

	if best < 0 {
		return c.insert(sig, sigSum, segs)
	}
	return c.match(best, bestDist, sig, sigSum, segs, cpi)
}

// scanLinear is the pre-index reference scan: a segment-lower-bound
// pre-pass over every row, a seed pick, then a full linear walk. It is
// retained verbatim as the in-package oracle the indexed walk is
// differentially tested against, and as the fallback for callers that
// flip linearScan.
func (c *Classifier) scanLinear(sig signature.Vector, segs *[4]uint64, sigSum uint64) (int, float64) {
	// Pre-pass: each row's segment lower bound on its Manhattan
	// distance to sig, from cached sums alone.
	if cap(c.lbBuf) < len(c.entries) {
		c.lbBuf = make([]uint64, len(c.entries)+16)
	}
	lbs := c.lbBuf[:len(c.entries)]
	for i := range c.entries {
		row := c.segs[i*4 : i*4+4]
		lbs[i] = absDiffU64(segs[0], row[0]) + absDiffU64(segs[1], row[1]) +
			absDiffU64(segs[2], row[2]) + absDiffU64(segs[3], row[3])
	}
	best := -1
	bestDist := math.Inf(1)
	// The best match is the lexicographic minimum of (distance, index)
	// over all entries satisfying their thresholds — independent of scan
	// order. Seed the scan with the entry of smallest lower bound
	// (usually the eventual winner): with a tight bestDist in hand from
	// the start, most other entries reject on cached sums alone.
	seed := -1
	if c.cfg.BestMatch && len(c.entries) > 1 {
		closest := ^uint64(0)
		for i, lb := range lbs {
			if lb < closest {
				seed, closest = i, lb
			}
		}
		if d, ok := c.evalEntry(seed, sig, sigSum, closest); ok {
			best, bestDist = seed, d
		}
	}
	for i := range c.entries {
		if i == seed {
			continue
		}
		e := &c.entries[i]
		var d float64
		if s := sigSum + e.sigSum; s > 0 {
			// With a best match in hand, an entry only matters if it can
			// beat bestDist — tighten the abort bound accordingly. An
			// entry pruned this way may still satisfy its threshold, but
			// a non-best match never influences the outcome. matchBound
			// is monotone in t, so taking the min in the float domain
			// first computes the same bound with one conversion.
			t := e.threshold
			if best >= 0 && bestDist < t {
				t = bestDist
			}
			bound := matchBound(t, s)
			// The segment lower bound from the pre-pass rejects the row
			// without touching its vector.
			if lbs[i] > bound {
				continue
			}
			m, within := signature.ManhattanBounded(sig, c.rowSig(i), bound)
			if !within {
				continue
			}
			d = float64(m) / float64(s)
		}
		if d >= e.threshold {
			continue
		}
		if !c.cfg.BestMatch {
			best, bestDist = i, d
			break
		}
		// Index breaks distance ties: the seed is the only entry ever
		// evaluated out of ascending order, so an equal-distance entry
		// at a smaller index must displace it (an entry with d equal to
		// bestDist survives the integer bound — see matchBound).
		if d < bestDist || (d == bestDist && i < best) {
			best, bestDist = i, d
		}
	}
	return best, bestDist
}

// rowLB returns row i's segment lower bound on its Manhattan distance
// to the incoming signature: the sum of absolute quarter-segment-sum
// differences never exceeds the true distance.
func (c *Classifier) rowLB(i int, segs *[4]uint64) uint64 {
	row := c.segs[i*4 : i*4+4]
	return absDiffU64(segs[0], row[0]) + absDiffU64(segs[1], row[1]) +
		absDiffU64(segs[2], row[2]) + absDiffU64(segs[3], row[3])
}

// scanIndexed finds the same (best row, distance) scanLinear would,
// through the two-level fast path:
//
// Level 1 evaluates the MRU row — phases are temporally stable (§3), so
// the row that matched last interval almost always matches this one —
// which hands the bucket walk a tight acceptance bound from the start.
//
// Level 2 walks the non-empty sum buckets outward from the incoming
// signature's own sum, nearest first. A row can change the outcome only
// if its Manhattan distance m to sig satisfies m <= matchBound(t, s)
// (s = sigSum + rowSum, t = the row's threshold, tightened under
// BestMatch by the best distance in hand), and m is bounded below by
// |sigSum - rowSum|; a whole bucket [lo, hi] is skipped when even its
// closest possible sum fails that test. Walking low, the sum gap only
// grows and the bound only shrinks, so the first prunable bucket ends
// the side; walking high, any row with rowSum(1-t) > sigSum(1+t)+2 is
// unreachable, which caps the keys worth visiting. In the common case —
// a stable phase with a tight MRU bound — every bucket prunes on cached
// sums alone and classification touches no other row's vector.
func (c *Classifier) scanIndexed(sig signature.Vector, segs *[4]uint64, sigSum uint64) (int, float64) {
	best := -1
	bestDist := math.Inf(1)
	mru := int(c.mru)
	if mru >= 0 && mru < len(c.entries) {
		c.istats.EntriesScanned++
		if d, ok := c.evalEntry(mru, sig, sigSum, c.rowLB(mru, segs)); ok {
			best, bestDist = mru, d
		}
	} else {
		mru = -1
	}

	keys := c.idx.keys
	start := bucketKey(sigSum)
	hiPos, _ := c.idx.find(start)
	loPos := hiPos - 1
	for loPos >= 0 || hiPos < len(keys) {
		// Current acceptance threshold: a row matters only if it beats
		// its own threshold (<= maxThr), and under BestMatch only if it
		// can reach bestDist (ties included — an equal distance at a
		// smaller row index displaces the incumbent).
		t := c.maxThr
		if c.cfg.BestMatch && best >= 0 && bestDist < t {
			t = bestDist
		}
		gapLo, gapHi := ^uint64(0), ^uint64(0)
		var loHi, hiLo, hiHi uint64
		if loPos >= 0 {
			_, loHi = bucketRange(keys[loPos])
			gapLo = sigSum - loHi
		}
		if hiPos < len(keys) {
			hiLo, hiHi = bucketRange(keys[hiPos])
			if keys[hiPos] == start {
				gapHi = 0
			} else {
				gapHi = hiLo - sigSum
			}
		}
		if gapLo < gapHi {
			if gapLo > matchBound(t, sigSum+loHi) {
				// Every lower bucket has a larger gap and a smaller
				// bound: the low side is done.
				loPos = -1
				continue
			}
			c.scanBucket(c.idx.buckets[loPos], mru, sig, segs, sigSum, &best, &bestDist)
			loPos--
		} else {
			if keys[hiPos] != start {
				if t < 1 {
					// Rows with sum beyond sMax fail
					// sum-sigSum <= t*(sigSum+sum)+1 outright, and so
					// does every later (higher-sum) bucket. The +2
					// absorbs matchBound's +1 margin and float
					// rounding.
					if sMax := (float64(sigSum)*(1+t) + 2) / (1 - t); float64(hiLo) > sMax {
						hiPos = len(keys)
						continue
					}
				}
				if gapHi > matchBound(t, sigSum+hiHi) {
					hiPos++
					continue
				}
			}
			c.scanBucket(c.idx.buckets[hiPos], mru, sig, segs, sigSum, &best, &bestDist)
			hiPos++
		}
	}
	return best, bestDist
}

// scanBucket evaluates one bucket's rows with the exact per-row logic
// of the linear scan: threshold bound, segment lower bound, bounded
// Manhattan distance, float divide, lexicographic (distance, index)
// tie-break under BestMatch and minimum matching index otherwise.
func (c *Classifier) scanBucket(rows []int32, mru int, sig signature.Vector, segs *[4]uint64, sigSum uint64, best *int, bestDist *float64) {
	c.istats.BucketsScanned++
	for _, r := range rows {
		i := int(r)
		if i == mru {
			continue // level 1 already evaluated it
		}
		if !c.cfg.BestMatch && *best >= 0 && i > *best {
			// First-match semantics: only a smaller-index match can
			// displace the one in hand.
			continue
		}
		c.istats.EntriesScanned++
		e := &c.entries[i]
		var d float64
		if s := sigSum + e.sigSum; s > 0 {
			t := e.threshold
			if c.cfg.BestMatch && *best >= 0 && *bestDist < t {
				t = *bestDist
			}
			bound := matchBound(t, s)
			if c.rowLB(i, segs) > bound {
				continue
			}
			m, within := signature.ManhattanBounded(sig, c.rowSig(i), bound)
			if !within {
				continue
			}
			d = float64(m) / float64(s)
		}
		if d >= e.threshold {
			continue
		}
		if !c.cfg.BestMatch {
			if *best < 0 || i < *best {
				*best, *bestDist = i, d
			}
			continue
		}
		if d < *bestDist || (d == *bestDist && i < *best) {
			*best, *bestDist = i, d
		}
	}
}

// matchBound returns an integer Manhattan-distance bound B such that
// every distance m the float comparison float64(m)/float64(s) < t would
// accept satisfies m <= B. Signature sums fit in well under 2^24
// (<= 2*64 counters * 65535), so s is exact in float64 and the
// correctly-rounded product and division stray from the real values by
// far less than 1; the +1 margin absorbs both roundings. Distances
// above B therefore reject without ever converting to float.
func matchBound(t float64, s uint64) uint64 {
	return uint64(t*float64(s)) + 1
}

// absDiffU64 returns |a-b|.
func absDiffU64(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// evalEntry computes row i's exact normalized distance when the row
// satisfies its threshold; ok=false means it does not match. lb is the
// row's precomputed segment lower bound. The logic mirrors the Classify
// scan body with no bestDist tightening.
func (c *Classifier) evalEntry(i int, sig signature.Vector, sigSum, lb uint64) (d float64, ok bool) {
	e := &c.entries[i]
	if s := sigSum + e.sigSum; s > 0 {
		bound := matchBound(e.threshold, s)
		if lb > bound {
			return 0, false
		}
		m, within := signature.ManhattanBounded(sig, c.rowSig(i), bound)
		if !within {
			return 0, false
		}
		d = float64(m) / float64(s)
	}
	if d >= e.threshold {
		return 0, false
	}
	return d, true
}

// match handles classification into an existing entry.
func (c *Classifier) match(i int, dist float64, sig signature.Vector, sigSum uint64, segs [4]uint64, cpi float64) Result {
	e := &c.entries[i]
	c.stats.MatchedSameThreshold++
	e.lastUse = c.clock
	// "the matching signature in the table is replaced with the
	// current signature" (§4.1 step 3).
	copy(c.rowSig(i), sig)
	copy(c.segs[i*4:i*4+4], segs[:])
	if oldKey, newKey := bucketKey(e.sigSum), bucketKey(sigSum); oldKey != newKey {
		c.idx.remove(int32(i), e.sigSum)
		c.idx.add(int32(i), sigSum)
	}
	e.sigSum = sigSum
	c.mru = int32(i)

	res := Result{Matched: true, Distance: dist}
	if e.minCount < 1<<20 { // saturate far above any useful threshold
		e.minCount++
	}
	if e.phaseID == TransitionPhase && e.minCount >= c.cfg.MinCountThreshold {
		e.phaseID = c.allocID()
		res.Promoted = true
		c.stats.Promotions++
	}
	res.PhaseID = e.phaseID
	if res.PhaseID == TransitionPhase {
		c.stats.TransitionIntervals++
	}

	if c.cfg.Adaptive {
		res.Split = c.feedback(e, cpi)
	}
	return res
}

// feedback applies §4.6: track the running-average CPI of intervals
// classified into the entry; on significant deviation, halve the
// entry's similarity threshold and clear its statistics. Returns true
// when a split (tightening) occurred.
//
// CPI statistics are kept only for promoted entries ("when a new phase
// ID is created, we store a running average of the CPI with the phase
// ID"), and a deviation can only split after FeedbackWarmup samples.
func (c *Classifier) feedback(e *entry, cpi float64) bool {
	if e.phaseID == TransitionPhase {
		return false
	}
	warmup := c.cfg.FeedbackWarmup
	if warmup == 0 {
		warmup = 3
	}
	if e.cpiCount >= warmup && e.cpiMean > 0 {
		dev := math.Abs(cpi-e.cpiMean) / e.cpiMean
		if dev > c.cfg.DeviationThreshold {
			// Require the deviation to persist for two consecutive
			// intervals before splitting: a single tail-noise sample
			// in an otherwise homogeneous phase would permanently
			// tighten the threshold and shatter the phase, while a
			// genuinely heterogeneous phase deviates persistently and
			// still splits immediately on its second interval.
			e.devStreak++
			if e.devStreak < 2 {
				return false
			}
			e.devStreak = 0
			if e.threshold/2 >= c.minSim {
				e.threshold /= 2
				c.stats.Splits++
				// "the average CPI and statistics associated with
				// that phase ID are cleared."
				e.cpiCount = 0
				e.cpiMean = 0
				return true
			}
			// Threshold already at the floor: clear stats but do not
			// count a split.
			e.cpiCount = 0
			e.cpiMean = 0
			return false
		}
		e.devStreak = 0
	}
	e.cpiCount++
	e.cpiMean += (cpi - e.cpiMean) / float64(e.cpiCount)
	return false
}

// insert creates a new table entry for sig, evicting the LRU entry if
// the table is full.
func (c *Classifier) insert(sig signature.Vector, sigSum uint64, segs [4]uint64) Result {
	res := Result{NewSignature: true}
	c.stats.NewSignatures++

	e := entry{
		sigSum:     sigSum,
		threshold:  c.cfg.SimilarityThreshold,
		lastUse:    c.clock,
		insertedAt: c.clock,
	}
	if c.cfg.MinCountThreshold == 0 {
		// No transition phase: new signatures get real IDs
		// immediately, as in the prior work.
		e.phaseID = c.allocID()
	} else {
		e.phaseID = TransitionPhase
		c.stats.TransitionIntervals++
	}
	res.PhaseID = e.phaseID

	if c.cfg.TableEntries > 0 && len(c.entries) >= c.cfg.TableEntries {
		victim := 0
		for i := range c.entries {
			if c.cfg.ReplacementFIFO {
				if c.entries[i].insertedAt < c.entries[victim].insertedAt {
					victim = i
				}
			} else if c.entries[i].lastUse < c.entries[victim].lastUse {
				victim = i
			}
		}
		// Overwrite the victim's row and signature slab in place: a
		// full table inserts without allocating.
		if oldKey, newKey := bucketKey(c.entries[victim].sigSum), bucketKey(sigSum); oldKey != newKey {
			c.idx.remove(int32(victim), c.entries[victim].sigSum)
			c.idx.add(int32(victim), sigSum)
		}
		res.EvictedID = c.entries[victim].phaseID
		c.entries[victim] = e
		copy(c.rowSig(victim), sig)
		copy(c.segs[victim*4:victim*4+4], segs[:])
		c.mru = int32(victim)
		res.Evicted = true
		c.stats.Evictions++
	} else {
		c.entries = append(c.entries, e)
		c.sigs = append(c.sigs, sig...)
		c.segs = append(c.segs, segs[0], segs[1], segs[2], segs[3])
		c.idx.add(int32(len(c.entries)-1), sigSum)
		c.mru = int32(len(c.entries) - 1)
	}
	return res
}

func (c *Classifier) allocID() int {
	id := c.nextID
	c.nextID++
	c.stats.PhaseIDsCreated++
	return id
}

// FlushFeedback clears the CPI statistics of every entry. The paper
// notes that an optimization which changes the machine's CPI should
// flush the feedback state during reconfiguration so stale averages do
// not trigger spurious splits (§4.6).
func (c *Classifier) FlushFeedback() {
	for i := range c.entries {
		c.entries[i].cpiCount = 0
		c.entries[i].cpiMean = 0
	}
}

// Snapshot describes one table entry for diagnostics and tests.
type Snapshot struct {
	PhaseID   int
	MinCount  int
	Threshold float64
	AvgCPI    float64
	CPICount  int
}

// Table returns a snapshot of the current signature table in unspecified
// order.
func (c *Classifier) Table() []Snapshot {
	out := make([]Snapshot, len(c.entries))
	for i := range c.entries {
		e := &c.entries[i]
		out[i] = Snapshot{
			PhaseID:   e.phaseID,
			MinCount:  e.minCount,
			Threshold: e.threshold,
			AvgCPI:    e.cpiMean,
			CPICount:  e.cpiCount,
		}
	}
	return out
}
