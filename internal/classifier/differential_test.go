package classifier

// Differential test of the optimized classifier scan against a naive
// reference implementation. The production Classify runs in the integer
// domain with cached sums, segment lower bounds, a seeded best-match
// scan, and mid-vector early exits; the reference below computes the
// full float normalized distance for every entry exactly as the
// original code did. The two must produce byte-identical Result streams
// for any input — the optimizations are pure pruning, never heuristics.

import (
	"bytes"
	"math"
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/signature"
	"phasekit/internal/state"
)

// refEntry is one row of the reference signature table.
type refEntry struct {
	sig        signature.Vector
	phaseID    int
	minCount   int
	threshold  float64
	lastUse    uint64
	insertedAt uint64
	cpiCount   int
	cpiMean    float64
	devStreak  int
}

// refClassifier is the naive float-domain reference: a direct
// transcription of the classifier before the early-exit overhaul, using
// signature.Distance per entry with no pruning.
type refClassifier struct {
	cfg     Config
	entries []*refEntry
	clock   uint64
	nextID  int
	minSim  float64
}

func newRef(cfg Config) *refClassifier {
	minSim := cfg.MinSimilarityThreshold
	if minSim == 0 {
		minSim = 1.0 / 64
	}
	return &refClassifier{cfg: cfg, nextID: TransitionPhase + 1, minSim: minSim}
}

func (c *refClassifier) classify(sig signature.Vector, cpi float64) Result {
	c.clock++
	best := -1
	bestDist := math.Inf(1)
	for i, e := range c.entries {
		d := signature.Distance(sig, e.sig)
		if d >= e.threshold {
			continue
		}
		if !c.cfg.BestMatch {
			best, bestDist = i, d
			break
		}
		if d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		return c.insert(sig)
	}
	return c.match(best, bestDist, sig, cpi)
}

func (c *refClassifier) match(i int, dist float64, sig signature.Vector, cpi float64) Result {
	e := c.entries[i]
	e.lastUse = c.clock
	copy(e.sig, sig)

	res := Result{Matched: true, Distance: dist}
	if e.minCount < 1<<20 {
		e.minCount++
	}
	if e.phaseID == TransitionPhase && e.minCount >= c.cfg.MinCountThreshold {
		e.phaseID = c.allocID()
		res.Promoted = true
	}
	res.PhaseID = e.phaseID
	if c.cfg.Adaptive {
		res.Split = c.feedback(e, cpi)
	}
	return res
}

func (c *refClassifier) feedback(e *refEntry, cpi float64) bool {
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
			e.devStreak++
			if e.devStreak < 2 {
				return false
			}
			e.devStreak = 0
			if e.threshold/2 >= c.minSim {
				e.threshold /= 2
				e.cpiCount = 0
				e.cpiMean = 0
				return true
			}
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

func (c *refClassifier) insert(sig signature.Vector) Result {
	res := Result{NewSignature: true}
	e := &refEntry{
		sig:        sig.Clone(),
		threshold:  c.cfg.SimilarityThreshold,
		lastUse:    c.clock,
		insertedAt: c.clock,
	}
	if c.cfg.MinCountThreshold == 0 {
		e.phaseID = c.allocID()
	} else {
		e.phaseID = TransitionPhase
	}
	res.PhaseID = e.phaseID

	if c.cfg.TableEntries > 0 && len(c.entries) >= c.cfg.TableEntries {
		victim := 0
		for i, ent := range c.entries {
			if c.cfg.ReplacementFIFO {
				if ent.insertedAt < c.entries[victim].insertedAt {
					victim = i
				}
			} else if ent.lastUse < c.entries[victim].lastUse {
				victim = i
			}
		}
		res.EvictedID = c.entries[victim].phaseID
		c.entries[victim] = e
		res.Evicted = true
	} else {
		c.entries = append(c.entries, e)
	}
	return res
}

func (c *refClassifier) allocID() int {
	id := c.nextID
	c.nextID++
	return id
}

// diffConfigs spans the configuration space the optimizations interact
// with: table capacity (bounded, unbounded, tiny), both match policies,
// adaptive thresholds on and off, the transition phase on and off, and
// both replacement policies.
var diffConfigs = []Config{
	{TableEntries: 32, SimilarityThreshold: 0.25, MinCountThreshold: 8, BestMatch: true, Adaptive: true, DeviationThreshold: 0.25},
	{TableEntries: 32, SimilarityThreshold: 0.25, MinCountThreshold: 8, BestMatch: false, Adaptive: true, DeviationThreshold: 0.25},
	{TableEntries: 0, SimilarityThreshold: 0.25, MinCountThreshold: 8, BestMatch: true, Adaptive: false},
	{TableEntries: 4, SimilarityThreshold: 0.5, MinCountThreshold: 0, BestMatch: true, Adaptive: true, DeviationThreshold: 0.125},
	{TableEntries: 2, SimilarityThreshold: 0.125, MinCountThreshold: 2, BestMatch: false, Adaptive: false},
	{TableEntries: 8, SimilarityThreshold: 0.25, MinCountThreshold: 4, BestMatch: true, Adaptive: true, DeviationThreshold: 0.5, ReplacementFIFO: true},
	{TableEntries: 16, SimilarityThreshold: 0.0625, MinCountThreshold: 8, BestMatch: true, Adaptive: true, DeviationThreshold: 0.25},
}

// randomStream synthesizes a signature+CPI stream with heavy self-
// similarity: a pool of base signatures is revisited with perturbations
// so matches, promotions, evictions, and adaptive splits all trigger.
func randomStream(seed uint64, dims, n int) ([]signature.Vector, []float64) {
	x := rng.NewXoshiro256(seed)
	nbases := 3 + int(x.Uint64()%6)
	bases := make([]signature.Vector, nbases)
	for b := range bases {
		v := make(signature.Vector, dims)
		for i := range v {
			v[i] = uint16(x.Uint64() % 64)
		}
		bases[b] = v
	}
	sigs := make([]signature.Vector, n)
	cpis := make([]float64, n)
	for k := 0; k < n; k++ {
		var v signature.Vector
		switch x.Uint64() % 8 {
		case 0: // fresh random signature, likely a new phase
			v = make(signature.Vector, dims)
			for i := range v {
				v[i] = uint16(x.Uint64() % 64)
			}
		case 1: // all-zero signature exercises the s==0 path
			v = make(signature.Vector, dims)
		default: // revisit a base with small perturbations
			v = bases[x.Uint64()%uint64(nbases)].Clone()
			for p := 0; p < dims/4+1; p++ {
				i := int(x.Uint64() % uint64(dims))
				v[i] = uint16(uint64(v[i]) + x.Uint64()%5)
			}
		}
		sigs[k] = v
		// Occasionally spike CPI to trigger adaptive splits.
		cpi := 1.0 + float64(x.Uint64()%100)/200
		if x.Uint64()%10 == 0 {
			cpi *= 3
		}
		cpis[k] = cpi
	}
	return sigs, cpis
}

// runDifferential drives both implementations over one stream and
// requires byte-identical Result values at every step.
func runDifferential(t *testing.T, cfg Config, sigs []signature.Vector, cpis []float64) {
	t.Helper()
	opt := New(cfg)
	ref := newRef(cfg)
	for k := range sigs {
		got := opt.Classify(sigs[k], cpis[k])
		want := ref.classify(sigs[k], cpis[k])
		if got != want {
			t.Fatalf("step %d (cfg %+v): optimized %+v != reference %+v", k, cfg, got, want)
		}
	}
	if got, want := opt.PhaseIDs(), ref.nextID-1; got != want {
		t.Fatalf("cfg %+v: PhaseIDs %d != reference %d", cfg, got, want)
	}
	if got, want := opt.TableLen(), len(ref.entries); got != want {
		t.Fatalf("cfg %+v: TableLen %d != reference %d", cfg, got, want)
	}
}

// TestClassifierDifferential sweeps configurations, dimensionalities,
// and seeds. Every optimization in Classify (cached sums, segment lower
// bounds, the integer-domain abort, seeded best-match scanning) must be
// invisible in the Result stream.
func TestClassifierDifferential(t *testing.T) {
	for _, cfg := range diffConfigs {
		for _, dims := range []int{4, 8, 16, 32} {
			for seed := uint64(1); seed <= 6; seed++ {
				sigs, cpis := randomStream(seed*0x9e3779b9, dims, 400)
				runDifferential(t, cfg, sigs, cpis)
			}
		}
	}
}

// TestClassifierDifferentialHighWeight uses signature values up to the
// uint16 maximum so signature sums approach the 2^24 regime the
// matchBound derivation relies on.
func TestClassifierDifferentialHighWeight(t *testing.T) {
	x := rng.NewXoshiro256(0xfeedface)
	const dims = 32
	n := 300
	sigs := make([]signature.Vector, n)
	cpis := make([]float64, n)
	base := make(signature.Vector, dims)
	for i := range base {
		base[i] = uint16(x.Uint64())
	}
	for k := 0; k < n; k++ {
		v := base.Clone()
		for p := 0; p < 8; p++ {
			i := int(x.Uint64() % uint64(dims))
			v[i] = uint16(x.Uint64())
		}
		sigs[k] = v
		cpis[k] = 1 + float64(x.Uint64()%300)/100
	}
	for _, cfg := range diffConfigs {
		runDifferential(t, cfg, sigs, cpis)
	}
}

// snapshotBytes returns the classifier's canonical snapshot encoding.
func snapshotBytes(c *Classifier) []byte {
	enc := state.AppendTo(nil)
	c.Snapshot(enc)
	return enc.Bytes()
}

// runDifferentialIndexed drives the production indexed classifier
// against a second instance forced onto the retained linear scan. The
// index and MRU seed are pure pruning, so the two must agree on every
// Result and — because neither the index nor its statistics are
// serialized — on every snapshot byte.
func runDifferentialIndexed(t *testing.T, cfg Config, sigs []signature.Vector, cpis []float64) {
	t.Helper()
	idx := New(cfg)
	lin := New(cfg)
	lin.linearScan = true
	for k := range sigs {
		got := idx.Classify(sigs[k], cpis[k])
		want := lin.Classify(sigs[k], cpis[k])
		if got != want {
			t.Fatalf("step %d (cfg %+v): indexed %+v != linear %+v", k, cfg, got, want)
		}
	}
	ib, lb := snapshotBytes(idx), snapshotBytes(lin)
	if !bytes.Equal(ib, lb) {
		t.Fatalf("cfg %+v: indexed snapshot (%d bytes) differs from linear snapshot (%d bytes)", cfg, len(ib), len(lb))
	}
}

// runDifferentialRestore snapshots the indexed classifier mid-stream,
// restores it into a fresh instance (whose index is rebuilt and MRU
// seed invalidated) and into a dirty one that already classified the
// whole stream backwards (whose table, slab and index buckets the
// restore refills in place), and requires both resumed runs to stay
// bit-identical to the uninterrupted indexed run and the linear oracle.
func runDifferentialRestore(t *testing.T, cfg Config, sigs []signature.Vector, cpis []float64) {
	t.Helper()
	half := len(sigs) / 2
	idx := New(cfg)
	lin := New(cfg)
	lin.linearScan = true
	for k := 0; k < half; k++ {
		idx.Classify(sigs[k], cpis[k])
		lin.Classify(sigs[k], cpis[k])
	}
	resumed := New(cfg)
	if err := resumed.Restore(state.NewDecoder(snapshotBytes(idx))); err != nil {
		t.Fatalf("cfg %+v: restore: %v", cfg, err)
	}
	dirty := New(cfg)
	for k := len(sigs) - 1; k >= 0; k-- {
		dirty.Classify(sigs[k], cpis[k])
	}
	if err := dirty.Restore(state.NewDecoder(snapshotBytes(idx))); err != nil {
		t.Fatalf("cfg %+v: restore into a dirty classifier: %v", cfg, err)
	}
	for k := half; k < len(sigs); k++ {
		cont := idx.Classify(sigs[k], cpis[k])
		res := resumed.Classify(sigs[k], cpis[k])
		dres := dirty.Classify(sigs[k], cpis[k])
		want := lin.Classify(sigs[k], cpis[k])
		if cont != want {
			t.Fatalf("step %d (cfg %+v): indexed %+v != linear %+v", k, cfg, cont, want)
		}
		if res != want {
			t.Fatalf("step %d (cfg %+v): restored indexed %+v != linear %+v", k, cfg, res, want)
		}
		if dres != want {
			t.Fatalf("step %d (cfg %+v): dirty-restored indexed %+v != linear %+v", k, cfg, dres, want)
		}
	}
	if resumed.IndexStats() != dirty.IndexStats() {
		t.Fatalf("cfg %+v: dirty-restored index stats %+v != fresh-restored %+v", cfg, dirty.IndexStats(), resumed.IndexStats())
	}
	if !bytes.Equal(snapshotBytes(idx), snapshotBytes(dirty)) {
		t.Fatalf("cfg %+v: dirty-restored snapshot diverged from uninterrupted snapshot", cfg)
	}
	if !bytes.Equal(snapshotBytes(idx), snapshotBytes(resumed)) {
		t.Fatalf("cfg %+v: resumed snapshot diverged from uninterrupted snapshot", cfg)
	}
	if !bytes.Equal(snapshotBytes(idx), snapshotBytes(lin)) {
		t.Fatalf("cfg %+v: indexed snapshot diverged from linear snapshot", cfg)
	}
}

// insertHeavyStream synthesizes a stream dominated by fresh random
// signatures: the table churns through inserts and evictions (or grows
// without bound), keeping the sum index's add/remove/rebuild paths hot
// instead of the MRU fast path.
func insertHeavyStream(seed uint64, dims, n int) ([]signature.Vector, []float64) {
	x := rng.NewXoshiro256(seed)
	sigs := make([]signature.Vector, n)
	cpis := make([]float64, n)
	for k := 0; k < n; k++ {
		v := make(signature.Vector, dims)
		for i := range v {
			v[i] = uint16(x.Uint64() % 4096)
		}
		if x.Uint64()%16 == 0 {
			// A cluster of near-identical sums lands many rows in one
			// bucket.
			for i := range v {
				v[i] = uint16(64 + x.Uint64()%4)
			}
		}
		sigs[k] = v
		cpis[k] = 1.0 + float64(x.Uint64()%100)/200
	}
	return sigs, cpis
}

// TestClassifierDifferentialIndexed pits the two-level indexed scan
// against the retained linear scan across the config space, both on the
// self-similar streams (MRU-friendly) and on insert-heavy churn.
func TestClassifierDifferentialIndexed(t *testing.T) {
	for _, cfg := range diffConfigs {
		for _, dims := range []int{4, 8, 16, 32} {
			for seed := uint64(1); seed <= 4; seed++ {
				sigs, cpis := randomStream(seed*0x51ed2701, dims, 400)
				runDifferentialIndexed(t, cfg, sigs, cpis)
			}
		}
		sigs, cpis := insertHeavyStream(0xabcdef, 16, 600)
		runDifferentialIndexed(t, cfg, sigs, cpis)
	}
}

// TestClassifierDifferentialRestore proves restore round-trips are
// invisible: the rebuilt index and invalidated MRU seed never change a
// classification or a snapshot byte.
func TestClassifierDifferentialRestore(t *testing.T) {
	for _, cfg := range diffConfigs {
		sigs, cpis := randomStream(0x2badd00d, 16, 400)
		runDifferentialRestore(t, cfg, sigs, cpis)
		sigs, cpis = insertHeavyStream(0x5eed5eed, 8, 400)
		runDifferentialRestore(t, cfg, sigs, cpis)
	}
}

// TestClassifierDifferentialIndexedHighWeight drives uint16-maximum
// signature values through the indexed path so bucket keys reach the
// high octaves the matchBound derivation relies on.
func TestClassifierDifferentialIndexedHighWeight(t *testing.T) {
	x := rng.NewXoshiro256(0x0ddba11)
	const dims = 32
	n := 300
	sigs := make([]signature.Vector, n)
	cpis := make([]float64, n)
	base := make(signature.Vector, dims)
	for i := range base {
		base[i] = uint16(x.Uint64())
	}
	for k := 0; k < n; k++ {
		v := base.Clone()
		for p := 0; p < 8; p++ {
			i := int(x.Uint64() % uint64(dims))
			v[i] = uint16(x.Uint64())
		}
		sigs[k] = v
		cpis[k] = 1 + float64(x.Uint64()%300)/100
	}
	for _, cfg := range diffConfigs {
		runDifferentialIndexed(t, cfg, sigs, cpis)
	}
}

// FuzzClassifierDifferential lets the fuzzer drive the stream shape
// directly; the seed corpus alone exercises every config against two
// seeds on every `go test`. Each input is checked three ways: indexed
// vs the naive float reference, indexed vs the retained linear scan
// (including snapshot bytes), and a mid-stream restore round-trip.
func FuzzClassifierDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(16), uint16(200))
	f.Add(uint64(42), uint8(8), uint16(300))
	f.Fuzz(func(t *testing.T, seed uint64, dims uint8, n uint16) {
		d := int(dims)
		if d < 1 || d > 64 {
			d = 16
		}
		steps := int(n)%1000 + 1
		sigs, cpis := randomStream(seed, d, steps)
		for _, cfg := range diffConfigs {
			runDifferential(t, cfg, sigs, cpis)
			runDifferentialIndexed(t, cfg, sigs, cpis)
			runDifferentialRestore(t, cfg, sigs, cpis)
		}
	})
}
