// Package core assembles the paper's complete run-time phase tracking
// architecture (Figure 1 plus the §4–6 extensions): branch events feed
// an accumulator table; at each interval boundary the accumulator is
// compressed into a signature and classified into a phase; and the
// phase stream drives next-phase, phase-change, and phase-length
// prediction.
//
// Two entry points share one engine: Tracker consumes a live branch
// stream (the hardware's view), while Evaluate replays a profiled
// trace.Run (the harness's fast path for sweeping configurations over
// one execution).
package core

import (
	"errors"
	"fmt"

	"phasekit/internal/classifier"
	"phasekit/internal/predictor"
	"phasekit/internal/signature"
	"phasekit/internal/state"
	"phasekit/internal/stats"
	"phasekit/internal/trace"
)

// ErrConfig is wrapped by every configuration validation failure in
// this package and the layers built on it (fleet, server), so callers
// can dispatch on errors.Is(err, ErrConfig) instead of string matching.
var ErrConfig = errors.New("phasekit: invalid configuration")

// Config selects every architectural parameter of the tracker.
type Config struct {
	// IntervalInstrs is the profiling interval length (10M in the
	// paper).
	IntervalInstrs uint64
	// Dims is the number of accumulator counters (16 for all §5–6
	// results).
	Dims int
	// Compress selects signature bit selection.
	Compress signature.CompressConfig
	// Classifier configures the signature table.
	Classifier classifier.Config
	// Predictor configures next-phase/phase-change prediction.
	Predictor predictor.NextPhaseConfig
	// ChangeOutcome configures the dedicated §6.1 predictor of the
	// next phase change's outcome (queried and trained only at phase
	// changes, unlike Predictor's per-interval table).
	ChangeOutcome predictor.ChangeTableConfig
	// Length configures phase length prediction.
	Length predictor.LengthConfig
}

// DefaultConfig returns the paper's §5 configuration: 16 counters with
// 6 dynamically selected bits each, a 32 entry signature table with a
// 25% similarity threshold, min count 8 and 25% deviation threshold,
// an RLE-2 phase change predictor with confidence, and the RLE-2 length
// predictor with hysteresis.
func DefaultConfig() Config {
	change := predictor.DefaultChangeTableConfig(predictor.RLE, 2)
	// Top-4 Markov-1 with confidence was the paper's strongest phase
	// change outcome predictor (50% accuracy, 11% mispredictions).
	outcome := predictor.DefaultChangeTableConfig(predictor.Markov, 1)
	outcome.Track = predictor.TrackTopN
	outcome.TopN = 4
	return Config{
		IntervalInstrs: 10_000_000,
		Dims:           16,
		Compress:       signature.DefaultCompressConfig(),
		Classifier:     classifier.DefaultConfig(),
		Predictor: predictor.NextPhaseConfig{
			LastValue: predictor.DefaultLastValueConfig(),
			Change:    &change,
		},
		ChangeOutcome: outcome,
		Length:        predictor.DefaultLengthConfig(),
	}
}

// Validate reports whether the configuration is usable. Every failure
// wraps ErrConfig (including failures from the component validators),
// so one errors.Is check classifies them all.
func (c Config) Validate() error {
	if c.IntervalInstrs == 0 {
		return fmt.Errorf("%w: core: IntervalInstrs must be positive", ErrConfig)
	}
	if c.Dims <= 0 || c.Dims&(c.Dims-1) != 0 {
		return fmt.Errorf("%w: core: Dims must be a positive power of two, got %d", ErrConfig, c.Dims)
	}
	for _, err := range []error{
		c.Compress.Validate(),
		c.Classifier.Validate(),
		c.Predictor.Validate(),
		c.ChangeOutcome.Validate(),
		c.Length.Validate(),
	} {
		if err != nil {
			return fmt.Errorf("%w: %w", ErrConfig, err)
		}
	}
	return nil
}

// IntervalResult reports everything the architecture decided at one
// interval boundary.
type IntervalResult struct {
	// Index is the interval number, starting at 0.
	Index int
	// PhaseID is the classification of the completed interval.
	PhaseID int
	// CPI is the completed interval's measured cycles per instruction
	// (0 when the caller supplies no cycle counts).
	CPI float64
	// Classification carries the signature-table outcome.
	Classification classifier.Result
	// NextPhase is the prediction for the following interval.
	NextPhase predictor.Prediction
	// NextChange is the dedicated §6.1 prediction of the next phase
	// change's outcome, whenever that change may occur.
	NextChange predictor.ChangeLookup
	// NextLengthClass is the predicted run-length class that would
	// apply if a phase change happened next (§6.2).
	NextLengthClass int
	// RunLengthClass is the class predicted for the run this interval
	// belongs to, issued when the run began (§6.2: "when we are about
	// to leave a phase, we predict the length of the next phase").
	RunLengthClass int
}

// engine is the shared per-interval pipeline.
type engine struct {
	cfg    Config
	cls    *classifier.Classifier
	np     *predictor.NextPhasePredictor
	chg    *predictor.ChangePredictor
	length *predictor.LengthPredictor
	index  int

	// Report state is O(phases), not O(intervals). collect holds the
	// interval counts and the closed runs' length summaries; phases
	// summarises each phase ID's CPI (IDs are small and dense: 0 is the
	// transition phase, real IDs count up from 1), whole every
	// interval's CPI in interval order, and runPhase/runLen the run
	// still open.
	collect  Report
	phases   []stats.Running
	whole    stats.Running
	runPhase int
	runLen   int

	// sigBuf is the reusable compression buffer: the classifier copies
	// or clones any signature it retains, so one buffer serves every
	// interval and the steady-state pipeline allocates no Vector per
	// classification.
	sigBuf signature.Vector
}

func newEngine(cfg Config) *engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &engine{
		cfg:    cfg,
		cls:    classifier.New(cfg.Classifier),
		np:     predictor.NewNextPhase(cfg.Predictor),
		chg:    predictor.NewChangePredictor(cfg.ChangeOutcome),
		length: predictor.NewLengthPredictor(cfg.Length),
		sigBuf: make(signature.Vector, cfg.Dims),
	}
}

// observe advances every component with one completed interval's
// signature and CPI and accumulates report state. It is the Report-only
// replay path: the pure prediction queries that populate an
// IntervalResult are skipped, since they read state without modifying
// it and so cannot affect any later interval or the final Report.
func (e *engine) observe(sig signature.Vector, cpi float64) classifier.Result {
	res := e.cls.Classify(sig, cpi)
	if res.NewSignature {
		// §5.1: a new signature-table entry resets the associated
		// last-value confidence counter.
		e.np.NotifyNewSignature(res.PhaseID)
	}
	e.np.Observe(res.PhaseID)
	if res.Evicted && res.EvictedID != classifier.TransitionPhase {
		// The victim's phase ID can never be emitted again, so its
		// last-value confidence counter is dead weight: dropping it
		// bounds the counters by the live table, not by every ID the
		// stream ever minted. Retire it only after Observe, which
		// still trains the previous interval's phase — possibly the
		// victim's. Top-N outcome counts and the per-phase CPI
		// summaries stay: predictions and PhaseCoV read them.
		e.np.RetirePhase(res.EvictedID)
	}
	e.chg.Observe(res.PhaseID)
	e.length.Observe(res.PhaseID)
	e.index++

	for res.PhaseID >= len(e.phases) {
		e.phases = append(e.phases, stats.Running{})
	}
	e.phases[res.PhaseID].Add(cpi)
	e.whole.Add(cpi)
	if e.runLen > 0 && res.PhaseID != e.runPhase {
		closeRun(&e.collect, e.runPhase, e.runLen)
		e.runLen = 0
	}
	e.runPhase = res.PhaseID
	e.runLen++
	if res.PhaseID == classifier.TransitionPhase {
		e.collect.TransitionIntervals++
	}
	e.collect.Intervals++
	return res
}

// step is observe plus the full per-interval result, for consumers of
// the prediction stream (Tracker, EvaluateDetailed).
func (e *engine) step(sig signature.Vector, cpi float64) IntervalResult {
	index := e.index
	res := e.observe(sig, cpi)
	out := IntervalResult{
		Index:           index,
		PhaseID:         res.PhaseID,
		CPI:             cpi,
		Classification:  res,
		NextPhase:       e.np.Predict(),
		NextChange:      e.chg.PredictNextChange(),
		NextLengthClass: e.length.PredictNext(),
	}
	out.RunLengthClass, _ = e.length.PendingPrediction()
	return out
}

// Report aggregates a full run's phase tracking behaviour: the §3.1
// quality metric, phase counts, run-length statistics, and every
// predictor's accounting.
type Report struct {
	Name                string
	Intervals           int
	TransitionIntervals int
	PhaseIDs            int
	// PhaseCoV is the execution-weighted per-phase CoV of CPI with the
	// transition phase excluded (§3.1, §4.4).
	PhaseCoV float64
	// WholeCoV is the CoV of CPI over all intervals (the "Whole
	// Program" bars of Fig 3).
	WholeCoV float64
	// StableRuns and TransitionRuns summarise run lengths (Fig 5).
	StableRuns     stats.Running
	TransitionRuns stats.Running
	// NextPhase, Change, ChangeOutcome and Length carry predictor
	// accounting (Figs 7-9). Change is measured at change points by
	// the per-interval next-phase machinery; ChangeOutcome by the
	// dedicated §6.1 predictor.
	NextPhase     predictor.NextPhaseStats
	Change        predictor.ChangeStats
	ChangeOutcome predictor.ChangeStats
	Length        predictor.LengthStats
	// Classifier carries signature-table statistics.
	Classifier classifier.Stats
}

// TransitionFraction returns the fraction of intervals classified into
// the transition phase.
func (r Report) TransitionFraction() float64 {
	if r.Intervals == 0 {
		return 0
	}
	return float64(r.TransitionIntervals) / float64(r.Intervals)
}

// LastValueMissRate returns the fraction of interval boundaries where
// the phase ID changed — exactly the misprediction rate of a plain
// last-value predictor (Fig 4's bottom-right graph).
func (r Report) LastValueMissRate() float64 {
	if r.Intervals <= 1 {
		return 0
	}
	return float64(r.Change.Changes) / float64(r.Intervals-1)
}

// closeRun folds a finished run of length n in phase into r's
// run-length summaries.
func closeRun(r *Report, phase, n int) {
	if phase == classifier.TransitionPhase {
		r.TransitionRuns.Add(float64(n))
	} else {
		r.StableRuns.Add(float64(n))
	}
}

// report finalizes aggregate statistics. The open run is closed into
// the copy being returned, never into the engine, so a mid-run Report
// leaves every later interval and Report unchanged.
func (e *engine) report(name string) Report {
	r := e.collect
	r.Name = name
	r.PhaseIDs = e.cls.PhaseIDs()
	r.PhaseCoV = stats.PhaseCoVSummaries(e.phases, classifier.TransitionPhase)
	r.WholeCoV = e.whole.CoV()
	if e.runLen > 0 {
		closeRun(&r, e.runPhase, e.runLen)
	}
	r.NextPhase = e.np.NextStats()
	r.Change = e.np.ChangeStats()
	r.ChangeOutcome = e.chg.ChangeStats()
	r.Length = e.length.Stats()
	r.Classifier = e.cls.Stats()
	return r
}

// Tracker is the online architecture: it consumes committed-branch
// events (and optionally cycle counts) and emits an IntervalResult at
// every interval boundary.
type Tracker struct {
	eng    *engine
	acc    *signature.Accumulator
	instrs uint64
	// limit caches eng.cfg.IntervalInstrs so the per-branch fast path
	// loads one Tracker field instead of chasing eng -> cfg.
	limit  uint64
	cycles uint64
	name   string
	// cfgEnc is the configuration's snapshot encoding, computed once:
	// every snapshot embeds it and every restore compares against it.
	cfgEnc []byte
	// res is the buffer Branch and Flush return a pointer into. Keeping
	// the ~140-byte IntervalResult out of the return value makes the
	// per-branch fast path two register stores instead of a duffzero of
	// caller result memory on every call.
	res IntervalResult
}

// NewTracker returns a tracker for cfg. It panics on invalid
// configurations.
func NewTracker(name string, cfg Config) *Tracker {
	eng := newEngine(cfg)
	enc := state.AppendTo(nil)
	encodeConfig(enc, cfg)
	return &Tracker{
		eng:    eng,
		acc:    signature.NewAccumulator(cfg.Dims),
		limit:  cfg.IntervalInstrs,
		name:   name,
		cfgEnc: enc.Bytes(),
	}
}

// Cycles charges cycles to the current interval; the resulting CPI
// feeds the adaptive classifier (§4.6). Calling it is optional: without
// cycle counts CPI is reported as 0 and adaptive thresholds should be
// disabled.
func (t *Tracker) Cycles(c uint64) { t.cycles += c }

// Branch records one committed branch (Figure 1 step 1-2). When the
// branch completes an interval, the interval is classified and the
// result returned with ok=true. The returned pointer aliases
// tracker-owned storage that is overwritten at the next interval
// boundary: callers that retain a result across further Branch or
// Flush calls must copy it. On the non-boundary fast path the result
// is nil.
func (t *Tracker) Branch(pc uint64, instrs uint32) (*IntervalResult, bool) {
	t.acc.Add(pc, instrs)
	t.instrs += uint64(instrs)
	if t.instrs < t.limit {
		return nil, false
	}
	return t.endInterval(), true
}

// endInterval closes the current interval, writing the result into the
// tracker's reusable buffer.
func (t *Tracker) endInterval() *IntervalResult {
	sig := t.eng.cfg.Compress.CompressInto(t.eng.sigBuf, t.acc)
	cpi := 0.0
	if t.instrs > 0 {
		cpi = float64(t.cycles) / float64(t.instrs)
	}
	t.acc.Reset()
	t.instrs = 0
	t.cycles = 0
	t.res = t.eng.step(sig, cpi)
	return &t.res
}

// Flush force-closes a trailing partial interval (end of program). It
// returns ok=false (and a nil result) if the interval was empty. The
// returned pointer has the same reuse contract as Branch's.
func (t *Tracker) Flush() (*IntervalResult, bool) {
	if t.instrs == 0 {
		return nil, false
	}
	return t.endInterval(), true
}

// Report returns aggregate statistics for everything tracked so far.
func (t *Tracker) Report() Report { return t.eng.report(t.name) }

// Pending returns the number of instructions accumulated in the
// current, not-yet-classified interval. Fleet eviction uses it to know
// whether an evicted stream still owes a Flush.
func (t *Tracker) Pending() uint64 { return t.instrs }

// ClassifierIndexStats returns the classifier's scan-index diagnostics
// (MRU fast-path hits, rows and buckets touched). Cheap: a field copy,
// no barrier with classification.
func (t *Tracker) ClassifierIndexStats() classifier.IndexStats { return t.eng.cls.IndexStats() }

// ClassifierTableLen returns the live signature-table length.
func (t *Tracker) ClassifierTableLen() int { return t.eng.cls.TableLen() }

// Classifications returns the classifier's lifetime classification
// count (the denominator for the index-stats rates).
func (t *Tracker) Classifications() int { return t.eng.cls.Stats().Classifications }

// PredictNext returns the current prediction for the next interval.
func (t *Tracker) PredictNext() predictor.Prediction { return t.eng.np.Predict() }

// PredictNextChange returns the dedicated §6.1 prediction of the next
// phase change's outcome.
func (t *Tracker) PredictNextChange() predictor.ChangeLookup {
	return t.eng.chg.PredictNextChange()
}

// PredictNextLengthClass returns the predicted run-length class of the
// next phase should a change occur now.
func (t *Tracker) PredictNextLengthClass() int { return t.eng.length.PredictNext() }

// Evaluate replays a profiled run through the architecture and returns
// the aggregate report. Each IntervalProfile's code profile rebuilds
// the accumulator at cfg.Dims, so one generated run can be evaluated
// under any configuration. One accumulator and one signature buffer are
// reused across the whole replay, so steady-state cost per interval is
// O(profile size) with O(1) allocations.
func Evaluate(run *trace.Run, cfg Config) Report {
	eng := newEngine(cfg)
	acc := signature.NewAccumulator(cfg.Dims)
	for i := range run.Intervals {
		eng.observe(replaySignature(eng, acc, &run.Intervals[i]), run.Intervals[i].CPI())
	}
	return eng.report(run.Name)
}

// EvaluateDetailed is Evaluate plus the per-interval results, for
// callers that need the classification stream (diagnostics, examples).
func EvaluateDetailed(run *trace.Run, cfg Config) (Report, []IntervalResult) {
	eng := newEngine(cfg)
	acc := signature.NewAccumulator(cfg.Dims)
	results := make([]IntervalResult, 0, len(run.Intervals))
	for i := range run.Intervals {
		results = append(results, eng.step(replaySignature(eng, acc, &run.Intervals[i]), run.Intervals[i].CPI()))
	}
	return eng.report(run.Name), results
}

// replaySignature rebuilds one interval's accumulator state in acc and
// compresses it into the engine's reusable buffer.
func replaySignature(eng *engine, acc *signature.Accumulator, iv *trace.IntervalProfile) signature.Vector {
	acc.Reset()
	for _, pw := range iv.Weights {
		acc.AddWeight(pw.PC, pw.Weight)
	}
	return eng.cfg.Compress.CompressInto(eng.sigBuf, acc)
}

// BucketTable caches a run's per-interval accumulator counters at one
// dimensionality. Hashing every PCWeight of every interval is the
// dominant cost of Evaluate, yet for a fixed (run, Dims) the bucketed
// counters are identical across every compression and classifier
// configuration — a sweep pays the hashing once via BuildBuckets and
// then replays each config with EvaluateBuckets, which only re-runs bit
// selection and classification.
type BucketTable struct {
	dims     int
	counters []uint64 // len(run.Intervals)*dims, stride dims
	totals   []uint64 // per-interval accumulated weight
}

// Dims returns the accumulator dimensionality the table was built at.
func (bt *BucketTable) Dims() int { return bt.dims }

// Interval returns interval i's bucketed counters and total weight.
func (bt *BucketTable) Interval(i int) ([]uint64, uint64) {
	return bt.counters[i*bt.dims : (i+1)*bt.dims], bt.totals[i]
}

// BuildBuckets hashes every interval profile of run into accumulator
// buckets at the given dimensionality.
func BuildBuckets(run *trace.Run, dims int) *BucketTable {
	bt := &BucketTable{
		dims:     dims,
		counters: make([]uint64, len(run.Intervals)*dims),
		totals:   make([]uint64, len(run.Intervals)),
	}
	acc := signature.NewAccumulator(dims)
	for i := range run.Intervals {
		acc.Reset()
		for _, pw := range run.Intervals[i].Weights {
			acc.AddWeight(pw.PC, pw.Weight)
		}
		bt.totals[i] = acc.CopyCounters(bt.counters[i*dims : (i+1)*dims])
	}
	return bt
}

// EvaluateBuckets is Evaluate replaying from a pre-bucketed counter
// table instead of re-hashing run's interval profiles. bt must have
// been built from run at cfg.Dims; results are bit-identical to
// Evaluate(run, cfg).
func EvaluateBuckets(run *trace.Run, bt *BucketTable, cfg Config) Report {
	if bt.dims != cfg.Dims {
		panic(fmt.Sprintf("core: bucket table dims %d != cfg.Dims %d", bt.dims, cfg.Dims))
	}
	if len(bt.totals) != len(run.Intervals) {
		panic(fmt.Sprintf("core: bucket table intervals %d != run intervals %d", len(bt.totals), len(run.Intervals)))
	}
	eng := newEngine(cfg)
	for i := range run.Intervals {
		counters, total := bt.Interval(i)
		sig := cfg.Compress.CompressCounters(eng.sigBuf, counters, total)
		eng.observe(sig, run.Intervals[i].CPI())
	}
	return eng.report(run.Name)
}
