package core

import (
	"fmt"

	"phasekit/internal/predictor"
	"phasekit/internal/signature"
	"phasekit/internal/state"
	"phasekit/internal/stats"
)

// The tracker state format: the 4-byte magic identifies a phasekit
// state payload, then a versioned tracker section carries the stream
// name, the full configuration (restores are refused across differing
// configurations, which could silently change behaviour), the engine's
// report and predictor state, and the in-progress interval (accumulator
// counters plus instruction/cycle residue). Every nested component
// writes its own versioned section through internal/state; see
// DESIGN.md §9 for the layout and compatibility policy.
const stateMagic = "PKST"

// Section tags for core components in a state payload.
const (
	TagTracker = byte(0xF1)
	TagConfig  = byte(0xF2)
	TagEngine  = byte(0xF3)
)

const (
	trackerVersion = 1
	configVersion  = 1
	// engineVersion 2 replaced v1's verbatim per-interval history with
	// O(phases) summaries. The reader refuses v1 rather than accepting
	// [1, current] as other sections do: the two layouts share no
	// fields past the interval counts, and v1 was never deployed.
	engineVersion = 2
)

// encodeConfig writes every field of cfg, including nested predictor
// configurations, so a payload fully names the architecture it was
// captured from.
func encodeConfig(enc *state.Encoder, cfg Config) {
	enc.Section(TagConfig, configVersion)
	enc.U64(cfg.IntervalInstrs)
	enc.Int(cfg.Dims)
	enc.Int(cfg.Compress.Bits)
	enc.Bool(cfg.Compress.Dynamic)
	enc.Int(cfg.Compress.StaticShift)
	enc.Int(cfg.Classifier.TableEntries)
	enc.F64(cfg.Classifier.SimilarityThreshold)
	enc.Int(cfg.Classifier.MinCountThreshold)
	enc.Bool(cfg.Classifier.BestMatch)
	enc.Bool(cfg.Classifier.Adaptive)
	enc.F64(cfg.Classifier.DeviationThreshold)
	enc.F64(cfg.Classifier.MinSimilarityThreshold)
	enc.Int(cfg.Classifier.FeedbackWarmup)
	enc.Bool(cfg.Classifier.ReplacementFIFO)
	enc.Bool(cfg.Predictor.LastValue.UseConfidence)
	enc.Int(cfg.Predictor.LastValue.Bits)
	enc.Int(cfg.Predictor.LastValue.Threshold)
	enc.Bool(cfg.Predictor.Change != nil)
	if cfg.Predictor.Change != nil {
		encodeChangeTableConfig(enc, *cfg.Predictor.Change)
	}
	enc.Bool(cfg.Predictor.AlwaysUpdate)
	encodeChangeTableConfig(enc, cfg.ChangeOutcome)
	enc.Int(cfg.Length.Entries)
	enc.Int(cfg.Length.Assoc)
	enc.U8(byte(cfg.Length.Kind))
	enc.Int(cfg.Length.Depth)
	enc.Ints(cfg.Length.Bounds)
	enc.Bool(cfg.Length.Hysteresis)
}

func encodeChangeTableConfig(enc *state.Encoder, c predictor.ChangeTableConfig) {
	enc.Int(c.Entries)
	enc.Int(c.Assoc)
	enc.U8(byte(c.Kind))
	enc.Int(c.Depth)
	enc.U8(byte(c.Track))
	enc.Int(c.TopN)
	enc.Bool(c.UseConfidence)
	enc.Int(c.ConfBits)
	enc.Int(c.ConfThreshold)
}

// decodeConfig reads a configuration section. The decoded value is only
// compared against the restoring tracker's configuration; it is never
// used to construct components, so no re-validation is needed here.
func decodeConfig(dec *state.Decoder) Config {
	var cfg Config
	dec.Section(TagConfig, configVersion)
	cfg.IntervalInstrs = dec.U64()
	cfg.Dims = dec.Int()
	cfg.Compress.Bits = dec.Int()
	cfg.Compress.Dynamic = dec.Bool()
	cfg.Compress.StaticShift = dec.Int()
	cfg.Classifier.TableEntries = dec.Int()
	cfg.Classifier.SimilarityThreshold = dec.F64()
	cfg.Classifier.MinCountThreshold = dec.Int()
	cfg.Classifier.BestMatch = dec.Bool()
	cfg.Classifier.Adaptive = dec.Bool()
	cfg.Classifier.DeviationThreshold = dec.F64()
	cfg.Classifier.MinSimilarityThreshold = dec.F64()
	cfg.Classifier.FeedbackWarmup = dec.Int()
	cfg.Classifier.ReplacementFIFO = dec.Bool()
	cfg.Predictor.LastValue.UseConfidence = dec.Bool()
	cfg.Predictor.LastValue.Bits = dec.Int()
	cfg.Predictor.LastValue.Threshold = dec.Int()
	if dec.Bool() {
		change := decodeChangeTableConfig(dec)
		cfg.Predictor.Change = &change
	}
	cfg.Predictor.AlwaysUpdate = dec.Bool()
	cfg.ChangeOutcome = decodeChangeTableConfig(dec)
	cfg.Length.Entries = dec.Int()
	cfg.Length.Assoc = dec.Int()
	cfg.Length.Kind = predictor.HistoryKind(dec.U8())
	cfg.Length.Depth = dec.Int()
	cfg.Length.Bounds = dec.AppendInts(nil)
	cfg.Length.Hysteresis = dec.Bool()
	return cfg
}

func decodeChangeTableConfig(dec *state.Decoder) predictor.ChangeTableConfig {
	var c predictor.ChangeTableConfig
	c.Entries = dec.Int()
	c.Assoc = dec.Int()
	c.Kind = predictor.HistoryKind(dec.U8())
	c.Depth = dec.Int()
	c.Track = predictor.TrackKind(dec.U8())
	c.TopN = dec.Int()
	c.UseConfidence = dec.Bool()
	c.ConfBits = dec.Int()
	c.ConfThreshold = dec.Int()
	return c
}

// snapshot encodes the engine's complete dynamic state: the interval
// index, the report accumulators, and every component. The report
// accumulators are the summaries Report reads — per-phase and
// whole-run CPI moments, the closed runs' length summaries and the open
// run — so a restored tracker's Report is bit-identical while the
// payload stays O(phases) however long the stream has run.
func (e *engine) snapshot(enc *state.Encoder) {
	enc.Section(TagEngine, engineVersion)
	enc.Int(e.index)
	enc.Int(e.collect.Intervals)
	enc.Int(e.collect.TransitionIntervals)
	enc.U32(uint32(len(e.phases)))
	blk := enc.Block(len(e.phases), stats.MomentsSize)
	for i := range e.phases {
		e.phases[i].PutMoments(blk.Rec(i, stats.MomentsSize))
	}
	e.whole.EncodeMoments(enc)
	e.collect.StableRuns.Encode(enc)
	e.collect.TransitionRuns.Encode(enc)
	enc.Int(e.runPhase)
	enc.Int(e.runLen)
	e.cls.Snapshot(enc)
	e.np.Snapshot(enc)
	e.chg.Snapshot(enc)
	e.length.Snapshot(enc)
}

// restore replaces the engine's state with a decoded snapshot. The
// engine must have been built from the configuration the snapshot was
// taken under; what it held before does not matter. Every component
// decodes into its own storage, so restoring into an engine that once
// held a stream of similar size allocates no tables. On error the
// engine may hold part of the payload: it can be restored into again
// (the next successful restore overwrites every field) but must not
// observe intervals in between.
func (e *engine) restore(dec *state.Decoder) error {
	if v := dec.Section(TagEngine, engineVersion); dec.Err() == nil && v != engineVersion {
		return fmt.Errorf("%w: engine section v%d predates the v%d summary layout", state.ErrCorrupt, v, engineVersion)
	}
	index := dec.Int()
	collect := Report{Intervals: dec.Int(), TransitionIntervals: dec.Int()}
	// The per-phase summaries are one block of moments records.
	n := dec.Count(stats.MomentsSize)
	blk, err := dec.Block(n, stats.MomentsSize)
	if err != nil {
		return err
	}
	phases := state.Reuse(e.phases, n)[:n]
	for i := range phases {
		if err := phases[i].ReadMoments(blk.Rec(i, stats.MomentsSize)); err != nil {
			return err
		}
	}
	var whole stats.Running
	for _, err := range []error{
		whole.DecodeMoments(dec),
		collect.StableRuns.Decode(dec),
		collect.TransitionRuns.Decode(dec),
	} {
		if err != nil {
			return err
		}
	}
	runPhase := dec.Int()
	runLen := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if runLen < 0 {
		return fmt.Errorf("%w: engine open run length %d", state.ErrCorrupt, runLen)
	}
	if err := e.cls.Restore(dec); err != nil {
		return err
	}
	if d := e.cls.SigDims(); d != 0 && d != e.cfg.Dims {
		return fmt.Errorf("%w: classifier dimensionality %d, configuration has %d", state.ErrCorrupt, d, e.cfg.Dims)
	}
	// The classifier mints phase IDs in order and each is emitted, and
	// so summarized, in the interval that mints it: the summaries cover
	// every minted ID. A payload whose next ID runs past them is
	// corrupt, and would make the next new phase grow the summaries to
	// that ID, 48 bytes per skipped ID.
	if ids := e.cls.PhaseIDs(); ids > max(len(phases)-1, 0) {
		return fmt.Errorf("%w: classifier has minted %d phase IDs, engine summarizes %d phases", state.ErrCorrupt, ids, len(phases))
	}
	if err := e.np.Restore(dec); err != nil {
		return err
	}
	if err := e.chg.Restore(dec); err != nil {
		return err
	}
	if err := e.length.Restore(dec); err != nil {
		return err
	}
	e.index = index
	e.collect = collect
	e.phases = phases
	e.whole = whole
	e.runPhase = runPhase
	e.runLen = runLen
	return nil
}

// AppendSnapshot appends the tracker's complete serialized state to dst
// and returns the extended slice. The snapshot captures everything a
// later Restore needs to continue bit-identically: configuration,
// stream name, classifier and predictor state, report accumulators, and
// the in-progress interval.
func (t *Tracker) AppendSnapshot(dst []byte) []byte {
	enc := state.AppendTo(append(dst, stateMagic...))
	enc.Section(TagTracker, trackerVersion)
	enc.String(t.name)
	enc.Raw(t.cfgEnc)
	t.eng.snapshot(enc)
	t.acc.Snapshot(enc)
	enc.U64(t.instrs)
	enc.U64(t.cycles)
	return enc.Bytes()
}

// Snapshot returns the tracker's complete serialized state. A Tracker
// restored from the snapshot produces bit-identical IntervalResults and
// Report for any subsequent input, as if tracking had never stopped.
func (t *Tracker) Snapshot() []byte { return t.AppendSnapshot(nil) }

// Restore replaces the tracker's state with a previously captured
// snapshot. The snapshot's configuration must equal the tracker's —
// restoring state into a different architecture would silently change
// behaviour, so it is refused. Corrupt or truncated payloads return an
// error and leave the tracker untouched: decoding builds a fresh engine
// and accumulator and swaps them in only after the whole payload has
// been verified. RestoreInto is the allocation-free variant for
// trackers whose state is disposable.
func (t *Tracker) Restore(data []byte) error {
	staged := *t
	staged.eng = newEngine(t.eng.cfg)
	staged.acc = signature.NewAccumulator(t.eng.cfg.Dims)
	if err := RestoreInto(&staged, data); err != nil {
		return err
	}
	*t = staged
	return nil
}

// RestoreInto restores a snapshot into t in place, decoding into the
// tables t already owns instead of building new ones: restoring into a
// tracker that once held a stream of similar size allocates only the
// stream name (the change tables build each way's prediction set when
// it is first probed). The snapshot is only read, never retained, so
// its buffer may be reused as soon as RestoreInto returns. Afterwards
// t is indistinguishable from a tracker built by NewTracker and
// restored with Tracker.Restore — same interval results, same Report,
// same snapshot bytes — whatever stream it held before.
//
// The price is atomicity. On error t may hold part of the payload: it
// is left reusable (a later successful RestoreInto or Restore
// overwrites every field) but must not track events until then. It
// suits trackers whose prior state is disposable, such as the fleet's
// pooled shells. It is a function rather than a Tracker method so the
// public Tracker API keeps one, atomic, Restore.
func RestoreInto(t *Tracker, data []byte) error {
	if len(data) < len(stateMagic) || string(data[:len(stateMagic)]) != stateMagic {
		return fmt.Errorf("%w: missing %q magic", state.ErrCorrupt, stateMagic)
	}
	dec := state.NewDecoder(data[len(stateMagic):])
	dec.Section(TagTracker, trackerVersion)
	name := dec.String()
	// Configurations are compared in their canonical encoding: equal
	// configurations encode to equal bytes. Only a payload whose
	// configuration differs is decoded, to tell corruption from a
	// well-formed but foreign architecture.
	if !dec.Consume(t.cfgEnc) {
		decodeConfig(dec)
		if err := dec.Err(); err != nil {
			return err
		}
		return fmt.Errorf("core: snapshot configuration does not match tracker configuration")
	}
	if err := t.eng.restore(dec); err != nil {
		return err
	}
	if err := t.acc.Restore(dec); err != nil {
		return err
	}
	instrs := dec.U64()
	cycles := dec.U64()
	if err := dec.Finish(); err != nil {
		return err
	}
	t.instrs = instrs
	t.cycles = cycles
	t.name = name
	t.res = IntervalResult{}
	return nil
}
