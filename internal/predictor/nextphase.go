package predictor

import "fmt"

// Source identifies which component produced a next-phase prediction.
type Source int

const (
	// SourceLastValue means the last-value predictor supplied the
	// prediction (either as the default or because the change table
	// was unconfident or missed).
	SourceLastValue Source = iota
	// SourceTable means a confident phase change table hit supplied
	// the prediction.
	SourceTable
)

// Prediction is one next-interval phase prediction.
type Prediction struct {
	// Phase is the primary predicted phase ID.
	Phase int
	// Outcomes is the full predicted set (singleton for standard
	// predictors; up to 4 for Last4/TopN variants), best first. The
	// slice is shared with the predictor, which never writes it after
	// returning it (copy-on-write): callers must not write it either.
	Outcomes []int
	// Source identifies the producing component.
	Source Source
	// Confident is the producing component's confidence (table
	// confidence for SourceTable, last-value counter for
	// SourceLastValue).
	Confident bool
}

// Predicts reports whether the prediction counts as correct for the
// actual phase: membership in the predicted outcome set.
func (p Prediction) Predicts(actual int) bool {
	for _, o := range p.Outcomes {
		if o == actual {
			return true
		}
	}
	return false
}

// NextPhaseStats breaks next-phase predictions into the stacked-bar
// categories of Figure 7.
type NextPhaseStats struct {
	Intervals         int // predictions accounted (first interval excluded)
	TableCorrect      int // "correct RLE" (table-sourced, correct)
	TableIncorrect    int // "incorrect RLE"
	LVConfCorrect     int // "corr lv conf"
	LVUnconfCorrect   int // "correct lv unconf"
	LVUnconfIncorrect int // "incorrect lv unconf"
	LVConfIncorrect   int // "incorrect lv conf"
}

// Correct returns the total number of correct predictions.
func (s NextPhaseStats) Correct() int {
	return s.TableCorrect + s.LVConfCorrect + s.LVUnconfCorrect
}

// Accuracy returns the fraction of all predictions that were correct.
func (s NextPhaseStats) Accuracy() float64 {
	if s.Intervals == 0 {
		return 0
	}
	return float64(s.Correct()) / float64(s.Intervals)
}

// Coverage returns the fraction of intervals where a confident
// prediction was issued (table hits plus confident last-value).
func (s NextPhaseStats) Coverage() float64 {
	if s.Intervals == 0 {
		return 0
	}
	used := s.TableCorrect + s.TableIncorrect + s.LVConfCorrect + s.LVConfIncorrect
	return float64(used) / float64(s.Intervals)
}

// ConfidentAccuracy returns accuracy over confident predictions only.
func (s NextPhaseStats) ConfidentAccuracy() float64 {
	used := s.TableCorrect + s.TableIncorrect + s.LVConfCorrect + s.LVConfIncorrect
	if used == 0 {
		return 0
	}
	return float64(s.TableCorrect+s.LVConfCorrect) / float64(used)
}

// MissRate returns the fraction of all intervals carrying a confident
// but incorrect prediction — the cost the paper's §5.1 confidence
// scheme minimizes ("67% accuracy with a miss rate of just 7%").
func (s NextPhaseStats) MissRate() float64 {
	if s.Intervals == 0 {
		return 0
	}
	return float64(s.TableIncorrect+s.LVConfIncorrect) / float64(s.Intervals)
}

// ChangeStats breaks phase change predictions into the stacked-bar
// categories of Figure 8. A phase change is accounted at the interval
// where the phase ID differs from the previous interval's.
type ChangeStats struct {
	Changes         int
	ConfCorrect     int
	UnconfCorrect   int
	TagMiss         int
	UnconfIncorrect int
	ConfIncorrect   int
}

// Coverage returns the fraction of changes correctly predicted with
// confidence.
func (s ChangeStats) Coverage() float64 {
	if s.Changes == 0 {
		return 0
	}
	return float64(s.ConfCorrect) / float64(s.Changes)
}

// CorrectRate returns the fraction of changes whose outcome was in the
// predicted set regardless of confidence.
func (s ChangeStats) CorrectRate() float64 {
	if s.Changes == 0 {
		return 0
	}
	return float64(s.ConfCorrect+s.UnconfCorrect) / float64(s.Changes)
}

// MispredictRate returns the fraction of changes with a confident but
// wrong prediction.
func (s ChangeStats) MispredictRate() float64 {
	if s.Changes == 0 {
		return 0
	}
	return float64(s.ConfIncorrect) / float64(s.Changes)
}

// NextPhaseConfig assembles a complete next-phase predictor: a
// last-value component and an optional phase change table.
type NextPhaseConfig struct {
	// LastValue configures the default predictor.
	LastValue LastValueConfig
	// Change configures the phase change table; nil yields a pure
	// last-value predictor.
	Change *ChangeTableConfig
	// AlwaysUpdate disables the §5.2.3 update filtering as an
	// ablation: the table is trained on every interval (including
	// same-phase successors) and entries that falsely predict a change
	// are kept instead of removed.
	AlwaysUpdate bool
}

// Validate reports whether the configuration is usable.
func (c NextPhaseConfig) Validate() error {
	if err := c.LastValue.Validate(); err != nil {
		return err
	}
	if c.Change != nil {
		if err := c.Change.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// NextPhasePredictor composes last-value and phase-change prediction as
// in §5.2: the phase change table is consulted every interval, its
// prediction is used only when confident, and the last-value prediction
// is used otherwise. The same table drives the §6.1 phase change
// accounting.
type NextPhasePredictor struct {
	cfg   NextPhaseConfig
	lv    *LastValue
	table *ChangeTable
	hist  *History

	// lvOut is the last-value outcome set: the singleton holding the
	// phase lv predicts. It is replaced, never written, when that phase
	// changes, so Predict returns it without allocating between phase
	// changes and a set it returned earlier stays valid.
	lvOut []int

	next   NextPhaseStats
	change ChangeStats
}

// NewNextPhase returns a predictor for cfg. It panics on an invalid
// configuration.
func NewNextPhase(cfg NextPhaseConfig) *NextPhasePredictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := &NextPhasePredictor{cfg: cfg, lv: NewLastValue(cfg.LastValue), lvOut: []int{0}}
	if cfg.Change != nil {
		p.table = NewChangeTable(*cfg.Change)
		p.hist = NewHistory(cfg.Change.Kind, cfg.Change.Depth)
	} else {
		// Keep a history anyway so change accounting works for the
		// pure last-value predictor (it always tag-misses).
		p.hist = NewHistory(Markov, 1)
	}
	return p
}

// Predict returns the prediction for the next interval's phase from
// the current state, without modifying anything.
func (p *NextPhasePredictor) Predict() Prediction {
	lvPhase, lvConf := p.lv.Predict()
	if p.table != nil {
		if lk := p.table.Lookup(p.hist.Hash()); lk.Hit && lk.Confident {
			return Prediction{
				Phase:     lk.Outcomes[0],
				Outcomes:  lk.Outcomes,
				Source:    SourceTable,
				Confident: true,
			}
		}
	}
	return Prediction{
		Phase:     lvPhase,
		Outcomes:  p.lvOut,
		Source:    SourceLastValue,
		Confident: lvConf,
	}
}

// syncLastValue rebuilds lvOut if the last-value phase has changed.
// Call it after every change to lv's current phase.
func (p *NextPhasePredictor) syncLastValue() {
	if phase, _ := p.lv.Predict(); p.lvOut[0] != phase {
		p.lvOut = []int{phase}
	}
}

// Observe records the actual phase of the next interval: it accounts
// the pending prediction, trains the change table per the §5.2.3 update
// filtering rules, trains last-value confidence, and advances the
// history.
func (p *NextPhasePredictor) Observe(actual int) {
	cur, _, seen := p.hist.Current()

	if seen {
		p.accountCurrent(actual)
		hash := p.hist.Hash()
		if actual != cur {
			p.accountChange(hash, actual)
			if p.table != nil {
				p.table.RecordChange(hash, actual)
			}
		} else if p.table != nil {
			if p.cfg.AlwaysUpdate {
				// Ablation: naive training without update filtering
				// pollutes the table with last-value predictions.
				p.table.RecordChange(hash, actual)
			} else if lk := p.table.Lookup(hash); lk.Hit {
				// A tag hit here predicted a phase change that did
				// not happen; the last-value prediction would have
				// been correct, so the entry only pollutes the table
				// (§5.2.3).
				p.table.Remove(hash)
			}
		}
	}

	p.lv.Observe(actual)
	p.syncLastValue()
	p.hist.Observe(actual)
}

// accountCurrent files the pending prediction (what Predict would
// return right now) into the Figure 7 buckets without materializing a
// Prediction: the last-value outcome set is always the singleton
// {lvPhase}, so building a slice per interval just to test membership
// is avoidable on the per-interval hot path.
func (p *NextPhasePredictor) accountCurrent(actual int) {
	p.next.Intervals++
	if p.table != nil {
		if lk := p.table.Lookup(p.hist.Hash()); lk.Hit && lk.Confident {
			if lk.Predicts(actual) {
				p.next.TableCorrect++
			} else {
				p.next.TableIncorrect++
			}
			return
		}
	}
	lvPhase, lvConf := p.lv.Predict()
	switch correct := lvPhase == actual; {
	case correct && lvConf:
		p.next.LVConfCorrect++
	case correct:
		p.next.LVUnconfCorrect++
	case lvConf:
		p.next.LVConfIncorrect++
	default:
		p.next.LVUnconfIncorrect++
	}
}

// accountChange files a phase change into Figure 8 buckets using the
// table state before training.
func (p *NextPhasePredictor) accountChange(hash uint64, actual int) {
	p.change.Changes++
	if p.table == nil {
		p.change.TagMiss++
		return
	}
	lk := p.table.Lookup(hash)
	switch {
	case !lk.Hit:
		p.change.TagMiss++
	case lk.Predicts(actual) && lk.Confident:
		p.change.ConfCorrect++
	case lk.Predicts(actual):
		p.change.UnconfCorrect++
	case lk.Confident:
		p.change.ConfIncorrect++
	default:
		p.change.UnconfIncorrect++
	}
}

// NotifyNewSignature propagates a new-signature classification to the
// last-value confidence counters (§5.1: "Whenever a new entry is added
// to the phase ID signature table, we reset the associated confidence
// counter").
func (p *NextPhasePredictor) NotifyNewSignature(phase int) {
	p.lv.ResetPhase(phase)
}

// RetirePhase drops the last-value confidence counter of a phase ID
// that can never be observed again (its signature-table entry was
// evicted). Call it only after Observe has trained the interval that
// evicted the entry: that Observe may still read the counter.
func (p *NextPhasePredictor) RetirePhase(phase int) {
	p.lv.ResetPhase(phase)
}

// NextStats returns the Figure 7 accounting.
func (p *NextPhasePredictor) NextStats() NextPhaseStats { return p.next }

// ChangeStats returns the Figure 8 accounting.
func (p *NextPhasePredictor) ChangeStats() ChangeStats { return p.change }

// Table exposes the underlying change table (nil for pure last-value).
func (p *NextPhasePredictor) Table() *ChangeTable { return p.table }

// History exposes the predictor's phase history.
func (p *NextPhasePredictor) History() *History { return p.hist }

// Describe returns a short human-readable name matching the paper's
// figure labels.
func (c NextPhaseConfig) Describe() string {
	if c.Change == nil {
		if c.LastValue.UseConfidence {
			return "Last Value"
		}
		return "Last Value (no conf)"
	}
	name := fmt.Sprintf("%s-%d", c.Change.Kind, c.Change.Depth)
	switch c.Change.Track {
	case TrackLast4:
		name = "Last 4 " + name
	case TrackTopN:
		name = fmt.Sprintf("Top %d %s", c.Change.TopN, name)
	}
	if !c.Change.UseConfidence {
		name += " No Table Conf"
	}
	if c.Change.Entries != 32 {
		name = fmt.Sprintf("%d Entry %s", c.Change.Entries, name)
	}
	return name
}
