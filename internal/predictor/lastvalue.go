package predictor

import (
	"cmp"
	"fmt"
	"slices"
)

// LastValueConfig configures the last-value predictor's per-phase
// confidence counters (§5.1).
type LastValueConfig struct {
	// UseConfidence enables the confidence counters; without them
	// every last-value prediction is treated as confident.
	UseConfidence bool
	// Bits is the counter width (3 in the paper).
	Bits int
	// Threshold is the minimum counter value considered confident
	// (6 in the paper: "1 less than fully saturated").
	Threshold int
}

// DefaultLastValueConfig returns the §5 configuration: 3-bit counters
// with a confidence threshold of 6, incrementing and decrementing by 1.
func DefaultLastValueConfig() LastValueConfig {
	return LastValueConfig{UseConfidence: true, Bits: 3, Threshold: 6}
}

// Validate reports whether the configuration is usable.
func (c LastValueConfig) Validate() error {
	if !c.UseConfidence {
		return nil
	}
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("predictor: last-value ConfBits must be in [1,8], got %d", c.Bits)
	}
	if c.Threshold < 1 || c.Threshold > (1<<c.Bits)-1 {
		return fmt.Errorf("predictor: last-value threshold %d out of range for %d bits", c.Threshold, c.Bits)
	}
	return nil
}

// LastValue always predicts that the next interval's phase equals the
// current one, with a per-phase confidence counter: correct last-value
// predictions in a phase raise its counter, incorrect ones lower it, so
// stable phases advance to confident status and rapidly changing ones
// are demoted (§5.1).
type LastValue struct {
	cfg LastValueConfig
	// conf holds the counters of phases whose counter has moved since
	// the phase was last reset, in ascending phase order; any other
	// phase's counter is 0.
	conf []phaseConf
	max  int
	cur  int
	seen bool
}

// phaseConf is one phase's confidence counter.
type phaseConf struct {
	phase int
	conf  int
}

// find binary-searches conf for phase, returning its index or the
// index it would be inserted at.
func (l *LastValue) find(phase int) (int, bool) {
	return slices.BinarySearchFunc(l.conf, phase, func(c phaseConf, p int) int { return cmp.Compare(c.phase, p) })
}

// NewLastValue returns a predictor with no observed phase. It panics on
// an invalid configuration.
func NewLastValue(cfg LastValueConfig) *LastValue {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &LastValue{cfg: cfg, max: (1 << cfg.Bits) - 1}
}

// Predict returns the predicted next phase and whether the prediction
// is confident. Before any observation it predicts phase 0 without
// confidence.
func (l *LastValue) Predict() (phase int, confident bool) {
	if !l.seen {
		return 0, false
	}
	if !l.cfg.UseConfidence {
		return l.cur, true
	}
	return l.cur, l.Confidence(l.cur) >= l.cfg.Threshold
}

// Observe records the actual phase of the next interval, training the
// confidence counter of the phase that made the prediction. It returns
// whether the pre-update prediction was correct (false before any
// observation).
func (l *LastValue) Observe(actual int) bool {
	if !l.seen {
		l.seen = true
		l.cur = actual
		return false
	}
	correct := actual == l.cur
	if l.cfg.UseConfidence {
		// Write only when the counter moves: a floored counter must not
		// materialize an entry, because the snapshot encodes every
		// entry.
		i, ok := l.find(l.cur)
		c := 0
		if ok {
			c = l.conf[i].conf
		}
		if n := satUpdate(c, correct, l.max); n != c {
			if ok {
				l.conf[i].conf = n
			} else {
				l.conf = slices.Insert(l.conf, i, phaseConf{l.cur, n})
			}
		}
	}
	l.cur = actual
	return correct
}

// ResetPhase clears the confidence counter for a phase. The paper
// resets a phase's counter whenever a new entry is added to the phase
// ID signature table (§5.1); core.Tracker calls this on new-signature
// classifications, and (through NextPhasePredictor.RetirePhase) to
// drop the counter of a phase ID whose table entry was evicted and so
// can never be observed again.
func (l *LastValue) ResetPhase(phase int) {
	if i, ok := l.find(phase); ok {
		l.conf = slices.Delete(l.conf, i, i+1)
	}
}

// Confidence returns the current counter value for a phase.
func (l *LastValue) Confidence(phase int) int {
	if i, ok := l.find(phase); ok {
		return l.conf[i].conf
	}
	return 0
}
