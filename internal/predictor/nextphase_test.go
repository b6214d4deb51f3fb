package predictor

import (
	"testing"

	"phasekit/internal/rng"
	"phasekit/internal/state"
)

func TestLastValueBasics(t *testing.T) {
	lv := NewLastValue(LastValueConfig{})
	if phase, conf := lv.Predict(); phase != 0 || conf {
		t.Errorf("pre-observation predict = %d,%v", phase, conf)
	}
	lv.Observe(3)
	if phase, conf := lv.Predict(); phase != 3 || !conf {
		t.Errorf("no-confidence predict = %d,%v", phase, conf)
	}
}

func TestLastValueConfidenceRampsUp(t *testing.T) {
	lv := NewLastValue(DefaultLastValueConfig())
	lv.Observe(1)
	// Threshold 6: the phase needs 6 correct predictions.
	for i := 0; i < 6; i++ {
		if _, conf := lv.Predict(); conf {
			t.Fatalf("confident after only %d correct predictions", i)
		}
		lv.Observe(1)
	}
	if _, conf := lv.Predict(); !conf {
		t.Error("not confident after 6 correct predictions")
	}
}

func TestLastValueConfidenceDropsOnChange(t *testing.T) {
	lv := NewLastValue(DefaultLastValueConfig())
	lv.Observe(1)
	for i := 0; i < 10; i++ {
		lv.Observe(1) // saturate at 7
	}
	lv.Observe(2) // incorrect: phase 1 counter drops to 6 (still confident)
	lv.Observe(1) // incorrect for phase 2
	if c := lv.Confidence(1); c != 6 {
		t.Errorf("phase 1 confidence = %d, want 6", c)
	}
	lv.Observe(2)
	lv.Observe(1)
	if c := lv.Confidence(1); c != 5 {
		t.Errorf("phase 1 confidence = %d, want 5 after second miss", c)
	}
}

func TestLastValueResetPhase(t *testing.T) {
	lv := NewLastValue(DefaultLastValueConfig())
	lv.Observe(1)
	for i := 0; i < 10; i++ {
		lv.Observe(1)
	}
	lv.ResetPhase(1)
	if c := lv.Confidence(1); c != 0 {
		t.Errorf("confidence after reset = %d", c)
	}
}

func TestLastValueObserveReturnsCorrectness(t *testing.T) {
	lv := NewLastValue(LastValueConfig{})
	if lv.Observe(1) {
		t.Error("first observation reported correct")
	}
	if !lv.Observe(1) {
		t.Error("repeat not reported correct")
	}
	if lv.Observe(2) {
		t.Error("change reported correct")
	}
}

func pureLastValue() NextPhaseConfig {
	return NextPhaseConfig{LastValue: DefaultLastValueConfig()}
}

func withTable(kind HistoryKind, depth int) NextPhaseConfig {
	cfg := DefaultChangeTableConfig(kind, depth)
	return NextPhaseConfig{LastValue: DefaultLastValueConfig(), Change: &cfg}
}

// feed drives a predictor with a phase sequence.
func feed(p *NextPhasePredictor, seq []int) {
	for _, phase := range seq {
		p.Observe(phase)
	}
}

// repeatPattern builds n copies of pattern.
func repeatPattern(pattern []int, n int) []int {
	out := make([]int, 0, len(pattern)*n)
	for i := 0; i < n; i++ {
		out = append(out, pattern...)
	}
	return out
}

func TestNextPhaseLastValueOnStablePhase(t *testing.T) {
	p := NewNextPhase(pureLastValue())
	feed(p, repeatPattern([]int{1}, 100))
	s := p.NextStats()
	if s.Intervals != 99 {
		t.Errorf("intervals = %d", s.Intervals)
	}
	if s.Accuracy() != 1.0 {
		t.Errorf("stable-phase accuracy = %v", s.Accuracy())
	}
	if s.TableCorrect != 0 {
		t.Error("pure last-value predictor used a table")
	}
}

// TestPredictLastValueAllocFree pins DESIGN.md §8.2: between phase
// changes an interval's Observe and Predict allocate nothing, even
// when the prediction falls back to last value (here the change table
// never hits on a stable phase).
func TestPredictLastValueAllocFree(t *testing.T) {
	for name, cfg := range map[string]NextPhaseConfig{"last value": pureLastValue(), "RLE-2 table": withTable(RLE, 2)} {
		p := NewNextPhase(cfg)
		feed(p, []int{1, 2, 1, 2, 3, 3})
		allocs := testing.AllocsPerRun(100, func() {
			p.Observe(3)
			if pr := p.Predict(); pr.Source != SourceLastValue || len(pr.Outcomes) != 1 || pr.Outcomes[0] != 3 {
				t.Fatalf("%s: prediction %+v, want last value {3}", name, pr)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: stable-phase interval allocates %v, want 0", name, allocs)
		}
	}
}

// TestPredictOutcomesNeverWritten: a last-value outcome set Predict
// returned keeps its phase after the predictor moves on, and after a
// Restore into the same predictor.
func TestPredictOutcomesNeverWritten(t *testing.T) {
	p := NewNextPhase(withTable(RLE, 2))
	if got := p.Predict().Outcomes; len(got) != 1 || got[0] != 0 {
		t.Fatalf("cold prediction = %v, want [0]", got)
	}
	feed(p, []int{4, 4})
	held := p.Predict().Outcomes
	enc := state.AppendTo(nil)
	p.Snapshot(enc)
	feed(p, []int{5})
	if got := p.Predict().Outcomes; len(got) != 1 || got[0] != 5 {
		t.Fatalf("after a change to 5: prediction %v, want [5]", got)
	}
	if err := p.Restore(state.NewDecoder(enc.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := p.Predict().Outcomes; len(got) != 1 || got[0] != 4 {
		t.Fatalf("after restoring phase 4: prediction %v, want [4]", got)
	}
	if held[0] != 4 {
		t.Fatalf("a held outcome set was rewritten to %v", held)
	}
}

func TestNextPhaseLastValueAccuracyAlternating(t *testing.T) {
	p := NewNextPhase(pureLastValue())
	feed(p, repeatPattern([]int{1, 2}, 100))
	s := p.NextStats()
	// Last value is always wrong on a strictly alternating stream.
	if s.Correct() != 0 {
		t.Errorf("alternating stream: %d correct last-value predictions", s.Correct())
	}
	// Confidence counters keep every phase unconfident, so all
	// mispredictions are unconfident: miss rate (confident wrong) ~ 0.
	if s.MissRate() > 0.05 {
		t.Errorf("miss rate = %v, want near 0", s.MissRate())
	}
}

func TestNextPhaseRLELearnsPeriodicPattern(t *testing.T) {
	// Pattern: 5 intervals of phase 1, then 3 of phase 2, repeated.
	// An RLE-1 predictor keys on (phase, run) so it learns that
	// (1, run=5) -> 2 and (2, run=3) -> 1, catching every change.
	pattern := []int{1, 1, 1, 1, 1, 2, 2, 2}
	p := NewNextPhase(withTable(RLE, 1))
	feed(p, repeatPattern(pattern, 50))
	cs := p.ChangeStats()
	if cs.Changes < 90 {
		t.Fatalf("changes = %d", cs.Changes)
	}
	if rate := cs.CorrectRate(); rate < 0.9 {
		t.Errorf("RLE-1 change correct rate = %v on perfectly periodic stream", rate)
	}
	ns := p.NextStats()
	if ns.Accuracy() < 0.95 {
		t.Errorf("next-phase accuracy = %v on periodic stream", ns.Accuracy())
	}
	// The table (not last value) must be supplying the change-point
	// predictions.
	if ns.TableCorrect == 0 {
		t.Error("table never produced a correct prediction")
	}
}

func TestNextPhaseMarkovCannotTimeChanges(t *testing.T) {
	// Markov-1 keys only on the phase ID, so once trained it predicts
	// a change on EVERY interval of a long run, which the removal rule
	// keeps purging. Accuracy must still be decent (last value), but
	// table usage stays low compared to RLE.
	pattern := []int{1, 1, 1, 1, 1, 2, 2, 2}
	pm := NewNextPhase(withTable(Markov, 1))
	pr := NewNextPhase(withTable(RLE, 1))
	feed(pm, repeatPattern(pattern, 50))
	feed(pr, repeatPattern(pattern, 50))
	if pm.ChangeStats().CorrectRate() > pr.ChangeStats().CorrectRate() {
		t.Errorf("Markov-1 (%v) outperformed RLE-1 (%v) on periodic stream",
			pm.ChangeStats().CorrectRate(), pr.ChangeStats().CorrectRate())
	}
}

func TestNextPhaseMarkov2DistinguishesContext(t *testing.T) {
	// Sequence: ... 1 2 1 3 1 2 1 3 ... — the phase after 1 depends on
	// the phase before 1, which Markov-2 captures and Markov-1 cannot.
	pattern := []int{1, 2, 1, 3}
	p1 := NewNextPhase(withTable(Markov, 1))
	p2 := NewNextPhase(withTable(Markov, 2))
	feed(p1, repeatPattern(pattern, 100))
	feed(p2, repeatPattern(pattern, 100))
	r1 := p1.ChangeStats().CorrectRate()
	r2 := p2.ChangeStats().CorrectRate()
	if r2 < 0.9 {
		t.Errorf("Markov-2 correct rate = %v on context-determined stream", r2)
	}
	if r1 >= r2 {
		t.Errorf("Markov-1 (%v) >= Markov-2 (%v) on context-determined stream", r1, r2)
	}
}

func TestNextPhaseChangeBucketsSumToChanges(t *testing.T) {
	x := rng.NewXoshiro256(31)
	p := NewNextPhase(withTable(RLE, 2))
	cur := 1
	for i := 0; i < 5000; i++ {
		if x.Float64() < 0.2 {
			cur = 1 + x.Intn(5)
		}
		p.Observe(cur)
	}
	cs := p.ChangeStats()
	sum := cs.ConfCorrect + cs.UnconfCorrect + cs.TagMiss + cs.UnconfIncorrect + cs.ConfIncorrect
	if sum != cs.Changes {
		t.Errorf("buckets sum %d != changes %d", sum, cs.Changes)
	}
	ns := p.NextStats()
	nsum := ns.TableCorrect + ns.TableIncorrect + ns.LVConfCorrect +
		ns.LVUnconfCorrect + ns.LVUnconfIncorrect + ns.LVConfIncorrect
	if nsum != ns.Intervals {
		t.Errorf("next buckets sum %d != intervals %d", nsum, ns.Intervals)
	}
}

func TestNextPhaseLast4CountsSetMembership(t *testing.T) {
	// Phase 1 alternates its successor between 2 and 3: a single-
	// outcome predictor is wrong half the time at changes out of 1; a
	// Last4 predictor holds both.
	pattern := []int{1, 1, 1, 2, 1, 1, 1, 3}
	mkSingle := withTable(RLE, 1)
	mkLast4 := withTable(RLE, 1)
	l4 := *mkLast4.Change
	l4.Track = TrackLast4
	mkLast4.Change = &l4
	ps := NewNextPhase(mkSingle)
	p4 := NewNextPhase(mkLast4)
	feed(ps, repeatPattern(pattern, 80))
	feed(p4, repeatPattern(pattern, 80))
	if p4.ChangeStats().CorrectRate() <= ps.ChangeStats().CorrectRate() {
		t.Errorf("Last4 (%v) not better than single (%v) on alternating successors",
			p4.ChangeStats().CorrectRate(), ps.ChangeStats().CorrectRate())
	}
	if p4.ChangeStats().CorrectRate() < 0.85 {
		t.Errorf("Last4 correct rate = %v", p4.ChangeStats().CorrectRate())
	}
}

func TestNextPhaseNotifyNewSignature(t *testing.T) {
	p := NewNextPhase(pureLastValue())
	feed(p, repeatPattern([]int{4}, 20))
	p.NotifyNewSignature(4)
	// After the reset the phase is unconfident again.
	if pred := p.Predict(); pred.Confident {
		t.Error("phase confident after signature reset")
	}
}

func TestNextPhaseDescribe(t *testing.T) {
	cases := map[string]NextPhaseConfig{
		"Last Value": pureLastValue(),
		"Markov-1":   withTable(Markov, 1),
		"RLE-2":      withTable(RLE, 2),
	}
	for want, cfg := range cases {
		if got := cfg.Describe(); got != want {
			t.Errorf("Describe = %q, want %q", got, want)
		}
	}
	l4 := withTable(RLE, 2)
	c := *l4.Change
	c.Track = TrackLast4
	l4.Change = &c
	if got := l4.Describe(); got != "Last 4 RLE-2" {
		t.Errorf("Describe = %q", got)
	}
	noConf := withTable(Markov, 2)
	c2 := *noConf.Change
	c2.UseConfidence = false
	noConf.Change = &c2
	if got := noConf.Describe(); got != "Markov-2 No Table Conf" {
		t.Errorf("Describe = %q", got)
	}
	big := withTable(RLE, 2)
	c3 := *big.Change
	c3.Entries = 128
	big.Change = &c3
	if got := big.Describe(); got != "128 Entry RLE-2" {
		t.Errorf("Describe = %q", got)
	}
}

func TestNextPhaseDeterministic(t *testing.T) {
	run := func() (NextPhaseStats, ChangeStats) {
		p := NewNextPhase(withTable(RLE, 2))
		x := rng.NewXoshiro256(9)
		cur := 1
		for i := 0; i < 3000; i++ {
			if x.Float64() < 0.15 {
				cur = 1 + x.Intn(6)
			}
			p.Observe(cur)
		}
		return p.NextStats(), p.ChangeStats()
	}
	n1, c1 := run()
	n2, c2 := run()
	if n1 != n2 || c1 != c2 {
		t.Error("predictor not deterministic")
	}
}

func TestPerfectMarkovUpperBound(t *testing.T) {
	// On a repeating pattern, only the first occurrence of each
	// transition is missed.
	pattern := []int{1, 2, 3}
	p := NewPerfectMarkov(1)
	for _, phase := range repeatPattern(pattern, 50) {
		p.Observe(phase)
	}
	cs := p.ChangeStats()
	if cs.TagMiss+cs.ConfIncorrect > 3 {
		t.Errorf("perfect Markov missed %d transitions of a 3-cycle", cs.TagMiss+cs.ConfIncorrect)
	}
	if cs.ConfCorrect < cs.Changes-3 {
		t.Errorf("correct = %d of %d", cs.ConfCorrect, cs.Changes)
	}
}

func TestPerfectMarkovOrder2Context(t *testing.T) {
	// With pattern 1 2 1 3, order-1 cannot disambiguate the successor
	// of 1 (counts errors forever); order-2 only cold-starts.
	p1 := NewPerfectMarkov(1)
	p2 := NewPerfectMarkov(2)
	for _, phase := range repeatPattern([]int{1, 2, 1, 3}, 100) {
		p1.Observe(phase)
		p2.Observe(phase)
	}
	c1, c2 := p1.ChangeStats(), p2.ChangeStats()
	// Order-1 "perfect" counts any previously seen outcome as correct,
	// so both 2 and 3 are eventually "correct" after 1 — it reaches
	// high coverage despite ambiguity.
	if c1.ConfCorrect == 0 {
		t.Error("order-1 never correct")
	}
	if c2.ConfCorrect <= c1.ConfCorrect-10 {
		t.Errorf("order-2 (%d) worse than order-1 (%d)", c2.ConfCorrect, c1.ConfCorrect)
	}
	if p2.Transitions() == 0 {
		t.Error("no transitions recorded")
	}
}

func TestPerfectMarkovColdStartOnly(t *testing.T) {
	// Every change in a random stream over a small alphabet is
	// eventually predictable by the perfect model.
	p := NewPerfectMarkov(1)
	x := rng.NewXoshiro256(2)
	cur := 0
	var phases []int
	for i := 0; i < 2000; i++ {
		if x.Float64() < 0.3 {
			cur = x.Intn(4)
		}
		phases = append(phases, cur)
	}
	for _, ph := range phases {
		p.Observe(ph)
	}
	cs := p.ChangeStats()
	// With 4 phases there are at most 4*3=12 distinct transitions;
	// everything after cold start is correct.
	if cs.TagMiss > 4 || cs.ConfIncorrect > 12 {
		t.Errorf("cold-start misses too high: %+v", cs)
	}
}

func BenchmarkNextPhaseObserve(b *testing.B) {
	p := NewNextPhase(withTable(RLE, 2))
	x := rng.NewXoshiro256(4)
	cur := 1
	for i := 0; i < b.N; i++ {
		if x.Float64() < 0.2 {
			cur = 1 + x.Intn(8)
		}
		p.Observe(cur)
	}
}

func TestAlwaysUpdateAblationPollutesTable(t *testing.T) {
	// §5.2.3's update filtering exists to keep mid-run last-value
	// predictions out of the table. Under capacity pressure, naive
	// every-interval training inserts one entry per (phase, run-so-far)
	// pair and evicts the entries that actually mark change points;
	// filtered training stores only the two change entries.
	mk := func(always bool) *NextPhasePredictor {
		cfg := withTable(RLE, 1)
		c := *cfg.Change
		c.Entries = 8
		cfg.Change = &c
		cfg.AlwaysUpdate = always
		return NewNextPhase(cfg)
	}
	pattern := append(repeatPattern([]int{1}, 12), repeatPattern([]int{2}, 9)...)
	stream := repeatPattern(pattern, 40)
	filtered := mk(false)
	naive := mk(true)
	feed(filtered, stream)
	feed(naive, stream)
	if filtered.ChangeStats().CorrectRate() < 0.9 {
		t.Errorf("filtered correct rate = %v on periodic stream", filtered.ChangeStats().CorrectRate())
	}
	if naive.ChangeStats().CorrectRate() >= filtered.ChangeStats().CorrectRate() {
		t.Errorf("naive updates (%v) not worse than filtered (%v)",
			naive.ChangeStats().CorrectRate(), filtered.ChangeStats().CorrectRate())
	}
}
