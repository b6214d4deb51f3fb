package predictor

import (
	"fmt"

	"phasekit/internal/state"
)

// Section tags for predictor components in a state payload.
const (
	TagLastValue       = byte(0xB1)
	TagHistory         = byte(0xB2)
	TagChangeTable     = byte(0xB3)
	TagNextPhase       = byte(0xB4)
	TagChangePredictor = byte(0xB5)
	TagLength          = byte(0xB6)
)

const predictorVersion = 1

// Encoded record sizes of the predictors' tables.
const (
	// pairSize is a last-value (phase, counter) pair or a history
	// (phase, run) pair.
	pairSize = 16
	// wayHeaderSize is a valid change-table way's tag, LRU age and
	// confidence, which follow its valid byte.
	wayHeaderSize = 8 + 1 + 8
	// outcomeSize is a Top-N (phase, count) record.
	outcomeSize = 8 + 4
	// lengthWaySize is a valid length-table way's tag, LRU age,
	// committed class and last class.
	lengthWaySize = 8 + 1 + 8 + 8
)

// Snapshot encodes the last-value predictor's state: the current phase
// and every per-phase confidence counter, as (phase, counter) pairs in
// the ascending phase order they are kept in, so the same state always
// produces the same bytes.
func (l *LastValue) Snapshot(enc *state.Encoder) {
	enc.Section(TagLastValue, predictorVersion)
	enc.Bool(l.seen)
	enc.Int(l.cur)
	enc.U32(uint32(len(l.conf)))
	blk := enc.Block(len(l.conf), pairSize)
	for i, c := range l.conf {
		rec := blk.Rec(i, pairSize)
		rec.PutInt(0, c.phase)
		rec.PutInt(8, c.conf)
	}
}

// Restore replaces the last-value predictor's state with a decoded
// snapshot. The receiver keeps its configuration. Phases must be
// strictly ascending: the canonical order makes decode(encode(x))
// re-encode to the exact source bytes, and duplicate phases cannot
// silently collapse.
//
// Like every predictor Restore, it decodes into the receiver's own
// storage (see state.Reuse). On error the receiver may hold part of the
// payload; the next successful Restore overwrites every field.
func (l *LastValue) Restore(dec *state.Decoder) error {
	dec.Section(TagLastValue, predictorVersion)
	seen := dec.Bool()
	cur := dec.Int()
	n := dec.Count(pairSize)
	blk, err := dec.Block(n, pairSize)
	if err != nil {
		return err
	}
	conf := state.Reuse(l.conf, n)[:n]
	for i := range conf {
		rec := blk.Rec(i, pairSize)
		conf[i] = phaseConf{phase: rec.Int(0), conf: rec.Int(8)}
		if i > 0 && conf[i].phase <= conf[i-1].phase {
			return fmt.Errorf("%w: last-value confidence phases not strictly ascending", state.ErrCorrupt)
		}
	}
	l.seen = seen
	l.cur = cur
	l.conf = conf
	return nil
}

// Snapshot encodes the history's kind, depth, and run-length-encoded
// pairs. The cached index hash is derived state and is not serialized.
func (h *History) Snapshot(enc *state.Encoder) {
	enc.Section(TagHistory, predictorVersion)
	enc.U8(byte(h.kind))
	enc.Int(h.depth)
	enc.Bool(h.valid)
	enc.U32(uint32(len(h.pairs)))
	blk := enc.Block(len(h.pairs), pairSize)
	for i, p := range h.pairs {
		rec := blk.Rec(i, pairSize)
		rec.PutInt(0, p.phase)
		rec.PutInt(8, p.run)
	}
}

// Restore replaces the history's pairs with a decoded snapshot. The
// snapshot's kind and depth must match the receiver's.
func (h *History) Restore(dec *state.Decoder) error {
	dec.Section(TagHistory, predictorVersion)
	kind := HistoryKind(dec.U8())
	depth := dec.Int()
	valid := dec.Bool()
	n := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	if kind != h.kind || depth != h.depth {
		return fmt.Errorf("%w: history is %v-%d, receiver is %v-%d", state.ErrCorrupt, kind, depth, h.kind, h.depth)
	}
	if n < 0 || n > depth {
		return fmt.Errorf("%w: history pair count %d (depth %d)", state.ErrCorrupt, n, depth)
	}
	if valid != (n > 0) {
		return fmt.Errorf("%w: history validity %v with %d pairs", state.ErrCorrupt, valid, n)
	}
	blk, err := dec.Block(n, pairSize)
	if err != nil {
		return err
	}
	pairs := h.pairs[:0]
	for i := range n {
		rec := blk.Rec(i, pairSize)
		pairs = append(pairs, runPair{phase: rec.Int(0), run: rec.Int(8)})
	}
	h.pairs = pairs
	h.valid = valid
	h.hash, h.hashValid = 0, false
	return nil
}

// Snapshot encodes every valid way of the phase change table: tag, LRU
// age, confidence, and the tracked outcome state for the table's
// TrackKind. Cached prediction sets are derived state, rebuilt after a
// Restore the first time each way is read. TrackTopN outcome counts are
// written in ascending phase order for deterministic encoding.
func (t *ChangeTable) Snapshot(enc *state.Encoder) {
	enc.Section(TagChangeTable, predictorVersion)
	enc.U32(uint32(len(t.ways)))
	for i := range t.ways {
		e := &t.ways[i]
		enc.Bool(e.valid)
		if !e.valid {
			continue
		}
		// A valid way's record is its header (tag, LRU age,
		// confidence), then the tracked outcome state: the single
		// outcome, or the Top-N outcome count with the outcomes in a
		// block after it. Last-4 lists follow as a counted list.
		switch t.cfg.Track {
		case TrackSingle:
			rec := enc.Rec(wayHeaderSize + 8)
			e.putHeader(rec)
			rec.PutInt(wayHeaderSize, e.single)
		case TrackLast4:
			e.putHeader(enc.Rec(wayHeaderSize))
			enc.Ints(e.last4)
		case TrackTopN:
			rec := enc.Rec(wayHeaderSize + 4)
			e.putHeader(rec)
			rec.PutU32(wayHeaderSize, uint32(len(e.counts)))
			blk := enc.Block(len(e.counts), outcomeSize)
			for j, c := range e.counts {
				out := blk.Rec(j, outcomeSize)
				out.PutInt(0, c.phase)
				out.PutU32(8, c.count)
			}
		}
	}
}

// putHeader writes a valid way's header: tag, LRU age and confidence.
func (e *tableEntry) putHeader(rec state.Rec) {
	rec.PutU64(0, e.tag)
	rec.PutU8(8, e.lru)
	rec.PutInt(9, e.conf)
}

// readHeader replaces e with a valid way holding only the header
// putHeader wrote.
func (e *tableEntry) readHeader(rec state.Rec) {
	*e = tableEntry{valid: true, tag: rec.U64(0), lru: rec.U8(8), conf: rec.Int(9)}
}

// Restore replaces the table's ways with a decoded snapshot. The
// snapshot's geometry must match the receiver's configuration. Ways are
// overwritten in place and refill their own tracked outcomes (Last-4
// lists, Top-N counts), so a Restore into a warm table allocates
// nothing. Cached prediction sets are not rebuilt here: each valid way
// builds its set the first time outcomes reads it, so a way that is
// never probed before the next eviction costs no ranking at all. A set
// a previous lookup returned is dropped, never written (they are
// copy-on-write).
func (t *ChangeTable) Restore(dec *state.Decoder) error {
	dec.Section(TagChangeTable, predictorVersion)
	n := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	if n != len(t.ways) {
		return fmt.Errorf("%w: change table has %d ways, receiver has %d", state.ErrCorrupt, n, len(t.ways))
	}
	for i := range t.ways {
		e := &t.ways[i]
		valid := dec.Bool()
		if dec.Err() != nil {
			return dec.Err()
		}
		if !valid {
			// Keep the way's outcome storage for the next stream
			// restored into this table.
			*e = tableEntry{last4: e.last4[:0], counts: e.counts[:0]}
			continue
		}
		last4, counts := e.last4, e.counts
		switch t.cfg.Track {
		case TrackSingle:
			rec, err := dec.Rec(wayHeaderSize + 8)
			if err != nil {
				return err
			}
			e.readHeader(rec)
			e.single = rec.Int(wayHeaderSize)
		case TrackLast4:
			rec, err := dec.Rec(wayHeaderSize)
			if err != nil {
				return err
			}
			e.readHeader(rec)
			e.last4 = dec.AppendInts(last4[:0])
			if dec.Err() == nil && len(e.last4) > 4 {
				return fmt.Errorf("%w: change table way %d tracks %d outcomes, max 4", state.ErrCorrupt, i, len(e.last4))
			}
		case TrackTopN:
			rec, err := dec.Rec(wayHeaderSize + 4)
			if err != nil {
				return err
			}
			e.readHeader(rec)
			k := int(rec.U32(wayHeaderSize))
			blk, err := dec.Block(k, outcomeSize)
			if err != nil {
				return err
			}
			counts = state.Reuse(counts, k)[:k]
			for j := range counts {
				out := blk.Rec(j, outcomeSize)
				counts[j] = outcomeCount{phase: out.Int(0), count: out.U32(8)}
				if j > 0 && counts[j].phase <= counts[j-1].phase {
					return fmt.Errorf("%w: change table way %d outcomes not strictly ascending", state.ErrCorrupt, i)
				}
			}
			e.counts = counts
		}
	}
	return dec.Err()
}

// Snapshot encodes the composed next-phase predictor: the last-value
// component, the phase history, the optional change table, and the
// Figure 7/8 accounting.
func (p *NextPhasePredictor) Snapshot(enc *state.Encoder) {
	enc.Section(TagNextPhase, predictorVersion)
	p.lv.Snapshot(enc)
	p.hist.Snapshot(enc)
	enc.Bool(p.table != nil)
	if p.table != nil {
		p.table.Snapshot(enc)
	}
	encodeNextPhaseStats(enc, &p.next)
	encodeChangeStats(enc, &p.change)
}

// Restore replaces the predictor's state with a decoded snapshot. The
// receiver keeps its configuration; the snapshot must have been taken
// from a predictor with the same shape (change table present or not).
func (p *NextPhasePredictor) Restore(dec *state.Decoder) error {
	dec.Section(TagNextPhase, predictorVersion)
	if err := p.lv.Restore(dec); err != nil {
		return err
	}
	p.syncLastValue()
	if err := p.hist.Restore(dec); err != nil {
		return err
	}
	hasTable := dec.Bool()
	if dec.Err() != nil {
		return dec.Err()
	}
	if hasTable != (p.table != nil) {
		return fmt.Errorf("%w: snapshot change table presence %v, receiver %v", state.ErrCorrupt, hasTable, p.table != nil)
	}
	if hasTable {
		if err := p.table.Restore(dec); err != nil {
			return err
		}
	}
	decodeNextPhaseStats(dec, &p.next)
	decodeChangeStats(dec, &p.change)
	return dec.Err()
}

func encodeNextPhaseStats(enc *state.Encoder, s *NextPhaseStats) {
	enc.Int(s.Intervals)
	enc.Int(s.TableCorrect)
	enc.Int(s.TableIncorrect)
	enc.Int(s.LVConfCorrect)
	enc.Int(s.LVUnconfCorrect)
	enc.Int(s.LVUnconfIncorrect)
	enc.Int(s.LVConfIncorrect)
}

func decodeNextPhaseStats(dec *state.Decoder, s *NextPhaseStats) {
	s.Intervals = dec.Int()
	s.TableCorrect = dec.Int()
	s.TableIncorrect = dec.Int()
	s.LVConfCorrect = dec.Int()
	s.LVUnconfCorrect = dec.Int()
	s.LVUnconfIncorrect = dec.Int()
	s.LVConfIncorrect = dec.Int()
}

func encodeChangeStats(enc *state.Encoder, s *ChangeStats) {
	enc.Int(s.Changes)
	enc.Int(s.ConfCorrect)
	enc.Int(s.UnconfCorrect)
	enc.Int(s.TagMiss)
	enc.Int(s.UnconfIncorrect)
	enc.Int(s.ConfIncorrect)
}

func decodeChangeStats(dec *state.Decoder, s *ChangeStats) {
	s.Changes = dec.Int()
	s.ConfCorrect = dec.Int()
	s.UnconfCorrect = dec.Int()
	s.TagMiss = dec.Int()
	s.UnconfIncorrect = dec.Int()
	s.ConfIncorrect = dec.Int()
}

// Snapshot encodes the dedicated §6.1 change-outcome predictor: its
// table, history, and accounting.
func (p *ChangePredictor) Snapshot(enc *state.Encoder) {
	enc.Section(TagChangePredictor, predictorVersion)
	p.table.Snapshot(enc)
	p.hist.Snapshot(enc)
	encodeChangeStats(enc, &p.stats)
}

// Restore replaces the predictor's state with a decoded snapshot.
func (p *ChangePredictor) Restore(dec *state.Decoder) error {
	dec.Section(TagChangePredictor, predictorVersion)
	if err := p.table.Restore(dec); err != nil {
		return err
	}
	if err := p.hist.Restore(dec); err != nil {
		return err
	}
	decodeChangeStats(dec, &p.stats)
	return dec.Err()
}

// Snapshot encodes the phase length predictor: its history, prediction
// table (committed class and hysteresis state per way), the unresolved
// pending prediction, and the Figure 9 accounting.
func (p *LengthPredictor) Snapshot(enc *state.Encoder) {
	enc.Section(TagLength, predictorVersion)
	p.hist.Snapshot(enc)
	enc.U32(uint32(len(p.ways)))
	for i := range p.ways {
		e := &p.ways[i]
		enc.Bool(e.valid)
		if !e.valid {
			continue
		}
		rec := enc.Rec(lengthWaySize)
		rec.PutU64(0, e.tag)
		rec.PutU8(8, e.lru)
		rec.PutInt(9, e.class)
		rec.PutInt(17, e.last)
	}
	enc.Bool(p.pending.active)
	enc.U64(p.pending.hash)
	enc.Int(p.pending.predicted)
	enc.Int(p.stats.Predictions)
	enc.Int(p.stats.Mispredictions)
	enc.Ints(p.stats.ClassCounts)
}

// Restore replaces the predictor's state with a decoded snapshot. The
// receiver keeps its configuration; the snapshot's table geometry and
// class count must match it.
func (p *LengthPredictor) Restore(dec *state.Decoder) error {
	dec.Section(TagLength, predictorVersion)
	if err := p.hist.Restore(dec); err != nil {
		return err
	}
	n := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	if n != len(p.ways) {
		return fmt.Errorf("%w: length table has %d ways, receiver has %d", state.ErrCorrupt, n, len(p.ways))
	}
	for i := range p.ways {
		e := &p.ways[i]
		if !dec.Bool() {
			*e = lengthEntry{}
			if err := dec.Err(); err != nil {
				return err
			}
			continue
		}
		rec, err := dec.Rec(lengthWaySize)
		if err != nil {
			return err
		}
		*e = lengthEntry{valid: true, tag: rec.U64(0), lru: rec.U8(8), class: rec.Int(9), last: rec.Int(17)}
	}
	active := dec.Bool()
	hash := dec.U64()
	predicted := dec.Int()
	stats := LengthStats{
		Predictions:    dec.Int(),
		Mispredictions: dec.Int(),
		ClassCounts:    dec.AppendInts(p.stats.ClassCounts[:0]),
	}
	if err := dec.Err(); err != nil {
		return err
	}
	if len(stats.ClassCounts) != p.histo.Buckets() {
		return fmt.Errorf("%w: length stats track %d classes, receiver has %d", state.ErrCorrupt, len(stats.ClassCounts), p.histo.Buckets())
	}
	p.pending.active = active
	p.pending.hash = hash
	p.pending.predicted = predicted
	p.stats = stats
	return nil
}
