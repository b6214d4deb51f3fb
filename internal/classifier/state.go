package classifier

import (
	"fmt"

	"phasekit/internal/signature"
	"phasekit/internal/state"
)

// TagClassifier identifies a Classifier section in a state payload.
const TagClassifier = byte(0xC1)

const classifierVersion = 1

// entrySize is the encoded size of one signature-table entry's fixed
// fields: eight 8-byte values.
const entrySize = 64

// Snapshot encodes the classifier's complete dynamic state: the
// signature table (per-entry phase IDs, Min Counters, adaptive
// thresholds, LRU/FIFO clocks, CPI feedback state, and the signature
// slab), the replacement clock, the phase ID allocator, and cumulative
// statistics. Derived caches — per-row signature sums and quarter-
// segment sums — are reconstructed on Restore rather than serialized.
func (c *Classifier) Snapshot(enc *state.Encoder) {
	enc.Section(TagClassifier, classifierVersion)
	enc.Int(c.dims)
	enc.U64(c.clock)
	enc.Int(c.nextID)
	enc.Int(c.stats.Classifications)
	enc.Int(c.stats.TransitionIntervals)
	enc.Int(c.stats.NewSignatures)
	enc.Int(c.stats.Evictions)
	enc.Int(c.stats.Promotions)
	enc.Int(c.stats.Splits)
	enc.Int(c.stats.PhaseIDsCreated)
	enc.Int(c.stats.MatchedSameThreshold)
	enc.U32(uint32(len(c.entries)))
	blk := enc.Block(len(c.entries), entrySize)
	for i := range c.entries {
		e, rec := &c.entries[i], blk.Rec(i, entrySize)
		rec.PutInt(0, e.phaseID)
		rec.PutInt(8, e.minCount)
		rec.PutF64(16, e.threshold)
		rec.PutU64(24, e.lastUse)
		rec.PutU64(32, e.insertedAt)
		rec.PutInt(40, e.cpiCount)
		rec.PutF64(48, e.cpiMean)
		rec.PutInt(56, e.devStreak)
	}
	enc.U16s(c.sigs)
}

// Restore replaces the classifier's state with a decoded snapshot. The
// receiver keeps its configuration; the snapshot must be structurally
// consistent with it (table capacity, signature dimensionality). A
// restored classifier classifies bit-identically to the snapshotted
// one, whatever the receiver held before.
//
// Decoding fills the receiver's own table storage (see state.Reuse), so
// restoring into a classifier that once held a table of similar size
// allocates nothing. On error the receiver may hold part of the
// payload: it stays safe to restore into again, and the next successful
// Restore overwrites every field, but it must not classify in between.
// Callers that need an untouched receiver on error restore into a fresh
// classifier and swap it in on success.
func (c *Classifier) Restore(dec *state.Decoder) error {
	dec.Section(TagClassifier, classifierVersion)
	dims := dec.Int()
	clock := dec.U64()
	nextID := dec.Int()
	var stats Stats
	stats.Classifications = dec.Int()
	stats.TransitionIntervals = dec.Int()
	stats.NewSignatures = dec.Int()
	stats.Evictions = dec.Int()
	stats.Promotions = dec.Int()
	stats.Splits = dec.Int()
	stats.PhaseIDsCreated = dec.Int()
	stats.MatchedSameThreshold = dec.Int()
	n := int(dec.U32())
	if dec.Err() != nil {
		return dec.Err()
	}
	// 64 bytes of fixed entry fields must remain per entry, so a corrupt
	// count cannot drive an oversized allocation.
	if n < 0 || n > dec.Len()/entrySize {
		return fmt.Errorf("%w: classifier entry count %d", state.ErrCorrupt, n)
	}
	if dims < 0 || dims > 1<<20 {
		return fmt.Errorf("%w: classifier dims %d", state.ErrCorrupt, dims)
	}
	if n > 0 && dims == 0 {
		return fmt.Errorf("%w: classifier has %d entries but no dimensionality", state.ErrCorrupt, n)
	}
	if c.cfg.TableEntries > 0 && n > c.cfg.TableEntries {
		return fmt.Errorf("%w: snapshot has %d entries, table capacity is %d", state.ErrCorrupt, n, c.cfg.TableEntries)
	}
	if nextID < TransitionPhase+1 {
		return fmt.Errorf("%w: classifier next phase ID %d", state.ErrCorrupt, nextID)
	}
	blk, err := dec.Block(n, entrySize)
	if err != nil {
		return err
	}
	entries := state.Reuse(c.entries, n)[:n]
	for i := range entries {
		rec := blk.Rec(i, entrySize)
		entries[i] = entry{
			phaseID:    rec.Int(0),
			minCount:   rec.Int(8),
			threshold:  rec.F64(16),
			lastUse:    rec.U64(24),
			insertedAt: rec.U64(32),
			cpiCount:   rec.Int(40),
			cpiMean:    rec.F64(48),
			devStreak:  rec.Int(56),
		}
		if id := entries[i].phaseID; id < TransitionPhase || id >= nextID {
			return fmt.Errorf("%w: entry %d phase ID %d outside [%d,%d)", state.ErrCorrupt, i, id, TransitionPhase, nextID)
		}
	}
	// n*dims cannot overflow: n is bounded by the payload, dims by 2^20.
	// The slab must still fit in what remains (2 bytes per value) before
	// it sizes an allocation: dims comes from the wire too.
	if n*dims > dec.Len()/2 {
		return fmt.Errorf("%w: signature slab of %d entries x %d dims exceeds %d remaining bytes", state.ErrCorrupt, n, dims, dec.Len())
	}
	sigs := dec.AppendU16s(state.Reuse(c.sigs, n*dims))
	if err := dec.Err(); err != nil {
		return err
	}
	if len(sigs) != n*dims {
		return fmt.Errorf("%w: signature slab has %d values, want %d entries x %d dims", state.ErrCorrupt, len(sigs), n, dims)
	}

	// Rebuild the derived per-row caches (signature sum and quarter-
	// segment sums) from the slab: memoized values are never trusted
	// from the wire.
	segs := state.Reuse(c.segs, n*4)
	for i := range entries {
		row := signature.Vector(sigs[i*dims : (i+1)*dims])
		s4, total := row.SegmentSums()
		segs = append(segs, s4[0], s4[1], s4[2], s4[3])
		entries[i].sigSum = total
	}

	c.dims = dims
	c.clock = clock
	c.nextID = nextID
	c.stats = stats
	c.entries = entries
	c.sigs = sigs
	c.segs = segs
	c.lbBuf = nil
	// The sum index is a derived cache: never trust anything from the
	// wire. Clearing it parks every bucket for reuse and defers the
	// rebuild to the first Classify, so Restore itself touches no
	// bucket no matter how large the table is. The MRU seed is
	// invalidated outright (a wrong seed could only cost time, but a
	// restored classifier should not depend on pre-snapshot scan state
	// at all).
	c.idx.clear()
	c.idxDirty = true
	c.istats = IndexStats{}
	c.mru = -1
	c.maxThr = c.cfg.SimilarityThreshold
	for i := range entries {
		if entries[i].threshold > c.maxThr {
			c.maxThr = entries[i].threshold
		}
	}
	return nil
}
