package classifier

import (
	"math/bits"
	"sort"
)

// sumIndex buckets signature-table rows by their cached signature sum
// so Classify can visit candidate rows nearest-sum-first and stop as
// soon as no remaining bucket can hold a row that beats the match in
// hand. The triangle inequality |sum(a)-sum(b)| <= L1(a,b) makes the
// bucket walk a pure pruning device: a bucket is skipped only when
// every row it could hold is provably outside the acceptance bound, so
// the scan outcome is bit-identical to the linear scan over all rows.
//
// Keys are quarter-octave log buckets: sums below 8 each get their own
// bucket (key == sum), larger sums share a bucket with the ~19% of
// values that agree in their top three bits. That keeps the key space
// tiny (< 260 keys across the full uint64 range, in practice a handful
// for one workload) while bounding each bucket's [lo,hi] sum range
// tightly enough for the walk to prune aggressively.
//
// The index is a derived cache, like the segs slab: it is never
// serialized, and Restore rebuilds it from the decoded table so
// snapshot bytes are unchanged by its existence.
type sumIndex struct {
	keys    []uint16  // sorted keys of the non-empty buckets
	buckets [][]int32 // buckets[i]: rows with bucketKey(sum)==keys[i], ascending row order
	spare   [][]int32 // emptied buckets, kept so steady-state row moves never allocate
}

// bucketKey maps a signature sum to its quarter-octave bucket key.
func bucketKey(sum uint64) uint16 {
	if sum < 8 {
		return uint16(sum)
	}
	k := uint(bits.Len64(sum)) // sum in [2^(k-1), 2^k), k >= 4
	return uint16(k<<2 | uint((sum>>(k-3))&3))
}

// bucketRange returns the inclusive sum range [lo, hi] covered by key.
func bucketRange(key uint16) (lo, hi uint64) {
	if key < 8 {
		return uint64(key), uint64(key)
	}
	k := uint(key >> 2)
	q := uint64(key & 3)
	lo = (4 + q) << (k - 3)
	return lo, lo + (1 << (k - 3)) - 1
}

// find returns the position of key in keys and whether it is present;
// when absent, the position is where it would be inserted.
func (x *sumIndex) find(key uint16) (int, bool) {
	i := sort.Search(len(x.keys), func(i int) bool { return x.keys[i] >= key })
	return i, i < len(x.keys) && x.keys[i] == key
}

// add registers row under sum. Rows within a bucket are kept in
// ascending order so walks are deterministic.
func (x *sumIndex) add(row int32, sum uint64) {
	key := bucketKey(sum)
	i, ok := x.find(key)
	if !ok {
		var b []int32
		if n := len(x.spare); n > 0 {
			b, x.spare = x.spare[n-1], x.spare[:n-1]
		}
		x.keys = append(x.keys, 0)
		copy(x.keys[i+1:], x.keys[i:])
		x.keys[i] = key
		x.buckets = append(x.buckets, nil)
		copy(x.buckets[i+1:], x.buckets[i:])
		x.buckets[i] = b
	}
	b := x.buckets[i]
	j := sort.Search(len(b), func(j int) bool { return b[j] >= row })
	b = append(b, 0)
	copy(b[j+1:], b[j:])
	b[j] = row
	x.buckets[i] = b
}

// remove drops row from the bucket it occupies under sum. The row must
// have been added with the same sum.
func (x *sumIndex) remove(row int32, sum uint64) {
	key := bucketKey(sum)
	i, ok := x.find(key)
	if !ok {
		panic("classifier: sumIndex.remove of unindexed bucket")
	}
	b := x.buckets[i]
	j := sort.Search(len(b), func(j int) bool { return b[j] >= row })
	if j >= len(b) || b[j] != row {
		panic("classifier: sumIndex.remove of unindexed row")
	}
	if len(b) == 1 {
		// Bucket empties: drop the key so walks never visit it, and
		// keep the slice for the next bucket birth.
		x.spare = append(x.spare, b[:0])
		x.keys = append(x.keys[:i], x.keys[i+1:]...)
		x.buckets = append(x.buckets[:i], x.buckets[i+1:]...)
		return
	}
	x.buckets[i] = append(b[:j], b[j+1:]...)
}

// clear empties the index, parking every bucket's storage in spare so
// the next rebuild reuses it instead of allocating.
func (x *sumIndex) clear() {
	for i, b := range x.buckets {
		x.spare = append(x.spare, b[:0])
		x.buckets[i] = nil
	}
	x.keys = x.keys[:0]
	x.buckets = x.buckets[:0]
}

// rebuild reconstructs the index from the entry table (the first
// Classify after a Restore).
func (x *sumIndex) rebuild(entries []entry) {
	x.clear()
	for i := range entries {
		x.add(int32(i), entries[i].sigSum)
	}
}
