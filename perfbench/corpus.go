package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"strings"

	"phasekit/internal/rng"
	"phasekit/internal/trace"
	"phasekit/internal/uarch"
	"phasekit/internal/workload"
)

// batchEvents is the number of branch events in every batch.
const batchEvents = 512

// Corpus generation: each of the eleven synthetic programs is run
// through the timing model once, for corpusIntervals 10M-instruction
// intervals of its phase script shrunk by corpusScale (so a corpus
// crosses several script segments), and cut into batch-sized blocks.
// Streams loop over their program's blocks.
const (
	corpusIntervals = 96
	corpusScale     = 0.25
	corpusMagic     = "PKBCORPUS2\n"
)

// program is one synthetic program's branch-event corpus. events has a
// multiple of batchEvents entries; cycles[b] is the timing model's cycle
// count for block b (events[b*batchEvents:(b+1)*batchEvents]).
type program struct {
	name   string
	events []trace.BranchEvent
	cycles []uint64
	sum    [sha256.Size]byte // content hash, for the corpus fingerprint
}

func (p *program) blocks() int { return len(p.cycles) }

// stream is one benchmark stream: a program looped from a seeded start
// block. Batch k of the stream (k counts from 0 across the crash image
// and the driven traffic) carries stream sequence number k+1.
type stream struct {
	name  string
	prog  *program
	start int
}

// batch returns the events and cycle count of the stream's batch k.
func (s *stream) batch(k int) ([]trace.BranchEvent, uint64) {
	b := (s.start + k) % s.prog.blocks()
	return s.prog.events[b*batchEvents : (b+1)*batchEvents], s.prog.cycles[b]
}

// pickStreams assigns every stream a program and a start block, drawn
// from seed. Streams take the programs in a seeded order, round robin,
// so every program serves n/11 streams (give or take one) whatever the
// seed: the mix, and with it the work per event, does not swing from
// seed to seed. Programs are generated once and cached in cacheDir; the
// cache holds generated data only, so the seed decides what is used.
func pickStreams(n int, seed uint64, cacheDir string) ([]*stream, error) {
	names := workload.Names()
	x := rng.NewXoshiro256(rng.Combine(seed, 0xbe7c4))
	for i := len(names) - 1; i > 0; i-- {
		j := x.Intn(i + 1)
		names[i], names[j] = names[j], names[i]
	}
	progs := make(map[string]*program)
	out := make([]*stream, n)
	for i := range out {
		name := names[i%len(names)]
		p := progs[name]
		if p == nil {
			var err error
			if p, err = loadProgram(cacheDir, name); err != nil {
				return nil, err
			}
			progs[name] = p
		}
		out[i] = &stream{name: fmt.Sprintf("stream-%02d", i), prog: p, start: x.Intn(p.blocks())}
	}
	return out, nil
}

// fingerprint hashes everything that decides a run's inputs: the
// workload's shape, and each stream's program content and start block.
// Two machines that print the same fingerprint fed identical events.
func fingerprint(w workloadDef, streams []*stream) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%d\n", w.name, w.interval, batchEvents, w.crashBatches, w.batches, len(streams))
	for _, s := range streams {
		fmt.Fprintf(h, "%s|%s|%d|%x\n", s.name, s.prog.name, s.start, s.prog.sum)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// corpusSink collects a program's events and per-block cycle counts.
type corpusSink struct {
	events []trace.BranchEvent
	cycles []uint64
	cur    uint64
}

func (s *corpusSink) Event(ev uarch.BlockEvent, cycles uint64) {
	s.events = append(s.events, trace.BranchEvent{PC: ev.BranchPC, Instrs: ev.Instrs})
	s.cur += cycles
	if len(s.events)%batchEvents == 0 {
		s.cycles = append(s.cycles, s.cur)
		s.cur = 0
	}
}

func (s *corpusSink) EndInterval(int) {}

// loadProgram reads a program's corpus from the cache, generating and
// caching it first when absent or unreadable.
func loadProgram(cacheDir, name string) (*program, error) {
	path := filepath.Join(cacheDir, strings.ReplaceAll(name, "/", "_")+".corpus")
	if p, err := readProgram(path, name); err == nil {
		return p, nil
	}
	spec, err := workload.Get(name)
	if err != nil {
		return nil, err
	}
	sink := &corpusSink{}
	opts := workload.Options{Scale: corpusScale, MaxIntervals: corpusIntervals}
	if _, err := workload.Stream(spec, opts, sink); err != nil {
		return nil, fmt.Errorf("generating %s: %w", name, err)
	}
	p := &program{name: name, events: sink.events[:len(sink.cycles)*batchEvents], cycles: sink.cycles}
	if err := writeProgram(path, p); err != nil {
		return nil, err
	}
	return p, nil
}

// The cache file is the magic, the block count, then per block its
// cycle count and its events (PC, instructions), little-endian. The
// content hash is computed over everything after the magic.
func writeProgram(path string, p *program) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), "corpus-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(tmp, h))
	if _, err := io.WriteString(tmp, corpusMagic); err != nil {
		tmp.Close()
		return err
	}
	encodeProgram(w, p)
	if err := w.Flush(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	copy(p.sum[:], h.Sum(nil))
	return os.Rename(tmp.Name(), path)
}

func encodeProgram(w *bufio.Writer, p *program) {
	var b [12]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(p.blocks()))
	w.Write(b[:8])
	for blk, c := range p.cycles {
		binary.LittleEndian.PutUint64(b[:8], c)
		w.Write(b[:8])
		for _, ev := range p.events[blk*batchEvents : (blk+1)*batchEvents] {
			binary.LittleEndian.PutUint64(b[:8], ev.PC)
			binary.LittleEndian.PutUint32(b[8:], ev.Instrs)
			w.Write(b[:12])
		}
	}
}

func readProgram(path, name string) (*program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasPrefix(string(data), corpusMagic) {
		return nil, errors.New("bad corpus magic")
	}
	body := data[len(corpusMagic):]
	if len(body) < 8 {
		return nil, errors.New("short corpus")
	}
	n := int(binary.LittleEndian.Uint64(body))
	if n <= 0 || len(body) != 8+n*(8+12*batchEvents) {
		return nil, errors.New("corpus size mismatch")
	}
	p := &program{name: name, events: make([]trace.BranchEvent, 0, n*batchEvents), cycles: make([]uint64, n)}
	off := 8
	for blk := 0; blk < n; blk++ {
		p.cycles[blk] = binary.LittleEndian.Uint64(body[off:])
		off += 8
		for i := 0; i < batchEvents; i++ {
			p.events = append(p.events, trace.BranchEvent{
				PC:     binary.LittleEndian.Uint64(body[off:]),
				Instrs: binary.LittleEndian.Uint32(body[off+8:]),
			})
			off += 12
		}
	}
	var h hash.Hash = sha256.New()
	h.Write(body)
	copy(p.sum[:], h.Sum(nil))
	return p, nil
}
