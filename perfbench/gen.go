package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"

	"phasekit/internal/core"
	"phasekit/internal/wire"
)

// sut is a running system-under-test process.
type sut struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	start time.Time // just before the process was started
	info  readyInfo
}

// startServer starts `pkbench serve` and waits for its ready line.
func startServer(ctx context.Context, sc serveConfig) (*sut, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	arg, err := json.Marshal(sc)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "serve", string(arg))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s := &sut{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout), start: time.Now()}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	if err := s.readLine(&s.info); err != nil {
		s.kill()
		return nil, fmt.Errorf("server did not become ready: %w", err)
	}
	return s, nil
}

func (s *sut) readLine(v any) error {
	line, err := s.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// stop closes the server's standard input, which makes it shut down
// and print its report, and waits for it to exit.
func (s *sut) stop() (serverReport, error) {
	var rep serverReport
	s.stdin.Close()
	rerr := s.readLine(&rep)
	werr := s.cmd.Wait()
	if rerr != nil {
		return rep, fmt.Errorf("reading server report: %w", rerr)
	}
	return rep, werr
}

func (s *sut) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
}

// dial opens one ingest connection and sends the protocol magic.
func dial(addr string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	c.SetDeadline(time.Now().Add(runDeadline))
	if _, err := io.WriteString(c, wire.Magic); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// probeSetup starts a server, sends one flush frame, and returns the
// time from starting the process to reading the flush's ACK.
func probeSetup(ctx context.Context, sc serveConfig) (float64, error) {
	sc.Streams = nil
	s, err := startServer(ctx, sc)
	if err != nil {
		return 0, err
	}
	c, err := dial(s.info.Addr)
	if err != nil {
		s.kill()
		return 0, err
	}
	_, err = c.Write(wire.AppendFlushFrame(nil, 1))
	var fr wire.Frame
	if err == nil {
		var payload []byte
		if payload, err = wire.ReadFrame(c, nil, 0); err == nil {
			fr, err = wire.DecodeFrame(payload)
		}
	}
	setup := time.Since(s.start).Seconds()
	c.Close()
	if err == nil && fr.Tag != wire.TagAck {
		err = fmt.Errorf("flush answered with frame tag %#x", fr.Tag)
	}
	if err != nil {
		s.kill()
		return 0, err
	}
	if _, err := s.stop(); err != nil {
		return 0, err
	}
	return setup, nil
}

// genResult is what the generator observed in the timed window.
type genResult struct {
	start, end  time.Time
	latNs       []int64 // frame write to ACK read, per acknowledged batch
	sent        int
	acked       int
	nacked      int
	ackedEvents int64
	errs        []error
}

func (g *genResult) latenciesMs() []float64 {
	out := make([]float64, len(g.latNs))
	for i, ns := range g.latNs {
		out[i] = float64(ns) / 1e6
	}
	return out
}

// drive sends batches first..first+n-1 of every stream over conns
// connections (stream i on connection i%conns, batches in stream order)
// and waits for every response. Each connection keeps at most window
// batches unacknowledged: a closed loop, as wire.Client.QueueBatch
// behaves.
func drive(addr string, streams []*stream, first, n int) *genResult {
	g := &genResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	cs := make([]net.Conn, conns)
	for i := range cs {
		c, err := dial(addr)
		if err != nil {
			g.errs = append(g.errs, err)
			for _, c := range cs[:i] {
				c.Close()
			}
			return g
		}
		cs[i] = c
	}
	g.start = time.Now()
	for ci, c := range cs {
		var mine []*stream
		for i := ci; i < len(streams); i += conns {
			mine = append(mine, streams[i])
		}
		total := n * len(mine)
		// sentAt is both the window semaphore and the FIFO of write
		// times: the server answers a connection's frames in order. The
		// reader holds the oldest entry while it waits for its ACK, so
		// window-1 buffered entries make window batches unacknowledged.
		sentAt := make(chan time.Time, window-1)
		wg.Add(2)
		go func() {
			defer wg.Done()
			var buf []byte
			seq := uint64(0)
			for k := 0; k < n; k++ {
				for _, s := range mine {
					ev, cyc := s.batch(first + k)
					seq++
					buf = wire.AppendBatchFrame(buf[:0], wire.Batch{
						Seq: seq, StreamSeq: uint64(first + k + 1), Stream: s.name, Cycles: cyc, Events: ev,
					})
					sentAt <- time.Now()
					if _, err := c.Write(buf); err != nil {
						mu.Lock()
						g.errs = append(g.errs, fmt.Errorf("write: %w", err))
						g.sent += int(seq)
						mu.Unlock()
						c.Close() // fails the reader's pending read
						close(sentAt)
						return
					}
				}
			}
			mu.Lock()
			g.sent += int(seq)
			mu.Unlock()
			close(sentAt)
		}()
		go func() {
			defer wg.Done()
			lat := make([]int64, 0, total)
			var acked, nacked int
			var events int64
			var rerr error
			var last time.Time
			br := bufio.NewReaderSize(c, 1<<16)
			var rbuf []byte
			for t0 := range sentAt {
				payload, err := wire.ReadFrame(br, rbuf, 0)
				if err != nil {
					rerr = fmt.Errorf("read: %w", err)
					break
				}
				rbuf = payload
				last = time.Now()
				fr, err := wire.DecodeFrame(payload)
				switch {
				case err != nil:
					rerr = err
				case fr.Tag == wire.TagAck:
					acked++
					events += batchEvents
					lat = append(lat, last.Sub(t0).Nanoseconds())
				default:
					nacked++
				}
				if rerr != nil {
					break
				}
			}
			c.Close() // unblocks a writer stuck on a dead connection
			for range sentAt {
			}
			mu.Lock()
			g.latNs = append(g.latNs, lat...)
			g.acked += acked
			g.nacked += nacked
			g.ackedEvents += events
			if last.After(g.end) {
				g.end = last
			}
			if rerr != nil {
				g.errs = append(g.errs, rerr)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return g
}

// e2eResult is one end-to-end run: what the generator saw, what the
// server reported, and the oracle verdict.
type e2eResult struct {
	gen     *genResult
	rep     serverReport
	info    readyInfo
	correct bool
	failed  int
}

// endToEnd starts the server, drives the timed window, stops the
// server and checks every stream against the oracle.
func endToEnd(ctx context.Context, sc serveConfig, streams []*stream, w workloadDef) (*e2eResult, error) {
	s, err := startServer(ctx, sc)
	if err != nil {
		return nil, err
	}
	g := drive(s.info.Addr, streams, w.crashBatches, w.batches)
	rep, err := s.stop()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for _, e := range g.errs {
		fmt.Fprintln(os.Stderr, "transport error:", e)
	}
	r := &e2eResult{gen: g, rep: rep, info: s.info, correct: true}
	r.failed = g.sent - g.acked // NACKs, missing ACKs and transport errors
	want := oracle(streams, w.interval, w.crashBatches+w.batches)
	mismatched := 0
	for _, st := range streams {
		if rep.Reports[st.name] != want[st.name] {
			mismatched++
			r.failed += w.batches
			fmt.Fprintf(os.Stderr, "ORACLE MISMATCH on %s:\n  served: %s\n  oracle: %s\n", st.name, rep.Reports[st.name], want[st.name])
		}
	}
	if len(g.errs) > 0 || mismatched > 0 || g.acked == 0 {
		r.correct = false
	}
	if r.failed > g.sent {
		r.failed = g.sent
	}
	fmt.Printf("oracle: %d/%d streams equal a bare core.Tracker fed the same %d batches; %d sent, %d acked, %d nacked\n",
		len(streams)-mismatched, len(streams), w.crashBatches+w.batches, g.sent, g.acked, g.nacked)
	if g.sent != w.streams*w.batches && len(g.errs) == 0 {
		return nil, errors.New("generator sent a different batch count than planned")
	}
	return r, nil
}

// oracle feeds batches 0..n-1 of every stream into a bare core.Tracker
// and returns each stream's report key. Two workers share the streams.
func oracle(streams []*stream, interval uint64, n int) map[string]string {
	out := make(map[string]string, len(streams))
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan *stream)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				t := core.NewTracker(s.name, trackerConfig(interval))
				for k := 0; k < n; k++ {
					ev, cyc := s.batch(k)
					t.Cycles(cyc)
					for _, e := range ev {
						t.Branch(e.PC, e.Instrs)
					}
				}
				key := reportKey(t.Report())
				mu.Lock()
				out[s.name] = key
				mu.Unlock()
			}
		}()
	}
	for _, s := range streams {
		next <- s
	}
	close(next)
	wg.Wait()
	return out
}
