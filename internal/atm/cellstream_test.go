package atm_test

import (
	"bytes"
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
)

// cellStreamProto is the IP protocol number the fuzzed host listens on.
const cellStreamProto = 99

// datagramLog is the fuzzed host's transport: it records every datagram
// IP hands it, keyed by the IP ID the harness numbered it with.
type datagramLog struct {
	k   *kern.Kernel
	got []loggedDatagram
}

type loggedDatagram struct {
	h       ip.Header
	payload []byte
}

func (r *datagramLog) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	r.got = append(r.got, loggedDatagram{h, mbuf.Linearize(m)})
	r.k.Pool.Free(m)
}

// cellSource is one sender's channel: a segmenter, the frame it is part
// way through, and every datagram it has segmented.
type cellSource struct {
	seg   atm.Segmenter
	cells []atm.Cell
	next  int
}

// cellStream is one fuzz run: a host with an adapter, a driver and an IP
// stack, fed cells straight into the adapter.
type cellStream struct {
	env  *sim.Env
	wd   *sim.Watchdog // progress is the script advancing: it fires on a host that never drains
	a    *atm.Adapter
	d    *atm.Driver
	ipst *ip.Stack
	log  *datagramLog

	src       [2]cellSource
	segmented map[uint16][]byte // IP ID → the datagram as segmented
	nextID    uint16
	at        sim.Time   // when the next cell is injected
	last      atm.Cell   // the last cell injected, for duplicates
	injected  int64      // cells handed to InjectCell
	admitted  []atm.Cell // those the receive FIFO took, in order
}

func newCellStream() *cellStream {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "fuzzed")
	s := &cellStream{env: env, segmented: map[uint16][]byte{}}
	s.ipst = ip.NewStack(k, 2)
	s.a = atm.NewAdapter(k)
	s.d = atm.NewDriver(k, s.a, s.ipst)
	s.log = &datagramLog{k: k}
	s.ipst.Register(cellStreamProto, s.log)
	s.src[0].seg.VCI, s.src[1].seg.VCI = atm.DefaultVCI, atm.DefaultVCI+1
	env.Arena().Poison = true
	s.wd = sim.NewWatchdog(10 * sim.Second)
	env.SetWatchdog(s.wd)
	return s
}

// nextCell returns the next cell of source i, segmenting a fresh datagram
// of about size bytes when the last frame is used up. A size under the IP
// header length makes a runt with no header at all.
func (s *cellStream) nextCell(i, size int) atm.Cell {
	src := &s.src[i]
	if src.next == len(src.cells) {
		dg := make([]byte, size)
		sim.NewRNG(uint64(s.nextID) + 1).Fill(dg)
		if size >= ip.HeaderLen {
			h := ip.Header{TotalLen: size, ID: s.nextID, TTL: 30, Proto: cellStreamProto, Src: 1, Dst: 2}
			h.Marshal(dg)
			s.segmented[s.nextID] = dg
			s.nextID++
		}
		src.cells, src.next = src.seg.Segment(dg), 0
	}
	src.next++
	return src.cells[src.next-1]
}

// inject schedules c's arrival at the adapter, gap after the last one.
func (s *cellStream) inject(c atm.Cell, gap sim.Time) {
	s.at += gap
	s.last = c
	s.env.At(s.at, "fuzz.cell", func() {
		before := s.a.CellsDropped
		s.wd.Progress()
		s.injected++
		s.a.InjectCell(c)
		if s.a.CellsDropped == before {
			s.admitted = append(s.admitted, c)
		}
	})
}

// wellFormed reports whether a cell passes both per-cell checks, the HEC
// and the CRC-10 — what only a segmenter's cell should.
func wellFormed(c *atm.Cell) bool {
	if _, err := atm.ParseHeader(c); err != nil {
		return false
	}
	var r atm.Reassembler
	_, err := r.Push(c)
	re, rejected := err.(*atm.ReassemblyError)
	return !rejected || re.Reason != "CRC-10 mismatch"
}

// Script ops, one byte each plus the argument bytes they take.
const (
	csCellA   = iota // the next well-formed cell of source A; arg: datagram size/3 if a frame starts
	csCellB          // likewise for source B
	csFlip           // the next cell of a source with one bit flipped; args: size, bit
	csSkip           // a truncated frame: lose the next 1–4 cells of a source; arg: which and how many
	csGarbage        // 53 raw bytes from the script
	csDup            // the last cell again
	csGap            // let the wire go quiet; arg: how long, in cell times
	csRunt           // a well-formed frame too short to hold an IP header; arg: length
	csKinds
)

// run plays the script and returns the host drained.
func (s *cellStream) run(script []byte) {
	cellTime := s.a.CellTime()
	arg := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	size := func(b int) int {
		if b == 255 {
			return 8000 // one big frame: 183 cells, most of the receive FIFO
		}
		return ip.HeaderLen + 3*b
	}
	for len(script) > 0 {
		switch op := arg(); op % csKinds {
		case csCellA, csCellB:
			s.inject(s.nextCell(op%csKinds, size(arg())), cellTime)
		case csFlip:
			b := arg()
			c := s.nextCell(b&1, size(b))
			bit := (arg()<<8 | b) % (atm.CellSize * 8)
			c[bit/8] ^= 1 << (bit % 8)
			s.inject(c, cellTime)
		case csSkip:
			b := arg()
			for n := b>>1&3 + 1; n > 0; n-- {
				s.nextCell(b&1, size(b))
			}
		case csGarbage:
			var c atm.Cell
			script = script[copy(c[:], script):]
			if !wellFormed(&c) {
				s.inject(c, cellTime)
			}
		case csDup: // before anything else, the zero cell: VCI 0, a continuation of nothing
			s.inject(s.last, cellTime)
		case csGap:
			s.at += sim.Time(arg()) * 8 * cellTime
		case csRunt:
			src := &s.src[0]
			src.next = len(src.cells) // abandon the open frame
			s.inject(s.nextCell(0, arg()%ip.HeaderLen), cellTime)
		}
	}
	s.env.Run()
}

// check holds the drained host to everything the harness knows.
func (s *cellStream) check(t *testing.T) {
	t.Helper()
	if err := s.env.WatchdogErr(); err != nil {
		t.Fatalf("watchdog: %v", err)
	}
	a, d := s.a, s.d
	if int64(len(s.admitted)) != a.CellsRecv {
		t.Fatalf("%d cells admitted by the harness's count, CellsRecv %d", len(s.admitted), a.CellsRecv)
	}
	// The driver has popped a prefix of what was admitted. Replay it
	// through plain reassemblers, one a channel: the driver's counters
	// must be theirs, cell for cell.
	popped := s.admitted[:len(s.admitted)-a.RxAvail()]
	var hecBad, reasmErrs, frames, frameEnds int64
	ref := map[uint16]*atm.Reassembler{}
	for i := range popped {
		c := &popped[i]
		if atm.IsFrameEnd(c) {
			frameEnds++
		}
		h, err := atm.ParseHeader(c)
		if err != nil {
			hecBad++
			continue
		}
		r := ref[h.VCI]
		if r == nil {
			r = new(atm.Reassembler)
			ref[h.VCI] = r
		}
		switch dg, err := r.Push(c); {
		case err != nil, dg != nil && len(dg) < ip.HeaderLen:
			reasmErrs++
		case dg != nil:
			frames++
		}
	}
	if d.HECErrors != hecBad || d.ReassemblyErrors != reasmErrs || d.FramesIn != frames {
		t.Errorf("driver counted %d HEC errors, %d reassembly errors, %d frames in; the cells it popped make %d, %d, %d",
			d.HECErrors, d.ReassemblyErrors, d.FramesIn, hecBad, reasmErrs, frames)
	}
	if sum := d.HECErrors + d.ReassemblyErrors + d.FramesIn; sum < frameEnds {
		t.Errorf("%d frame ends popped, but HECErrors+ReassemblyErrors+FramesIn = %d", frameEnds, sum)
	}
	// A drained driver has consumed every frame end the adapter counted.
	waiting := 0
	for i := range s.admitted[len(popped):] {
		if atm.IsFrameEnd(&s.admitted[len(popped)+i]) {
			waiting++
		}
	}
	if a.FramesPending() != waiting || waiting != 0 {
		t.Errorf("drained with %d frames pending, %d frame ends still in the FIFO", a.FramesPending(), waiting)
	}
	// Everything delivered is something that was segmented, to the byte.
	if got := int64(len(s.log.got)) + s.ipst.Drops; got != d.FramesIn {
		t.Errorf("%d frames in, IP delivered %d and dropped %d", d.FramesIn, len(s.log.got), s.ipst.Drops)
	}
	for _, g := range s.log.got {
		want, ok := s.segmented[g.h.ID]
		if !ok {
			t.Errorf("delivered datagram %d, which nobody segmented", g.h.ID)
			continue
		}
		hdr := make([]byte, ip.HeaderLen)
		g.h.Marshal(hdr)
		if !bytes.Equal(hdr, want[:ip.HeaderLen]) || !bytes.Equal(g.payload, want[ip.HeaderLen:]) {
			t.Errorf("datagram %d delivered with different bytes than it was segmented with", g.h.ID)
		}
	}
	cellLedger{injected: s.injected, drivers: []*atm.Driver{d}}.check(t, "cell stream")
	if out, open := s.env.Arena().Outstanding(), d.Reassembling(); out != open {
		t.Errorf("drained with %d buffers checked out, %d frames mid-reassembly", out, open)
	}
	d.Reset()
	if out := s.env.Arena().Outstanding(); out != 0 {
		t.Errorf("%d buffers still checked out after Driver.Reset", out)
	}
}

// cellStreamSeeds are the hand-written scripts: two clean interleaved
// senders; a flipped bit in each part of a cell; frames missing their
// beginning, middle and end; garbage between good cells; a burst that
// overflows the receive FIFO; duplicates; runts.
var cellStreamSeeds = [][]byte{
	{csCellA, 40, csCellB, 90, csCellA, 0, csCellB, 0, csCellA, 0, csCellB, 0, csCellA, 0, csCellB, 0, csCellA, 0, csCellB, 0, csCellA, 0, csCellB, 0, csCellA, 0, csCellB, 0},
	{csCellA, 10, csFlip, 0, 3, csCellA, 0, csFlip, 1, 200, csCellB, 5, csFlip, 0, 44, csCellA, 0, csCellA, 0},
	{csSkip, 0, csCellA, 30, csCellA, 0, csSkip, 4, csCellA, 0, csCellA, 0, csCellA, 0, csCellA, 0, csSkip, 6, csCellA, 0, csCellA, 0, csCellA, 0},
	append(append([]byte{csCellA, 20, csGarbage}, bytes.Repeat([]byte{0xA5}, atm.CellSize)...), csCellA, 0, csCellA, 0, csCellB, 1, csDup, csDup, csCellB, 0),
	append(bytes.Repeat([]byte{csCellA, 255}, 400), csGap, 200, csCellB, 7, csCellB, 0),
	{csRunt, 3, csCellA, 9, csRunt, 19, csRunt, 0, csCellB, 2, csCellB, 0, csGap, 9, csDup},
}

// TestCellStreamSeeds runs the hand-written scripts and requires them to
// reach what they were written for.
func TestCellStreamSeeds(t *testing.T) {
	var frames, hec, reasm, overflows int64
	for i, script := range cellStreamSeeds {
		s := newCellStream()
		s.run(script)
		// check ends in Driver.Reset: read the counters first.
		frames, overflows = frames+s.d.FramesIn, overflows+s.a.RxOverflows
		hec, reasm = hec+s.d.HECErrors, reasm+s.d.ReassemblyErrors
		if s.check(t); t.Failed() {
			t.Fatalf("script %d", i)
		}
	}
	if frames == 0 || hec == 0 || reasm == 0 || overflows == 0 {
		t.Errorf("the scripts deliver %d datagrams, %d HEC errors, %d reassembly errors, %d FIFO overflows: each must be reached",
			frames, hec, reasm, overflows)
	}
}

// FuzzCellStream feeds a live driver hostile cells: a byte script
// interleaves well-formed cells of two senders with bit-flipped ones,
// frames missing cells, raw garbage, duplicates and runts, straight into
// Adapter.InjectCell, and runs to quiescence. Never a panic (the
// adapter's frame-pending count included) or a watchdog; the driver's
// counters are exactly what plain reassemblers make of the same cells;
// every datagram delivered was segmented, byte for byte; the cell ledger
// balances; nothing stays checked out past Driver.Reset.
func FuzzCellStream(f *testing.F) {
	for _, s := range cellStreamSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		s := newCellStream()
		s.run(script)
		s.check(t)
	})
}
