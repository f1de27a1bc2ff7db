package ether

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
)

// streamProto is the IP protocol number the fuzzed host listens on.
const streamProto = 99

// streamLog is the fuzzed host's transport: every datagram IP hands up,
// header and payload, the chain freed.
type streamLog struct {
	k   *kern.Kernel
	got []streamDatagram
}

type streamDatagram struct {
	h       ip.Header
	payload []byte
}

func (r *streamLog) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	r.got = append(r.got, streamDatagram{h, mbuf.Linearize(m)})
	r.k.Pool.Free(m)
}

// frameStream is one fuzz run: a host with an adapter, a driver and an IP
// stack, fed frames straight into the adapter's receive side, as the
// segment delivers them.
type frameStream struct {
	env  *sim.Env
	wd   *sim.Watchdog // progress is the script advancing
	a    *Adapter
	d    *Driver
	ipst *ip.Stack
	log  *streamLog

	good     map[uint16][]byte // IP ID → a datagram sent in a sound frame
	short    [][]byte          // sub-header datagrams, as padded on the wire
	nextID   uint16
	at       sim.Time // when the next frame arrives
	queued   int64    // frames the adapter's filter passes: FramesRecv's share
	goodSent int64    // sound frames among them
}

var (
	streamHost  = [6]byte{2, 0, 0, 0, 0, 2}
	streamPeer  = [6]byte{2, 0, 0, 0, 0, 1}
	streamOther = [6]byte{2, 0, 0, 0, 0, 9}
)

func newFrameStream() *frameStream {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "fuzzed")
	s := &frameStream{env: env, good: map[uint16][]byte{}}
	s.ipst = ip.NewStack(k, 2)
	s.a = NewAdapter(k, streamHost)
	s.d = NewDriver(k, s.a, s.ipst)
	s.log = &streamLog{k: k}
	s.ipst.Register(streamProto, s.log)
	env.Arena().Poison = true
	s.wd = sim.NewWatchdog(10 * sim.Second)
	env.SetWatchdog(s.wd)
	return s
}

// datagram builds the next numbered datagram of n bytes (HeaderLen at
// least), its payload drawn from seed.
func (s *frameStream) datagram(n int, seed byte) []byte {
	dg := make([]byte, n)
	sim.NewRNG(uint64(seed)<<16 | uint64(s.nextID)).Fill(dg)
	(&ip.Header{TotalLen: n, ID: s.nextID, TTL: 30, Proto: streamProto, Src: 1, Dst: 2}).Marshal(dg)
	s.nextID++
	return dg
}

// inject schedules f's arrival, gap after the previous frame's.
func (s *frameStream) inject(f Frame, gap sim.Time) {
	s.at += gap
	if len(f) < 6 || bytes.Equal(f[:6], streamHost[:]) || bytes.Equal(f[:6], Broadcast[:]) {
		s.queued++
	}
	s.env.At(s.at, "fuzz.frame", func() {
		s.wd.Progress()
		s.a.receive(onWire(s.env, f))
	})
}

// Script ops, one byte each plus the argument bytes they take.
const (
	fsGood      = iota // a sound frame to this host; args: size/6, payload seed
	fsBroadcast        // the same, to every station
	fsOther            // the same, to another station's address
	fsFlip             // a sound frame with one bit flipped; args: size/6, bit (two bytes)
	fsRunt             // a sound frame cut short of the minimum; arg: length
	fsType             // a sound frame whose type is not IPv4; args: the type (two bytes)
	fsShort            // an IPv4 frame carrying under HeaderLen bytes; arg: length, then the bytes
	fsGap              // let the wire go quiet; arg: how long, in 100 µs
	fsKinds
)

// run plays the script and returns the host drained.
func (s *frameStream) run(script []byte) {
	const gap = 10 * sim.Microsecond // under a minimum frame's wire time: bursts queue
	arg := func() int {
		if len(script) == 0 {
			return 0
		}
		b := script[0]
		script = script[1:]
		return int(b)
	}
	size := func(b int) int { return min(ip.HeaderLen+6*b, MTU) }
	for len(script) > 0 {
		switch op := arg(); op % fsKinds {
		case fsGood, fsBroadcast, fsOther:
			dst := [...][6]byte{streamHost, Broadcast, streamOther}[op%fsKinds]
			dg := s.datagram(size(arg()), byte(arg()))
			if dst != streamOther {
				s.good[uint16(s.nextID-1)] = dg
				s.goodSent++
			}
			s.inject(Encapsulate(dst, streamPeer, EtherTypeIPv4, dg), gap)
		case fsFlip:
			f := Encapsulate(streamHost, streamPeer, EtherTypeIPv4, s.datagram(size(arg()), 0))
			bit := (arg()<<8 | arg()) % (len(f) * 8)
			f[bit/8] ^= 1 << (bit % 8)
			s.inject(f, gap)
		case fsRunt:
			f := Encapsulate(streamHost, streamPeer, EtherTypeIPv4, s.datagram(ip.HeaderLen, 0))
			s.inject(f[:arg()%frameLen(0)], gap)
		case fsType:
			typ := uint16(arg()<<8 | arg())
			if typ == EtherTypeIPv4 {
				typ++
			}
			s.inject(Encapsulate(streamHost, streamPeer, typ, s.datagram(size(40), 0)), gap)
		case fsShort:
			n := arg() % ip.HeaderLen
			dg := make([]byte, n)
			script = script[copy(dg, script):]
			f := Encapsulate(streamHost, streamPeer, EtherTypeIPv4, dg)
			s.short = append(s.short, f[HeaderLen:len(f)-FCSLen])
			s.inject(f, gap)
		case fsGap:
			s.at += sim.Time(arg()) * 100 * sim.Microsecond
		}
	}
	s.env.Run()
}

// sent reports whether a delivered datagram is one the script sent: a
// sound frame's, to the byte, or what IP makes of a padded short one.
func (s *frameStream) sent(g streamDatagram) bool {
	if dg, ok := s.good[g.h.ID]; ok && g.h.TotalLen == len(dg) {
		var hdr [ip.HeaderLen]byte
		g.h.Marshal(hdr[:])
		if bytes.Equal(hdr[:], dg[:ip.HeaderLen]) && bytes.Equal(g.payload, dg[ip.HeaderLen:]) {
			return true
		}
	}
	for _, p := range s.short {
		h, err := ip.Parse(p)
		if err == nil && h == g.h && h.TotalLen >= ip.HeaderLen && h.TotalLen <= len(p) &&
			bytes.Equal(g.payload, p[ip.HeaderLen:h.TotalLen]) {
			return true
		}
	}
	return false
}

// check holds the drained host to everything the harness knows.
func (s *frameStream) check(t *testing.T) {
	t.Helper()
	if err := s.env.WatchdogErr(); err != nil {
		t.Fatalf("watchdog: %v", err)
	}
	a, d := s.a, s.d
	if a.FramesRecv != s.queued || a.RxAvail() != 0 {
		t.Fatalf("adapter queued %d frames (%d still waiting), the harness %d", a.FramesRecv, a.RxAvail(), s.queued)
	}
	if d.FCSErrors+d.FramesIn != a.FramesRecv {
		t.Errorf("adapter queued %d frames, driver passed up %d and rejected %d", a.FramesRecv, d.FramesIn, d.FCSErrors)
	}
	if got := int64(len(s.log.got)) + s.ipst.Drops; got != d.FramesIn {
		t.Errorf("%d frames in, IP delivered %d and dropped %d", d.FramesIn, len(s.log.got), s.ipst.Drops)
	}
	seen := map[uint16]bool{}
	for _, g := range s.log.got {
		if !s.sent(g) {
			t.Errorf("delivered a datagram nobody sent: %+v, %d payload bytes", g.h, len(g.payload))
			continue
		}
		if _, ok := s.good[g.h.ID]; ok {
			if seen[g.h.ID] {
				t.Errorf("datagram %d delivered twice", g.h.ID)
			}
			seen[g.h.ID] = true
		}
	}
	if int64(len(seen)) != s.goodSent {
		t.Errorf("%d sound frames queued, %d of their datagrams delivered", s.goodSent, len(seen))
	}
	d.Reset()
	a.Reset()
	if out := s.env.Arena().Outstanding(); out != 0 {
		t.Errorf("%d buffers still checked out after Reset", out)
	}
}

// frameStreamSeeds are the hand-written scripts: sound frames of every
// size class, to this host, to all and to another; flipped bits in the
// header, the datagram and the FCS; runts; foreign types; short
// datagrams, one of them a header whose total length is shorter than
// itself; a burst.
var frameStreamSeeds = [][]byte{
	{fsGood, 0, 1, fsGood, 18, 2, fsGood, 170, 3, fsGood, 255, 4, fsBroadcast, 40, 5, fsOther, 40, 6},
	{fsFlip, 10, 0, 3, fsGood, 10, 1, fsFlip, 200, 1, 200, fsFlip, 0, 2, 0xff, fsGood, 0, 0},
	{fsRunt, 0, fsRunt, 13, fsRunt, 63, fsType, 0x86, 0xdd, fsType, 0x08, 0x00, fsGood, 5, 5},
	append(append([]byte{fsShort, 12}, shortHeader(12)...), fsShort, 0, fsShort, 19, 0x45, fsGood, 1, 1),
	append(bytes.Repeat([]byte{fsGood, 255, 9}, 40), fsGap, 50, fsBroadcast, 0, 0),
}

// shortHeader is the first n bytes of a sound header whose total length
// is n and whose addresses are zero: padded to the minimum frame, it is a
// whole header that checks, stating a datagram shorter than the header.
func shortHeader(n int) []byte {
	b := make([]byte, ip.HeaderLen)
	(&ip.Header{TotalLen: n, TTL: 1, Proto: streamProto}).Marshal(b)
	return b[:n]
}

// TestFrameStreamSeeds runs the hand-written scripts and requires them to
// reach what they were written for.
func TestFrameStreamSeeds(t *testing.T) {
	var in, fcs, filtered, drops int64
	for i, script := range frameStreamSeeds {
		s := newFrameStream()
		s.run(script)
		// check ends in Reset: read the counters first.
		in, fcs, filtered, drops = in+s.d.FramesIn, fcs+s.d.FCSErrors, filtered+s.a.Filtered, drops+s.ipst.Drops
		if s.check(t); t.Failed() {
			t.Fatalf("script %d", i)
		}
	}
	if in == 0 || fcs == 0 || filtered == 0 || drops == 0 {
		t.Errorf("the scripts pass up %d frames, reject %d, filter %d, and IP drops %d: each must be reached",
			in, fcs, filtered, drops)
	}
}

// FuzzFrameStream is FuzzCellStream's Ethernet twin: a byte script feeds
// a live driver sound frames with arbitrary payloads, frames with a bit
// flipped, runts, foreign types and datagrams shorter than an IP header,
// and runs to quiescence. Never a panic or a watchdog; the driver passes
// up or rejects every frame the adapter queued (FramesIn + FCSErrors =
// FramesRecv); every datagram IP delivers was sent, byte for byte, and
// every sound one is delivered once; nothing stays checked out of the
// arena past Reset.
func FuzzFrameStream(f *testing.F) {
	for _, s := range frameStreamSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 4096 {
			script = script[:4096]
		}
		s := newFrameStream()
		s.run(script)
		s.check(t)
	})
}
