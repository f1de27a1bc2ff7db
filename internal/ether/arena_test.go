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

// checkLedger is Ethernet's conservation law. Every unicast frame a
// station put on the wire is accounted for exactly once — received, or
// dropped for one named cause — and every frame an adapter received, its
// driver either passed up or rejected.
func checkLedger(t *testing.T, seg *Segment, adapters []*Adapter, drivers []*Driver) {
	t.Helper()
	var sent, ended int64
	for _, a := range adapters {
		sent += a.FramesSent
		ended += a.FramesRecv + a.Filtered + a.GEDrops + a.DownDrops
	}
	if ended += seg.UnknownUnicasts; sent != ended {
		t.Errorf("%d frames sent, %d received or dropped for a counted cause", sent, ended)
	}
	for i, d := range drivers {
		if d.FramesIn+d.FCSErrors != adapters[i].FramesRecv {
			t.Errorf("station %d: adapter received %d, driver passed up %d and rejected %d",
				i, adapters[i].FramesRecv, d.FramesIn, d.FCSErrors)
		}
	}
}

// bareStations attaches n adapters with no driver behind them to one
// segment: what arrives stays in the receive queue for the test to pop.
func bareStations(env *sim.Env, n int) []*Adapter {
	seg := NewSegment()
	adapters := make([]*Adapter, n)
	for i := range adapters {
		k := kern.New(env, cost.DECstation5000(), "bare")
		adapters[i] = NewAdapter(k, [6]byte{2, 0, 0, 0, 0, byte(i + 1)})
		seg.Attach(adapters[i])
	}
	return adapters
}

// TestEveryFrameComesBack walks a frame to each place its life can end —
// the receiving driver's hand-off to IP, its reject, the receiving
// adapter's four discards, the sender's dead drop cable, the segment's
// unknown destination, the driver's unroutable datagram, a testbed
// rewind — and requires the loop's arena to count nothing outstanding
// afterwards. Each case also checks the counter of the cause it aims at,
// so a case that stopped reaching its site fails rather than passing
// through the ordinary delivery.
func TestEveryFrameComesBack(t *testing.T) {
	dgram := make([]byte, 80)
	send := func(to uint32) func(*stations) {
		return func(s *stations) {
			s.env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
				m := s.kerns[0].Pool.Alloc()
				m.Append(dgram[:60])
				s.ips[0].Output(p, to, 99, m)
			}))
		}
	}
	// put places a hand-built frame from station 0 on the wire.
	put := func(build func(s *stations) Frame) func(*stations) {
		return func(s *stations) {
			s.adapters[0].Transmit(onWire(s.env, build(s)))
		}
	}
	toStation1 := func(s *stations) Frame {
		return Encapsulate(s.adapters[1].Addr, s.adapters[0].Addr, EtherTypeIPv4, dgram)
	}
	cases := []struct {
		name    string
		arrange func(s *stations)
		act     func(s *stations)
		counted func(s *stations) int64
		// offWire marks the one case that bypasses Transmit, which the
		// sent-frames side of the ledger cannot see.
		offWire bool
	}{
		{name: "delivered to IP", act: send(2),
			counted: func(s *stations) int64 { return s.drivers[1].FramesIn }},
		{name: "corrupted FCS", act: put(func(s *stations) Frame {
			f := toStation1(s)
			f[len(f)-1] ^= 0x40
			return f
		}), counted: func(s *stations) int64 { return s.drivers[1].FCSErrors }},
		{name: "not an IP frame", act: put(func(s *stations) Frame {
			return Encapsulate(s.adapters[1].Addr, s.adapters[0].Addr, 0x86dd, dgram)
		}), counted: func(s *stations) int64 { return s.drivers[1].FCSErrors }},
		{name: "receiver down", arrange: func(s *stations) { s.adapters[1].SetDown(true) }, act: send(2),
			counted: func(s *stations) int64 { return s.adapters[1].DownDrops }},
		{name: "misdelivered", act: func(s *stations) {
			s.adapters[2].receive(onWire(s.env, toStation1(s)))
		}, counted: func(s *stations) int64 { return s.adapters[2].Filtered }, offWire: true},
		{name: "burst loss", arrange: func(s *stations) {
			s.adapters[1].SetImpairments(sim.GEParams{LossGood: 1}, 7)
		}, act: send(2), counted: func(s *stations) int64 { return s.adapters[1].GEDrops }},
		{name: "sender down", arrange: func(s *stations) { s.adapters[0].SetDown(true) }, act: send(2),
			counted: func(s *stations) int64 { return s.adapters[0].DownDrops }},
		{name: "unknown unicast", act: put(func(s *stations) Frame {
			return Encapsulate([6]byte{2, 0, 0, 0, 0, 0x7f}, s.adapters[0].Addr, EtherTypeIPv4, dgram)
		}), counted: func(s *stations) int64 { return s.seg.UnknownUnicasts }},
		{name: "no route", act: send(0x7f),
			counted: func(s *stations) int64 { return s.drivers[0].NoRoute }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv()
			env.Arena().Poison = true
			s := buildStations(t, env, 3)
			env.Run() // park the service processes
			if tc.arrange != nil {
				tc.arrange(s)
			}
			tc.act(s)
			env.Run()
			if n := tc.counted(s); n != 1 {
				t.Errorf("the cause this case aims at counted %d frames, want 1", n)
			}
			if n := env.Arena().Outstanding(); n != 0 {
				t.Errorf("%d frames still checked out", n)
			}
			if !tc.offWire {
				checkLedger(t, s.seg, s.adapters, s.drivers)
			}
		})
	}

	t.Run("broadcast to 3 stations", func(t *testing.T) {
		env := sim.NewEnv()
		adapters := bareStations(env, 4)
		want := Encapsulate(Broadcast, adapters[0].Addr, EtherTypeIPv4, dgram)
		adapters[0].Transmit(onWire(env, want))
		env.Run()
		// The sender's buffer went back; each receiver holds its own.
		if n := env.Arena().Outstanding(); n != 3 {
			t.Fatalf("%d frames checked out with three stations holding one each", n)
		}
		var got []Frame
		for i, a := range adapters[1:] {
			f, _, ok := a.PopRx()
			if !ok || !bytes.Equal(f, want) {
				t.Fatalf("station %d: frame missing or altered", i+1)
			}
			got = append(got, f)
		}
		got[0][HeaderLen] ^= 0xff
		if !bytes.Equal(got[1], want) || !bytes.Equal(got[2], want) {
			t.Fatal("stations share one buffer: a write through one frame showed in another")
		}
		for _, f := range got {
			env.Arena().Return(f)
		}
		if n := env.Arena().Outstanding(); n != 0 {
			t.Fatalf("%d frames still checked out", n)
		}
	})

	t.Run("reset with two in flight and one queued", func(t *testing.T) {
		env := sim.NewEnv()
		adapters := bareStations(env, 2)
		frame := func() Frame {
			return onWire(env, Encapsulate(adapters[1].Addr, adapters[0].Addr, EtherTypeIPv4, dgram))
		}
		adapters[0].Transmit(frame())
		env.Run()
		adapters[0].Transmit(frame())
		adapters[0].Transmit(frame())
		if q, out := adapters[1].RxAvail(), env.Arena().Outstanding(); q != 1 || out != 3 {
			t.Fatalf("%d queued, %d checked out; want 1 and 3", q, out)
		}
		for _, a := range adapters {
			a.Reset()
		}
		if n := env.Arena().Outstanding(); n != 0 {
			t.Fatalf("%d frames still checked out after Reset", n)
		}
		if adapters[1].RxAvail() != 0 {
			t.Fatal("receive queue not emptied")
		}
	})
}

// freeSink is a protocol handler that gives every chain straight back.
type freeSink struct {
	k    *kern.Kernel
	seen int
}

func (s *freeSink) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	s.seen++
	s.k.Pool.Free(m)
}

// TestOutputCopiesOnce pins the transmit path's one copy. The datagram is
// linearized straight into the buffer that goes on the wire: the frame the
// far adapter queues IS the buffer Output checked out (the arena hands its
// buffers out last-returned-first, so the test knows which one that will
// be), the datagram sits at HeaderLen of it, and the whole of it — over a
// buffer that came back full of 0xDB — is byte for byte what Encapsulate
// builds. Then, on a pair with drivers on both ends, a warm send/receive
// round allocates nothing.
func TestOutputCopiesOnce(t *testing.T) {
	env := sim.NewEnv()
	env.Arena().Poison = true
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	ipa := ip.NewStack(ka, 1)
	aa := NewAdapter(ka, addrA)
	ab := NewAdapter(kern.New(env, model, "b"), addrB)
	seg := NewSegment()
	seg.Attach(aa)
	seg.Attach(ab)
	seg.BindIP(2, ab) // unicast: a broadcast reaches a station as a copy
	NewDriver(ka, aa, ipa)

	next := env.Arena().Checkout(frameLen(700))
	mark := &next[:1][0]
	env.Arena().Return(next)

	payload := make([]byte, 700-ip.HeaderLen)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.AllocCluster()
		m.Append(payload)
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	fr, _, ok := ab.PopRx()
	if !ok {
		t.Fatal("no frame arrived")
	}
	if &fr[0] != mark {
		t.Error("the frame on the wire is not the buffer Output checked out")
	}
	dg := fr[HeaderLen : HeaderLen+700]
	if !bytes.Equal(dg[ip.HeaderLen:], payload) {
		t.Error("the datagram is not at HeaderLen of the frame")
	}
	if want := Encapsulate(addrB, addrA, EtherTypeIPv4, dg); !bytes.Equal(fr, want) {
		t.Error("the sealed frame differs from Encapsulate's")
	}
	env.Arena().Return(fr)

	// A full pair, warmed by one round.
	env, ka, kb, ipa, ipb, _, _ := buildPair(t)
	sink := &freeSink{k: kb}
	ipb.Register(99, sink)
	var kick sim.WaitQueue
	kick.Init("test.kick")
	waiting := false
	env.Spawn("tx", sim.While(func() bool { return true }, func(p *sim.Proc) {
		if waiting = !waiting; waiting {
			kick.Wait(p)
			return
		}
		m := ka.Pool.AllocCluster()
		m.Append(payload)
		ipa.Output(p, 2, 99, m)
	}))
	round := func() {
		kick.Wake()
		env.Run()
	}
	env.Run()
	round()
	if avg := testing.AllocsPerRun(50, round); avg != 0 {
		t.Errorf("a warm send/receive round allocates %.2f times", avg)
	}
	if sink.seen != 52 {
		t.Fatalf("%d datagrams delivered, want 52", sink.seen)
	}
	if n := env.Arena().Outstanding(); n != 0 {
		t.Errorf("%d frames still checked out", n)
	}
}

// TestFrameFIFOKeepsNoAlias drives the adapters' queue past its slide
// threshold: frames come out in order with their times, and no slot
// behind or beyond the live window still refers to a popped frame — the
// popped buffer is its new owner's alone to give back.
func TestFrameFIFOKeepsNoAlias(t *testing.T) {
	var q frameFIFO
	next, want := 0, 0
	push := func() {
		q.push(Frame{byte(next), byte(next >> 8)}, sim.Time(next))
		next++
	}
	pop := func() {
		f, at := q.pop()
		if got := int(f[0]) | int(f[1])<<8; got != want || at != sim.Time(want) {
			t.Fatalf("popped frame %d at %v, want %d", got, at, want)
		}
		want++
		live := q.q[q.head:]
		for i, it := range q.q[:cap(q.q)] {
			if inLive := i >= q.head && i < q.head+len(live); !inLive && it.f != nil {
				t.Fatalf("after %d pops slot %d still holds a frame outside the live window", want, i)
			}
		}
	}
	for i := 0; i < 600; i++ { // never empty: two in, one out, then drain
		push()
		push()
		pop()
	}
	for q.len() > 0 {
		pop()
	}
	if want != next || q.head != 0 {
		t.Fatalf("popped %d of %d, head %d", want, next, q.head)
	}
}
