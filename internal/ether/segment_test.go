package ether

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
)

// stations is n hosts on one shared segment with IP bindings, each with a
// protocol-99 sink.
type stations struct {
	env      *sim.Env
	seg      *Segment
	kerns    []*kern.Kernel
	ips      []*ip.Stack
	adapters []*Adapter
	drivers  []*Driver
	sinks    []*sink
}

func buildStations(t *testing.T, env *sim.Env, n int) *stations {
	t.Helper()
	model := cost.DECstation5000()
	s := &stations{env: env, seg: NewSegment()}
	for i := 0; i < n; i++ {
		k := kern.New(env, model, fmt.Sprintf("h%d", i))
		ipStack := ip.NewStack(k, uint32(i+1))
		a := NewAdapter(k, [6]byte{2, 0, 0, 0, 0, byte(i + 1)})
		s.seg.Attach(a)
		s.seg.BindIP(uint32(i+1), a)
		sk := &sink{}
		ipStack.Register(99, sk)
		s.kerns, s.ips, s.adapters = append(s.kerns, k), append(s.ips, ipStack), append(s.adapters, a)
		s.drivers, s.sinks = append(s.drivers, NewDriver(k, a, ipStack)), append(s.sinks, sk)
	}
	return s
}

// buildSegment is buildStations unpacked.
func buildSegment(t *testing.T, env *sim.Env, n int) (*Segment, []*kern.Kernel, []*ip.Stack, []*Adapter, []*sink) {
	t.Helper()
	s := buildStations(t, env, n)
	return s.seg, s.kerns, s.ips, s.adapters, s.sinks
}

// onWire returns f as the wire carries frames: a copy checked out of the
// loop's arena, which Transmit and receive take ownership of.
func onWire(env *sim.Env, f Frame) Frame {
	return append(env.Arena().Checkout(len(f)), f...)
}

func TestSegmentUnicastOnlyAddressedStation(t *testing.T) {
	env := sim.NewEnv()
	_, kerns, ips, adapters, sinks := buildSegment(t, env, 3)
	payload := make([]byte, 600)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.AllocCluster()
		m.Append(payload)
		ips[0].Output(p, 3, 99, m) // host 0 -> host 2
	}))
	env.Run()
	if len(sinks[2].got) != 1 || !bytes.Equal(sinks[2].got[0], payload) {
		t.Fatal("addressed station did not receive the frame intact")
	}
	if len(sinks[1].got) != 0 || adapters[1].FramesRecv != 0 {
		t.Fatal("unaddressed station received a unicast frame")
	}
}

func TestSegmentBroadcastReachesAllStations(t *testing.T) {
	env := sim.NewEnv()
	_, _, _, adapters, _ := buildSegment(t, env, 4)
	f := Encapsulate(Broadcast, adapters[0].Addr, EtherTypeIPv4, make([]byte, 100))
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { adapters[0].Transmit(onWire(env, f)) }))
	env.Run()
	for i, a := range adapters[1:] {
		if a.FramesRecv != 1 {
			t.Fatalf("station %d received %d broadcast frames, want 1", i+1, a.FramesRecv)
		}
	}
	if adapters[0].FramesRecv != 0 {
		t.Fatal("sender received its own broadcast")
	}
}

func TestSegmentUnknownUnicastDropped(t *testing.T) {
	env := sim.NewEnv()
	seg, _, _, adapters, _ := buildSegment(t, env, 2)
	ghost := [6]byte{2, 0, 0, 0, 0, 0x7f}
	f := Encapsulate(ghost, adapters[0].Addr, EtherTypeIPv4, make([]byte, 80))
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { adapters[0].Transmit(onWire(env, f)) }))
	env.Run()
	if adapters[1].FramesRecv != 0 {
		t.Fatal("frame for an unknown MAC was delivered")
	}
	if seg.UnknownUnicasts != 1 {
		t.Fatalf("UnknownUnicasts = %d, want 1", seg.UnknownUnicasts)
	}
}

func TestSegmentUnboundIPDroppedNotFlooded(t *testing.T) {
	// With ARP bindings installed, a datagram to an IP that resolves to
	// no station is a configuration error: dropped and counted at the
	// driver, never flooded into the other hosts' stacks.
	env := sim.NewEnv()
	_, kerns, ips, adapters, sinks := buildSegment(t, env, 3)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.Alloc()
		m.Append(make([]byte, 40))
		ips[0].Output(p, 0x7f, 99, m) // nobody answers for this address
	}))
	env.Run()
	for i, s := range sinks {
		if len(s.got) != 0 {
			t.Fatalf("host %d received a datagram for an unbound IP", i)
		}
	}
	if adapters[0].FramesSent != 0 {
		t.Fatal("unroutable datagram was transmitted")
	}
}

func TestSegmentAdapterFiltersMisdelivery(t *testing.T) {
	// The adapter's own address filter: a frame for someone else pushed
	// directly into a station is counted and dropped.
	env := sim.NewEnv()
	_, _, _, adapters, _ := buildSegment(t, env, 2)
	f := Encapsulate(adapters[0].Addr, adapters[0].Addr, EtherTypeIPv4, make([]byte, 80))
	adapters[1].receive(onWire(env, f))
	if adapters[1].Filtered != 1 || adapters[1].FramesRecv != 0 {
		t.Fatalf("filter missed: Filtered=%d FramesRecv=%d",
			adapters[1].Filtered, adapters[1].FramesRecv)
	}
}

func TestSegmentDuplicateMACPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate station address accepted")
		}
	}()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	k := kern.New(env, model, "k")
	seg := NewSegment()
	seg.Attach(NewAdapter(k, addrA))
	seg.Attach(NewAdapter(k, addrA))
}

func TestSegmentThreeHostDeterminism(t *testing.T) {
	// Three stations exchanging random payloads on the shared segment
	// must produce identical payloads and an identical final clock for a
	// fixed seed. CI runs this under the race detector.
	run := func() (sim.Time, [][]byte) {
		env := sim.NewEnv()
		env.Seed(13)
		_, kerns, ips, _, sinks := buildSegment(t, env, 3)
		for i := 0; i < 3; i++ {
			i := i
			env.Spawn(fmt.Sprintf("tx%d", i), sim.LoopN(4, func(p *sim.Proc, k int) {
				payload := make([]byte, 100+env.RNG().Intn(1200))
				env.RNG().Fill(payload)
				m := kerns[i].Pool.AllocCluster()
				m.Append(payload)
				ips[i].Output(p, uint32((i+1)%3+1), 99, m)
			}))
		}
		env.Run()
		var got [][]byte
		for _, s := range sinks {
			got = append(got, s.got...)
		}
		return env.Now(), got
	}
	end1, got1 := run()
	end2, got2 := run()
	if end1 != end2 {
		t.Fatalf("final clocks differ: %v vs %v", end1, end2)
	}
	if len(got1) != len(got2) || len(got1) != 3*4 {
		t.Fatalf("delivery counts differ or short: %d vs %d", len(got1), len(got2))
	}
	for i := range got1 {
		if !bytes.Equal(got1[i], got2[i]) {
			t.Fatalf("delivery %d differs between runs", i)
		}
	}
}
