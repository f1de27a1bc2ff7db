package ip

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestDeliveryBuildsTheChain drives Delivery the way a driver's receive
// frame does, at datagram sizes on each side of a normal mbuf's data
// (HeaderLen + MLEN), ClusterThreshold and a page (HeaderLen + MCLBYTES),
// and checks what it hands IP: the chain, its charges, the stashed sums,
// the trace and the counters.
func TestDeliveryBuildsTheChain(t *testing.T) {
	sizes := []int{20, 21, 128, 129, 1024, 1025, 4116, 4117, 8020}
	for _, n := range sizes {
		for _, sum := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("%d/sum=%v/traced=%v", n, sum, traced), func(t *testing.T) {
					checkDelivery(t, n, sum, traced)
				})
			}
		}
	}
}

func checkDelivery(t *testing.T, n int, sum, traced bool) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	s := NewStack(k, 0x0a000002)
	var l Link
	l.Init(k, s, 9188, "txlock")
	var del Delivery
	layer := trace.LayerEtherRx
	if sum {
		layer = trace.LayerATMRx // the one driver that sets Sum
	}
	del.Init(&l, layer)
	if traced {
		k.Trace.EnablePackets()
	}

	dg := make([]byte, n)
	env.RNG().Fill(dg)
	(&Header{TotalLen: n, TTL: 64, Proto: ProtoTCP, Src: 0x0a000001, Dst: 0x0a000002}).Marshal(dg)
	want := append([]byte(nil), dg...)
	const arrived = 3 * sim.Microsecond

	var start, took sim.Time
	var queued *mbuf.Mbuf
	env.Spawn("rx", sim.Steps(
		func(p *sim.Proc) {
			p.PushTag(sim.Tag{1, 2})
			start = env.Now()
			del.DG, del.Start, del.Sum = dg, start, sum
			del.Arrive(p, arrived)
			p.Call(&del)
		},
		func(p *sim.Proc) {
			took = env.Now() - start
			if got := p.Tag(); got != (sim.Tag{1, 2}) {
				t.Errorf("tag after the copy is %v, want the caller's", got)
			}
			p.PopTag()
			if p.Tag() != (sim.Tag{}) {
				t.Error("the copy left a tag behind")
			}
			if l.FramesIn != 1 || s.QueueLen() != 1 {
				t.Errorf("FramesIn %d, queue %d; want 1 and 1", l.FramesIn, s.QueueLen())
			}
			// Take the datagram off the queue for inspection: the netisr,
			// already woken, then finds it empty.
			queued = s.q[0].m
			s.q = s.q[:0]
			if del.DG != nil {
				t.Error("Delivery kept the datagram past the call")
			}
		},
	))
	env.Run()
	if queued == nil {
		t.Fatal("the copy never returned")
	}

	// One 20-byte header mbuf, then payload mbufs of one kind.
	if queued.IsCluster() || queued.Len() != HeaderLen {
		t.Fatalf("header mbuf: cluster %v, %d bytes", queued.IsCluster(), queued.Len())
	}
	cluster := n > mbuf.ClusterThreshold
	charge := k.Cost.MbufAlloc
	var payload int
	for m := queued.Next(); m != nil; m = m.Next() {
		payload++
		if m.IsCluster() != cluster {
			t.Errorf("payload mbuf %d: cluster %v, want %v", payload, m.IsCluster(), cluster)
		}
		if cluster {
			charge += k.Cost.ClusterAlloc
		} else {
			charge += k.Cost.MbufAlloc
		}
		var cs checksum.Partial
		if sum {
			cs.Add(m.Bytes())
		}
		if m.CsumValid != sum || m.Csum != cs {
			t.Errorf("payload mbuf %d: stashed sum %v valid %v, want %v valid %v", payload, m.Csum, m.CsumValid, cs, sum)
		}
	}
	per := mbuf.MLEN
	if cluster {
		per = mbuf.MCLBYTES
	}
	if wantN := (n - HeaderLen + per - 1) / per; payload != wantN {
		t.Errorf("%d payload mbufs, want %d", payload, wantN)
	}
	if got := mbuf.Linearize(queued); !bytes.Equal(got, want) {
		t.Error("the chain's bytes are not the datagram")
	}
	if took != charge {
		t.Errorf("charged %v, want %v", took, charge)
	}

	if !traced {
		if ev := k.Trace.Events(); len(ev) != 0 {
			t.Errorf("untraced delivery recorded %d events", len(ev))
		}
		return
	}
	id := PacketIDOf(want)
	var cpu sim.Time
	var arrive, rx int
	for _, e := range k.Trace.Events() {
		switch e.Kind {
		case trace.EvCPU:
			if e.Layer != layer || e.ID != id {
				t.Errorf("CPU event on %v for %v, want %v for %v", e.Layer, e.ID, layer, id)
			}
			cpu += e.Dur
		case trace.EvWireArrive:
			arrive++
			if e.ID != id || e.At != arrived || e.Len != n {
				t.Errorf("wire arrival %+v", e)
			}
		case trace.EvDriverRx:
			rx++
			if e.ID != id || e.At != start || e.Dur != charge || e.Len != n {
				t.Errorf("driver receive %+v", e)
			}
		}
	}
	if arrive != 1 || rx != 1 || cpu != charge {
		t.Errorf("%d arrivals, %d receives, %v charged in the trace; want 1, 1, %v", arrive, rx, cpu, charge)
	}
}

// TestLinkLockSentAndReset checks the transmit half: a second Output
// parks on the lock until the first unlocks, Sent counts and traces, the
// MTU override only lowers, and Reset clears the trial's state.
func TestLinkLockSentAndReset(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	k.Trace.EnablePackets()
	var l Link
	l.Init(k, NewStack(k, 1), 1500, "txlock")
	var order []string
	output := func(name string, hold sim.Time) sim.Frame {
		locked := false
		return sim.While(func() bool { return !locked }, func(p *sim.Proc) {
			if !l.Lock(p) {
				order = append(order, name+" parked")
				return
			}
			locked = true
			order = append(order, name+" locked")
			p.Call(sim.Steps(
				func(p *sim.Proc) { p.Sleep(hold) },
				func(p *sim.Proc) {
					if !l.Locked() {
						t.Errorf("%s: the lock is not held", name)
					}
					l.Sent(p, 0, env.Now()+1, 100)
					l.Unlock(k.Pool.Alloc())
				},
			))
		})
	}
	env.Spawn("a", output("a", 5*sim.Microsecond))
	env.Spawn("b", sim.Steps(func(p *sim.Proc) { p.Call(output("b", 0)) }))
	env.Run()
	if got := fmt.Sprint(order); got != "[a locked b parked b locked]" {
		t.Errorf("lock order %s", got)
	}
	if l.FramesOut != 2 || l.Locked() || k.Pool.PoolStats.LiveHeaders != 0 {
		t.Errorf("FramesOut %d, locked %v, %d mbufs out", l.FramesOut, l.Locked(), k.Pool.PoolStats.LiveHeaders)
	}
	var tx, depart int
	for _, e := range k.Trace.Events() {
		switch e.Kind {
		case trace.EvDriverTx:
			tx++
		case trace.EvWireDepart:
			depart++
		}
	}
	if tx != 2 || depart != 2 {
		t.Errorf("%d driver-transmit and %d wire-departure events, want 2 and 2", tx, depart)
	}
	for _, c := range []struct{ override, want int }{{0, 1500}, {576, 576}, {1500, 1500}, {9000, 1500}} {
		l.MTUOverride = c.override
		if got := l.MTU(); got != c.want {
			t.Errorf("MTU with override %d = %d, want %d", c.override, got, c.want)
		}
	}
	l.FramesIn, l.NoRoute = 3, 4
	l.Reset()
	if l != (Link{K: l.K, IP: l.IP, max: l.max, txWait: l.txWait}) {
		t.Errorf("Reset left %+v", l)
	}
}
