package ip

import (
	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// NetIf is a network interface as IP sees it: something that can transmit
// a complete IP datagram. The ATM and Ethernet drivers implement it.
type NetIf interface {
	// Output transmits the datagram in process context, charging its own
	// driver costs. The chain includes the IP header. It is a frame call:
	// it may push a frame onto p, so it must be the caller's last action
	// before its Step returns.
	Output(p *sim.Proc, m *mbuf.Mbuf)
	// MTU returns the maximum datagram size the interface accepts.
	MTU() int
	// Name identifies the interface in diagnostics.
	Name() string
}

// Link is the link-independent half of a network driver, what a 4.4BSD
// driver keeps in its struct ifnet and its splimp section: the interface
// counters, the MTU IP sees, the transmit lock, and the output trace.
// Both drivers embed it by value, so its exported fields read as theirs;
// each keeps only its link's own work — ATM its segmentation and
// reassembly, Ethernet its framing and address resolution. Its receive
// half, the copy into mbufs and the hand-off to IP, is Delivery.
type Link struct {
	K  *kern.Kernel
	IP *Stack

	// MTUOverride, when positive, lowers the MTU the driver advertises to
	// IP below the link's maximum. TCP derives its MSS from it, so it is
	// the knob for sweeping segment size.
	MTUOverride int

	// FramesIn and FramesOut count datagrams handed to IP and sent.
	FramesIn  int64
	FramesOut int64
	// NoRoute counts datagrams dropped because their IP destination is no
	// other host on the link.
	NoRoute int64

	// max is the link's largest datagram. busy serializes Output, as
	// splimp does around the real driver: CPU charges yield to the event
	// loop, so without the lock a user send and a protocol-timer send
	// could interleave their frames. Outputs that find it held park on
	// txWait.
	max    int
	busy   bool
	txWait sim.WaitQueue
}

// Init readies the link of a driver whose largest datagram is mtu; lock
// names the transmit lock's wait queue in diagnostics.
func (l *Link) Init(k *kern.Kernel, s *Stack, mtu int, lock string) {
	l.K, l.IP, l.max = k, s, mtu
	l.txWait.Init(lock)
}

// Reset returns the link to its just-constructed state for testbed
// reuse: the transmit lock clears, the MTU override returns to its
// default for the lab to re-apply, and the counters zero.
func (l *Link) Reset() {
	l.MTUOverride = 0
	l.busy = false
	l.FramesIn, l.FramesOut, l.NoRoute = 0, 0, 0
}

// MTU implements NetIf: the link's maximum, or the override below it.
func (l *Link) MTU() int {
	if l.MTUOverride > 0 && l.MTUOverride < l.max {
		return l.MTUOverride
	}
	return l.max
}

// Lock takes the transmit lock for an Output running on p. When another
// Output holds it, Lock parks p on the lock and returns false: the caller
// must return from Step and call Lock again when it resumes.
func (l *Link) Lock(p *sim.Proc) bool {
	if l.busy {
		l.txWait.Wait(p)
		return false
	}
	l.busy = true
	return true
}

// Locked reports whether an Output holds the transmit lock.
func (l *Link) Locked() bool { return l.busy }

// ChargeFree charges p m_freem's cost for the chain m, on the mbuf row,
// and reports whether the charge completed without parking.
func (l *Link) ChargeFree(p *sim.Proc, m *mbuf.Mbuf) bool {
	c := l.K.FreeChainCost(m)
	return c == 0 || l.K.Use(p, trace.LayerMbuf, c)
}

// Unlock frees the transmitted chain m, if not nil, and releases the
// transmit lock, waking every Output waiting for it.
func (l *Link) Unlock(m *mbuf.Mbuf) {
	if m != nil {
		l.K.Pool.Free(m)
	}
	l.busy = false
	l.txWait.WakeAll()
}

// Sent counts a transmitted datagram of n bytes and, when packets are
// traced, records its driver span, from start to now, and the instant its
// last bit leaves on the wire, depart.
func (l *Link) Sent(p *sim.Proc, start, depart sim.Time, n int) {
	l.FramesOut++
	if k := l.K; k.Trace.PacketsEnabled() {
		id := k.PacketContext(p)
		k.Trace.Event(trace.Event{Kind: trace.EvDriverTx, At: start, Dur: k.Now() - start, ID: id, Len: n})
		k.Trace.Event(trace.Event{Kind: trace.EvWireDepart, At: depart, ID: id, Len: n})
	}
}

// Delivery is a driver's m_devget and IF_ENQUEUE: the sub-frame of its
// receive process that copies one received datagram into an mbuf chain
// and queues it for IP. The chain is the IP header in a normal mbuf of
// its own, then the payload in normal mbufs, or in clusters when the
// datagram exceeds mbuf.ClusterThreshold, so that stripping the header
// cannot invalidate partial checksums stashed for the payload. Each mbuf
// is charged as it is allocated, on the driver's receive row.
//
// A driver sets DG and Start, calls Arrive, does any work of its own the
// packet's charges must carry, then runs the copy with p.Call. DG is not
// kept past the call: the driver may give its buffer back on return.
type Delivery struct {
	l *Link
	// DG is the datagram being delivered, and Start the start of its
	// driver-receive span in the packet trace.
	DG    []byte
	Start sim.Time

	layer       trace.Layer
	rest        []byte
	chain, tail *mbuf.Mbuf
	id          trace.PacketID
	// Sum stashes each payload mbuf's partial TCP checksum for tcp_input
	// to fold: a driver whose device-to-kernel copy computes the sum as a
	// side effect sets it (§4.1.1's integrated receive). The flags and pc
	// share the word behind id, which keeps the ATM link block in its
	// size class (lab's TestHostBlockSizeClasses).
	Sum    bool
	tagged bool
	pc     uint8
}

// Init binds the delivery to its driver's link; layer is the receive row
// its charges land on.
func (d *Delivery) Init(l *Link, layer trace.Layer) {
	d.l, d.layer = l, layer
}

// Arrive starts DG's delivery. When packets are traced it takes the
// datagram's on-wire identity, tags p with it until the copy finishes,
// and records the arrival of its last bit at arrived. It must precede any
// charge the packet carries, and a host-side corruption of DG.
// (Untraced runs skip the tag: it boxes the identity, one allocation a
// datagram on the hot path.)
func (d *Delivery) Arrive(p *sim.Proc, arrived sim.Time) {
	d.pc, d.id, d.tagged = 0, trace.PacketID{}, false
	k := d.l.K
	if !k.Trace.PacketsEnabled() {
		return
	}
	d.id = PacketIDOf(d.DG)
	p.PushTag(d.id.Tag())
	d.tagged = true
	k.Trace.Event(trace.Event{Kind: trace.EvWireArrive, At: arrived, ID: d.id, Len: len(d.DG)})
}

// Step runs the copy: the header mbuf, each payload mbuf, then the count,
// the driver-receive span and the enqueue.
func (d *Delivery) Step(p *sim.Proc) {
	k := d.l.K
	for {
		switch d.pc {
		case 0: // charge the IP-header mbuf
			d.pc = 1
			if !k.Use(p, d.layer, k.Cost.MbufAlloc) {
				return
			}
		case 1: // build the header mbuf
			hm := k.Pool.Alloc()
			hm.Append(d.DG[:HeaderLen])
			d.rest = d.DG[HeaderLen:]
			d.chain, d.tail = hm, hm
			d.pc = 2
		case 2: // charge the next payload mbuf, or finish
			if len(d.rest) == 0 {
				d.pc = 4
				continue
			}
			c := k.Cost.MbufAlloc
			if len(d.DG) > mbuf.ClusterThreshold {
				c = k.Cost.ClusterAlloc
			}
			d.pc = 3
			if !k.Use(p, d.layer, c) {
				return
			}
		case 3: // fill it
			var m *mbuf.Mbuf
			if len(d.DG) > mbuf.ClusterThreshold {
				m = k.Pool.AllocCluster()
			} else {
				m = k.Pool.Alloc()
			}
			n := m.Append(d.rest)
			if d.Sum {
				var cs checksum.Partial
				cs.Add(d.rest[:n])
				m.Csum, m.CsumValid = cs, true
			}
			d.rest = d.rest[n:]
			d.tail.SetNext(m)
			d.tail = m
			d.pc = 2
		case 4: // count, trace and enqueue the datagram
			d.l.FramesIn++
			k.Trace.Event(trace.Event{
				Kind: trace.EvDriverRx, At: d.Start, Dur: k.Now() - d.Start,
				ID: d.id, Len: len(d.DG),
			})
			d.l.IP.Enqueue(d.chain)
			if d.tagged {
				p.PopTag()
				d.tagged = false
			}
			d.DG, d.rest, d.chain, d.tail = nil, nil, nil, nil
			p.Return()
			return
		}
	}
}
