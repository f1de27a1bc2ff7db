// Package ether implements the Ethernet substrate used as the paper's
// comparison link (Table 1): frame encapsulation with a real FCS, a
// LANCE-style adapter model pacing a 10 Mb/s wire, a shared Segment (a
// broadcast domain any number of stations attach to, with destination-MAC
// filtering), and a driver implementing ip.NetIf.
//
// The model captures the two properties Table 1 turns on: a much larger
// fixed per-packet driver/adapter cost than the TCA-100, and a wire an
// order of magnitude slower, so that small-transfer latency is dominated
// by the driver gap and large-transfer latency by bandwidth.
package ether

import (
	"fmt"
	"hash/crc32"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

const (
	// HeaderLen is destination + source + type.
	HeaderLen = 14
	// FCSLen is the frame check sequence.
	FCSLen = 4
	// MTU is the Ethernet payload limit; the paper's 1400-byte transfer
	// size is "the Ethernet MTU minus protocol headers".
	MTU = 1500
	// MinPayload pads short frames to the 64-byte minimum.
	MinPayload = 46
	// PreambleBytes precede every frame on the wire.
	PreambleBytes = 8
	// EtherTypeIPv4 is the type field for IP datagrams.
	EtherTypeIPv4 = 0x0800
)

// fcs is a real CRC-32 (IEEE polynomial) over the frame. The standard
// library's table/SIMD implementation computes the same function as the
// reflected bitwise loop this replaced (fcsBitwise, kept as the test
// reference); frames carry identical FCS bytes either way.
func fcs(b []byte) uint32 {
	return crc32.ChecksumIEEE(b)
}

// fcsBitwise is the reference CRC-32: IEEE polynomial 0xedb88320,
// reflected, one bit at a time.
func fcsBitwise(b []byte) uint32 {
	crc := ^uint32(0)
	for _, v := range b {
		crc ^= uint32(v)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xedb88320
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

// Frame is a raw Ethernet frame (header + payload + FCS).
type Frame []byte

// Encapsulate builds a frame around payload, padding to the minimum size
// and appending a real FCS.
func Encapsulate(dst, src [6]byte, etherType uint16, payload []byte) Frame {
	n := len(payload)
	if n < MinPayload {
		n = MinPayload
	}
	f := make([]byte, HeaderLen+n+FCSLen)
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12] = byte(etherType >> 8)
	f[13] = byte(etherType)
	copy(f[HeaderLen:], payload)
	c := fcs(f[:HeaderLen+n])
	f[HeaderLen+n] = byte(c >> 24)
	f[HeaderLen+n+1] = byte(c >> 16)
	f[HeaderLen+n+2] = byte(c >> 8)
	f[HeaderLen+n+3] = byte(c)
	return f
}

// Decapsulate verifies the FCS and returns the payload (possibly padded)
// and type. ok is false for a corrupt or short frame.
func Decapsulate(f Frame) (payload []byte, etherType uint16, ok bool) {
	if len(f) < HeaderLen+MinPayload+FCSLen {
		return nil, 0, false
	}
	body := f[:len(f)-FCSLen]
	tail := f[len(f)-FCSLen:]
	want := uint32(tail[0])<<24 | uint32(tail[1])<<16 | uint32(tail[2])<<8 | uint32(tail[3])
	if fcs(body) != want {
		return nil, 0, false
	}
	etherType = uint16(f[12])<<8 | uint16(f[13])
	return f[HeaderLen : len(f)-FCSLen], etherType, true
}

// Broadcast is the all-stations destination address. Frames addressed to
// it are delivered to every station on the segment except the sender.
var Broadcast = [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// Segment is a shared broadcast domain: any number of stations attach,
// and delivery filters on the destination MAC. Each station's transmitter
// paces its own frames (the model behaves like a full-duplex, non-
// colliding segment, which is also what the two-station private wire of
// the paper's lab was in practice). The segment also keeps the IP-to-MAC
// bindings the drivers resolve destinations through — the static ARP
// table of a closed testbed.
type Segment struct {
	stations []*Adapter
	byMAC    map[[6]byte]*Adapter
	byIP     map[uint32][6]byte

	// UnknownUnicasts counts frames whose destination MAC matched no
	// attached station; they are dropped, as a learning switch would
	// eventually do.
	UnknownUnicasts int64
}

// NewSegment returns an empty broadcast domain.
func NewSegment() *Segment {
	return &Segment{
		byMAC: make(map[[6]byte]*Adapter),
		byIP:  make(map[uint32][6]byte),
	}
}

// Reset clears the segment's counters for testbed reuse. The stations
// and IP bindings survive — they are the topology.
func (s *Segment) Reset() {
	s.UnknownUnicasts = 0
}

// Attach joins a station to the segment. Attaching two stations with the
// same MAC panics: delivery would be ambiguous.
func (s *Segment) Attach(a *Adapter) {
	if _, dup := s.byMAC[a.Addr]; dup {
		panic(fmt.Sprintf("ether: duplicate station address %x", a.Addr))
	}
	a.seg = s
	s.stations = append(s.stations, a)
	s.byMAC[a.Addr] = a
}

// BindIP records the station answering for an IP address, the segment's
// static ARP entry. Drivers use it to resolve the destination MAC for an
// outbound datagram.
func (s *Segment) BindIP(addr uint32, a *Adapter) { s.byIP[addr] = a.Addr }

// MACForIP resolves an IP address to the bound station MAC.
func (s *Segment) MACForIP(addr uint32) ([6]byte, bool) {
	mac, ok := s.byIP[addr]
	return mac, ok
}

// NumBindings returns the number of IP-to-MAC bindings installed.
func (s *Segment) NumBindings() int { return len(s.byIP) }

// NumStations returns the number of attached stations.
func (s *Segment) NumStations() int { return len(s.stations) }

// deliver routes one frame after its wire time: to the addressed station
// for unicast, to every other station for broadcast. Stations are walked
// in attach order, which keeps multi-station runs deterministic.
func (s *Segment) deliver(src *Adapter, f Frame) {
	var dst [6]byte
	copy(dst[:], f[0:6])
	if dst == Broadcast {
		for _, st := range s.stations {
			if st != src {
				st.receive(f)
			}
		}
		return
	}
	st, ok := s.byMAC[dst]
	if !ok || st == src {
		s.UnknownUnicasts++
		return
	}
	st.receive(f)
}

// Adapter models a LANCE on a 10 Mb/s segment: a transmit queue paced by
// the wire (with preamble and inter-frame gap) and enough receive
// buffering that frames are not dropped at the rates the experiments
// generate. It interrupts per received frame.
type Adapter struct {
	K    *kern.Kernel
	Addr [6]byte
	seg  *Segment

	wireBusy sim.Time
	rxQ      []rxItem
	// RxReady is the per-frame receive interrupt.
	RxReady sim.WaitQueue

	// flight[flightHead:] holds the frames Transmit has committed, oldest
	// first, until each reaches the segment: that arrival, on inLane, is a
	// frame's one wire event (Transmit knows when its last bit leaves).
	flight     []Frame
	flightHead int
	inLane     sim.Lane

	FramesSent int64
	FramesRecv int64
	// Filtered counts frames dropped by destination-address filtering.
	Filtered int64
	// LossRate drops frames on the wire for fault injection.
	LossRate float64
	// ge is the Gilbert–Elliott burst-loss chain (SetImpairments) —
	// the frame-level analogue of the ATM adapter's cell impairments,
	// drawing from a per-link RNG rather than the environment's stream.
	ge sim.GEChain
	// GEDrops counts frames the chain killed.
	GEDrops int64
	// down marks the station's drop cable failed (fault injection):
	// frames neither leave nor arrive until recovery. The disarmed cost
	// is one boolean test per frame on each path.
	down bool
	// DownDrops counts frames the down-state discarded (both directions).
	DownDrops int64
}

// SetImpairments configures the Gilbert–Elliott burst-loss chain on this
// adapter's receive side, seeded per link. A zero GEParams disables it,
// leaving the receive path byte-identical to an unimpaired adapter.
func (a *Adapter) SetImpairments(p sim.GEParams, seed uint64) {
	a.ge.Init(p, seed)
}

// NewAdapter returns an adapter with the given station address.
func NewAdapter(k *kern.Kernel, addr [6]byte) *Adapter {
	a := &Adapter{K: k, Addr: addr}
	a.RxReady.Init("le.rx")
	a.inLane.Bind(a.frameIn)
	return a
}

// Reset returns the adapter to its just-constructed state for testbed
// reuse: the transmitter idle at time zero, queues emptied with their
// frame references released (frames are heap slices, unlike ATM's value
// cells), fault injection off, counters cleared. The RxReady wait queue
// survives with the driver's service process parked on it.
func (a *Adapter) Reset() {
	a.wireBusy = 0
	for i := range a.rxQ {
		a.rxQ[i] = rxItem{}
	}
	a.rxQ = a.rxQ[:0]
	clear(a.flight)
	a.flight, a.flightHead = a.flight[:0], 0
	a.LossRate = 0
	a.ge = sim.GEChain{}
	a.down = false
	a.FramesSent, a.FramesRecv, a.Filtered, a.GEDrops, a.DownDrops = 0, 0, 0, 0, 0
}

// SetDown flips the station's fault state: while down, frames the
// station transmits die on its drop cable and frames addressed to it are
// discarded on arrival.
func (a *Adapter) SetDown(down bool) { a.down = down }

// Down reports the station's fault state.
func (a *Adapter) Down() bool { return a.down }

// frameIn fires when a frame reaches the far end: hand it to the
// segment for destination filtering and delivery. A down station's
// frames die here — the pacing machinery (and so every wire timestamp)
// is untouched, only the delivery leg is lost.
func (a *Adapter) frameIn() {
	f := a.flight[a.flightHead]
	a.flight[a.flightHead] = nil // do not retain the frame
	a.flightHead++
	switch {
	case a.flightHead == len(a.flight):
		a.flight, a.flightHead = a.flight[:0], 0
	case a.flightHead >= 128 && a.flightHead*2 >= len(a.flight):
		n := copy(a.flight, a.flight[a.flightHead:])
		clear(a.flight[n:])
		a.flight, a.flightHead = a.flight[:n], 0
	}
	if a.down {
		a.DownDrops++
		return
	}
	a.seg.deliver(a, f)
}

// Segment returns the broadcast domain the adapter is attached to, or nil.
func (a *Adapter) Segment() *Segment { return a.seg }

// Connect joins two adapters into a private two-station segment — the
// paper's lab configuration, kept as a thin constructor over Segment.
func Connect(a, b *Adapter) {
	s := NewSegment()
	s.Attach(a)
	s.Attach(b)
}

// rxItem is one received frame with its wire-arrival time.
type rxItem struct {
	f  Frame
	at sim.Time
}

// Transmit paces the frame onto the wire and hands it to the segment for
// destination filtering and delivery. It returns the time the frame's
// last bit leaves the wire — the packet trace's wire-departure instant.
func (a *Adapter) Transmit(f Frame) sim.Time {
	env := a.K.Env
	start := env.Now()
	if a.wireBusy > start {
		start = a.wireBusy
	}
	onWire := cost.WireTime(len(f)+PreambleBytes, a.K.Cost.EtherLinkBitsPS)
	end := start + onWire
	a.wireBusy = end + a.K.Cost.EtherIFG
	a.FramesSent++
	a.flight = append(a.flight, f)
	a.inLane.At(env, end+a.K.Cost.EtherPropagation, "ether.framein")
	return end
}

// receive handles a frame arriving from the wire. The station filter
// (own address or broadcast) mirrors the LANCE's hardware address match;
// the segment normally routes frames so the filter only fires on
// misdelivery.
func (a *Adapter) receive(f Frame) {
	if a.down {
		a.DownDrops++
		return
	}
	if len(f) >= 6 {
		var dst [6]byte
		copy(dst[:], f[0:6])
		if dst != a.Addr && dst != Broadcast {
			a.Filtered++
			return
		}
	}
	if a.ge.Enabled() && a.ge.Drop() {
		a.GEDrops++
		return
	}
	if a.LossRate > 0 && a.K.Env.RNG().Bool(a.LossRate) {
		return
	}
	a.FramesRecv++
	a.rxQ = append(a.rxQ, rxItem{f: f, at: a.K.Env.Now()})
	a.K.Trace.Mark(trace.MarkFrameArrival, a.K.Env.Now())
	a.RxReady.Wake()
}

// RxAvail returns the number of received frames waiting.
func (a *Adapter) RxAvail() int { return len(a.rxQ) }

// PopRx removes and returns the oldest waiting frame along with its
// wire-arrival time.
func (a *Adapter) PopRx() (Frame, sim.Time, bool) {
	if len(a.rxQ) == 0 {
		return nil, 0, false
	}
	it := a.rxQ[0]
	copy(a.rxQ, a.rxQ[1:])
	a.rxQ = a.rxQ[:len(a.rxQ)-1]
	return it.f, it.at, true
}

// Driver is the Ethernet network driver (ip.NetIf plus the receive
// interrupt service process).
type Driver struct {
	K       *kern.Kernel
	Adapter *Adapter
	IP      *ip.Stack

	// MTUOverride, when positive, lowers the MTU the driver advertises
	// to IP below the Ethernet payload limit.
	MTUOverride int

	// txBusy serializes Output (the splimp-protected driver section).
	txBusy bool
	txWait sim.WaitQueue

	// lin is the transmit path's linearization scratch, reused across
	// Output calls under the txBusy serialization.
	lin []byte

	// outOp caches the transmit frame; txBusy serializes Output, so one
	// cached frame covers the steady state.
	outOp *outputOp

	FramesIn  int64
	FramesOut int64
	FCSErrors int64
	// NoRoute counts datagrams dropped because their IP destination
	// resolved to no station on a segment with ARP bindings.
	NoRoute int64
}

// NewDriver wires a driver to its adapter and IP stack and starts the
// receive service process.
func NewDriver(k *kern.Kernel, a *Adapter, ipStack *ip.Stack) *Driver {
	d := &Driver{K: k, Adapter: a, IP: ipStack}
	d.txWait.Init("le.txlock")
	ipStack.Attach(d)
	k.Env.Spawn("", &rxprocFrame{d: d})
	return d
}

// Reset returns the driver to its just-constructed state for testbed
// reuse: the transmit lock clears, the MTU override returns to default
// for the lab to re-apply, and counters zero. The linearization scratch
// is retained; the receive service process stays parked on RxReady.
func (d *Driver) Reset() {
	d.MTUOverride = 0
	d.txBusy = false
	d.FramesIn, d.FramesOut, d.FCSErrors, d.NoRoute = 0, 0, 0, 0
}

// Name implements ip.NetIf.
func (d *Driver) Name() string { return d.K.Name() + ".le0" }

// MTU implements ip.NetIf.
func (d *Driver) MTU() int {
	if d.MTUOverride > 0 && d.MTUOverride < MTU {
		return d.MTUOverride
	}
	return MTU
}

// Output implements ip.NetIf: encapsulate and hand to the adapter,
// charging the driver's per-frame output cost (the LANCE copy is part of
// the per-byte term). The destination MAC comes from the segment's ARP
// table, keyed by the datagram's IP destination. On a segment with no
// bindings at all (raw Connect pairs assembled without a topology
// builder) frames are flooded as broadcast, the old pairwise delivery;
// once bindings exist, a destination that resolves to none of them is a
// configuration error and the datagram is dropped and counted rather
// than flooded into every other host's stack.
func (d *Driver) Output(p *sim.Proc, m *mbuf.Mbuf) {
	f := d.outOp
	if f != nil {
		d.outOp = nil
	} else {
		f = &outputOp{d: d}
	}
	f.pc = 0
	f.m = m
	p.Call(f)
}

// outputOp is the frame behind Driver.Output: the transmit-lock wait, the
// linearize-and-charge step, the adapter hand-off, and the chain release.
type outputOp struct {
	d  *Driver
	pc int

	m       *mbuf.Mbuf
	txStart sim.Time
}

// Step drives the transmit state machine.
func (f *outputOp) Step(p *sim.Proc) {
	d := f.d
	k := d.K
	for {
		switch f.pc {
		case 0: // acquire the lock, linearize, charge the per-frame cost
			if d.txBusy {
				d.txWait.Wait(p)
				return
			}
			d.txBusy = true
			f.txStart = k.Now()
			data := mbuf.LinearizeInto(d.lin[:0], f.m)
			d.lin = data
			f.pc = 1
			if !k.Use(p, trace.LayerEtherTx, k.Cost.EtherTx.Cost(len(data))) {
				return
			}
		case 1: // hand to the adapter, then charge the chain free
			data := d.lin
			if dst, ok := d.resolve(data); ok {
				fr := Encapsulate(dst, d.Adapter.Addr, EtherTypeIPv4, data)
				wireEnd := d.Adapter.Transmit(fr)
				if k.Trace.PacketRecording() {
					id := k.PacketContext(p)
					k.Trace.Event(trace.Event{
						Kind: trace.EvDriverTx, At: f.txStart, Dur: k.Now() - f.txStart,
						ID: id, Len: len(data),
					})
					k.Trace.Event(trace.Event{
						Kind: trace.EvWireDepart, At: wireEnd, ID: id, Len: len(data),
					})
				}
				d.FramesOut++
			} else {
				d.NoRoute++
			}
			f.pc = 2
			if c := k.FreeChainCost(f.m); c > 0 {
				if !k.Use(p, trace.LayerMbuf, c) {
					return
				}
			}
		case 2: // release the chain and the lock
			if f.m != nil {
				k.Pool.Free(f.m)
				f.m = nil
			}
			d.txBusy = false
			d.txWait.WakeAll()
			if d.outOp == nil {
				d.outOp = f
			}
			p.Return()
			return
		}
	}
}

// resolve maps the datagram's IP destination to a station MAC.
func (d *Driver) resolve(dg []byte) ([6]byte, bool) {
	seg := d.Adapter.seg
	if seg == nil {
		return Broadcast, true
	}
	if mac, ok := seg.MACForIP(ip.Dst(dg)); ok {
		return mac, true
	}
	if seg.NumBindings() == 0 {
		return Broadcast, true
	}
	return [6]byte{}, false
}

// rxprocFrame is the receive interrupt service process: it drains
// received frames, validates the FCS, and — via its inlined deliver
// states — builds the mbuf chain (IP header mbuf + payload mbufs) and
// enqueues it for IP. IP trims Ethernet minimum-frame padding via the
// header's total length.
type rxprocFrame struct {
	d  *Driver
	pc int

	rxStart   sim.Time
	arrivedAt sim.Time
	dg        []byte
	etherType uint16
	ok        bool

	pktID       trace.PacketID
	tagged      bool
	rest        []byte
	chain, tail *mbuf.Mbuf
}

// Name implements sim.Namer: the process is named when something asks.
func (f *rxprocFrame) Name() string { return f.d.K.Name() + ".leintr" }

// Step drives the receive service loop.
func (f *rxprocFrame) Step(p *sim.Proc) {
	d := f.d
	k := d.K
	for {
		switch f.pc {
		case 0: // wait for a frame, pop it, charge the receive cost
			if d.Adapter.RxAvail() == 0 {
				d.Adapter.RxReady.Wait(p)
				return
			}
			f.rxStart = k.Now()
			fr, arrivedAt, _ := d.Adapter.PopRx()
			f.arrivedAt = arrivedAt
			f.dg, f.etherType, f.ok = Decapsulate(fr)
			f.pc = 1
			if !k.Use(p, trace.LayerEtherRx, k.Cost.EtherRx.Cost(len(f.dg))) {
				return
			}
		case 1: // validate; stamp the on-wire identity; charge header mbuf
			if !f.ok || f.etherType != EtherTypeIPv4 || len(f.dg) < ip.HeaderLen {
				d.FCSErrors++
				f.dg = nil
				f.pc = 0
				continue
			}
			// Untraced runs skip the tag push: it boxes the identity —
			// one heap allocation per frame on the hot path — and exists
			// only so trace events attribute to this packet.
			f.pktID, f.tagged = trace.PacketID{}, false
			if k.Trace.PacketsEnabled() {
				f.pktID = ip.PacketIDOf(f.dg)
				p.PushTag(f.pktID)
				f.tagged = true
				k.Trace.Event(trace.Event{
					Kind: trace.EvWireArrive, At: f.arrivedAt, ID: f.pktID, Len: len(f.dg),
				})
			}
			f.pc = 2
			if !k.Use(p, trace.LayerEtherRx, k.Cost.MbufAlloc) {
				return
			}
		case 2: // build the header mbuf; charge the first payload mbuf
			hm := k.Pool.Alloc()
			hm.Append(f.dg[:ip.HeaderLen])
			f.rest = f.dg[ip.HeaderLen:]
			f.chain, f.tail = hm, hm
			if len(f.rest) > 0 {
				f.pc = 3
				if !k.Use(p, trace.LayerEtherRx, f.payloadAllocCost()) {
					return
				}
			} else {
				f.pc = 4
			}
		case 3: // fill one payload mbuf; charge the next or finish
			var m *mbuf.Mbuf
			if len(f.dg) > mbuf.ClusterThreshold {
				m = k.Pool.AllocCluster()
			} else {
				m = k.Pool.Alloc()
			}
			n := m.Append(f.rest)
			f.rest = f.rest[n:]
			f.tail.SetNext(m)
			f.tail = m
			if len(f.rest) > 0 {
				f.pc = 3
				if !k.Use(p, trace.LayerEtherRx, f.payloadAllocCost()) {
					return
				}
			} else {
				f.pc = 4
			}
		case 4: // enqueue for IP and go back to the wait loop
			d.FramesIn++
			k.Trace.Event(trace.Event{
				Kind: trace.EvDriverRx, At: f.rxStart, Dur: k.Now() - f.rxStart,
				ID: f.pktID, Len: len(f.dg),
			})
			d.IP.Enqueue(f.chain)
			if f.tagged {
				p.PopTag()
				f.tagged = false
			}
			f.dg, f.rest, f.chain, f.tail = nil, nil, nil, nil
			f.pc = 0
		}
	}
}

// payloadAllocCost returns the charge for the next payload mbuf of the
// frame being delivered.
func (f *rxprocFrame) payloadAllocCost() sim.Time {
	if len(f.dg) > mbuf.ClusterThreshold {
		return f.d.K.Cost.ClusterAlloc
	}
	return f.d.K.Cost.MbufAlloc
}
