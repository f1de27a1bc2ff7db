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

// Frame is a raw Ethernet frame (header + payload + FCS). On the wire —
// from Driver.Output until the receiving driver has copied it into mbufs
// — a frame is a buffer checked out of the loop's arena with exactly one
// owner, who either passes it on or gives it back.
type Frame []byte

// frameLen is the length of the frame that carries an n-byte payload.
func frameLen(n int) int {
	if n < MinPayload {
		n = MinPayload
	}
	return HeaderLen + n + FCSLen
}

// Encapsulate builds a frame around payload, padding to the minimum size
// and appending a real FCS. The driver does not call it — it seals the
// arena buffer its datagram was linearized into — but both are the one
// seal over the same layout, so this is the codec the tests and the fuzz
// target hold the wire bytes to.
func Encapsulate(dst, src [6]byte, etherType uint16, payload []byte) Frame {
	f := make(Frame, frameLen(len(payload)))
	copy(f[HeaderLen:], payload)
	f.seal(dst, src, etherType, len(payload))
	return f
}

// seal finishes, in place, a frame of frameLen(n) bytes whose n payload
// bytes already sit at HeaderLen: addresses, type, padding, FCS. Every
// byte outside the payload is written — the buffer may be a recycled one.
func (f Frame) seal(dst, src [6]byte, etherType uint16, n int) {
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12] = byte(etherType >> 8)
	f[13] = byte(etherType)
	body := len(f) - FCSLen
	clear(f[HeaderLen+n : body])
	c := fcs(f[:body])
	f[body] = byte(c >> 24)
	f[body+1] = byte(c >> 16)
	f[body+2] = byte(c >> 8)
	f[body+3] = byte(c)
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
// in attach order, which keeps multi-station runs deterministic. A
// unicast frame changes hands; a broadcast reaches each station as a
// checkout of its own, since each will give its frame back separately.
func (s *Segment) deliver(src *Adapter, f Frame) {
	arena := src.K.Env.Arena()
	var dst [6]byte
	copy(dst[:], f[0:6])
	if dst == Broadcast {
		for _, st := range s.stations {
			if st != src {
				st.receive(append(arena.Checkout(len(f)), f...))
			}
		}
		arena.Return(f)
		return
	}
	st, ok := s.byMAC[dst]
	if !ok || st == src {
		s.UnknownUnicasts++
		arena.Return(f)
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
	// rxQ holds received frames, each with its wire-arrival time, until
	// the driver pops them.
	rxQ frameFIFO
	// RxReady is the per-frame receive interrupt.
	RxReady sim.WaitQueue

	// flight holds the frames Transmit has committed, oldest first, until
	// each reaches the segment: that arrival, on inLane, is a frame's one
	// wire event (Transmit knows when its last bit leaves). Both queues
	// are one type, so this one carries each frame's arrival time too;
	// only rxQ's is read.
	flight frameFIFO
	inLane sim.Lane

	FramesSent int64
	FramesRecv int64
	// Filtered counts frames dropped by destination-address filtering.
	Filtered int64
	// LossRate drops frames on the wire for fault injection.
	LossRate float64
	// LossDrops counts frames LossRate killed.
	LossDrops int64
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
func NewAdapter(k *kern.Kernel, addr [6]byte) *Adapter { return new(Adapter).Init(k, addr) }

// Init readies a zero Adapter in place, as NewAdapter does, and returns
// it.
func (a *Adapter) Init(k *kern.Kernel, addr [6]byte) *Adapter {
	a.K, a.Addr = k, addr
	a.RxReady.Init("le.rx")
	a.inLane.Bind(a)
	return a
}

// Reset returns the adapter to its just-constructed state for testbed
// reuse: the transmitter idle at time zero, queues emptied with every
// frame still in them given back to the loop's arena (which is why the
// lab resets adapters before it rewinds the environment), fault injection
// off, counters cleared. The RxReady wait queue survives with the
// driver's service process parked on it.
func (a *Adapter) Reset() {
	a.wireBusy = 0
	a.flight.drain(a.K.Env.Arena())
	a.rxQ.drain(a.K.Env.Arena())
	a.LossRate = 0
	a.ge = sim.GEChain{}
	a.down = false
	a.FramesSent, a.FramesRecv, a.Filtered = 0, 0, 0
	a.GEDrops, a.LossDrops, a.DownDrops = 0, 0, 0
}

// SetDown flips the station's fault state: while down, frames the
// station transmits die on its drop cable and frames addressed to it are
// discarded on arrival.
func (a *Adapter) SetDown(down bool) { a.down = down }

// Down reports the station's fault state.
func (a *Adapter) Down() bool { return a.down }

// LaneFired implements sim.LaneOwner for inLane, the adapter's one lane:
// a frame has reached the far end, so hand it to the segment for
// destination filtering and delivery. A down station's frames die here —
// the pacing machinery (and so every wire timestamp) is untouched, only
// the delivery leg is lost.
func (a *Adapter) LaneFired(*sim.Lane) {
	f, _ := a.flight.pop()
	if a.down {
		a.DownDrops++
		a.K.Env.Arena().Return(f)
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

// frameFIFO is a queue of frames, each with a timestamp, oldest at
// q[head]. A popped slot is cleared at once, so the queue never keeps a
// second reference to a buffer its new owner may give back.
type frameFIFO struct {
	q    []timedFrame
	head int
}

type timedFrame struct {
	f  Frame
	at sim.Time
}

func (q *frameFIFO) len() int { return len(q.q) - q.head }

func (q *frameFIFO) push(f Frame, at sim.Time) {
	q.q = append(q.q, timedFrame{f: f, at: at})
}

// pop removes the oldest frame. A queue that empties rewinds; one that
// stays busy slides down once the dead prefix is half of it.
func (q *frameFIFO) pop() (Frame, sim.Time) {
	it := q.q[q.head]
	q.q[q.head] = timedFrame{}
	q.head++
	switch {
	case q.head == len(q.q):
		q.q, q.head = q.q[:0], 0
	case q.head >= 128 && q.head*2 >= len(q.q):
		n := copy(q.q, q.q[q.head:])
		clear(q.q[n:])
		q.q, q.head = q.q[:n], 0
	}
	return it.f, it.at
}

// drain empties the queue, giving every frame in it back to the arena.
func (q *frameFIFO) drain(arena *sim.Arena) {
	for q.len() > 0 {
		f, _ := q.pop()
		arena.Return(f)
	}
}

// Transmit paces the frame onto the wire and hands it to the segment for
// destination filtering and delivery. It returns the time the frame's
// last bit leaves the wire — the packet trace's wire-departure instant.
// f is a buffer checked out of the loop's arena, and Transmit takes it
// over: it comes back from whichever station, or drop, ends its life.
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
	arrive := end + a.K.Cost.EtherPropagation
	a.flight.push(f, arrive)
	a.inLane.At(env, arrive, "ether.framein")
	return end
}

// receive handles a frame arriving from the wire. The station filter
// (own address or broadcast) mirrors the LANCE's hardware address match;
// the segment normally routes frames so the filter only fires on
// misdelivery. The frame is the adapter's from here: queued for the
// driver, or given back by whichever discard stops it.
func (a *Adapter) receive(f Frame) {
	if drops := a.discard(f); drops != nil {
		*drops++
		a.K.Env.Arena().Return(f)
		return
	}
	a.FramesRecv++
	a.rxQ.push(f, a.K.Env.Now())
	a.RxReady.Wake()
}

// discard decides an arriving frame's fate: nil to accept it, or the
// counter of the one cause that drops it.
func (a *Adapter) discard(f Frame) *int64 {
	if a.down {
		return &a.DownDrops
	}
	if len(f) >= 6 {
		var dst [6]byte
		copy(dst[:], f[0:6])
		if dst != a.Addr && dst != Broadcast {
			return &a.Filtered
		}
	}
	if a.ge.Enabled() && a.ge.Drop() {
		return &a.GEDrops
	}
	if a.LossRate > 0 && a.K.Env.RNG().Bool(a.LossRate) {
		return &a.LossDrops
	}
	return nil
}

// RxAvail returns the number of received frames waiting.
func (a *Adapter) RxAvail() int { return a.rxQ.len() }

// PopRx removes and returns the oldest waiting frame along with its
// wire-arrival time. The frame is the caller's to give back.
func (a *Adapter) PopRx() (Frame, sim.Time, bool) {
	if a.rxQ.len() == 0 {
		return nil, 0, false
	}
	f, at := a.rxQ.pop()
	return f, at, true
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

	// outOp caches the transmit frame; txBusy serializes Output, so one
	// cached frame covers the steady state. outFrame is that frame, and
	// proc the receive service process with rxproc its root, held here so
	// that a driver is one allocation.
	outOp    *outputOp
	outFrame outputOp
	proc     sim.Proc
	rxproc   rxprocFrame

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
	return new(Driver).Init(k, a, ipStack)
}

// Init readies a zero Driver in place, as NewDriver does, and returns it.
func (d *Driver) Init(k *kern.Kernel, a *Adapter, ipStack *ip.Stack) *Driver {
	d.K, d.Adapter, d.IP = k, a, ipStack
	d.txWait.Init("le.txlock")
	d.outFrame.d = d
	d.outOp = &d.outFrame
	ipStack.Attach(d)
	d.rxproc.d = d
	k.Env.SpawnIn(&d.proc, k.Env.Now(), "", &d.rxproc)
	return d
}

// Reset returns the driver to its just-constructed state for testbed
// reuse: the transmit lock clears, the MTU override returns to default
// for the lab to re-apply, and counters zero. The driver keeps no buffer
// of its own between frames; the receive service process stays parked on
// RxReady.
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

// Output implements ip.NetIf: linearize the chain into a frame checked
// out of the loop's arena — the one copy on this path — seal it in place
// and hand it to the adapter, charging the driver's per-frame output cost
// (the LANCE copy is part of the per-byte term). The destination MAC
// comes from the segment's ARP table, keyed by the datagram's IP
// destination. On a segment with no bindings at all (raw Connect pairs
// assembled without a topology builder) frames are flooded as broadcast,
// the old pairwise delivery; once bindings exist, a destination that
// resolves to none of them is a configuration error and the datagram is
// dropped and counted rather than flooded into every other host's stack.
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
	fr      Frame // the checked-out frame, datagram at HeaderLen
	n       int   // datagram length
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
			f.n = mbuf.ChainLen(f.m)
			size := frameLen(f.n)
			f.fr = k.Env.Arena().Checkout(size)[:size]
			mbuf.CopyBytesTo(f.m, 0, f.n, f.fr[HeaderLen:HeaderLen+f.n])
			f.pc = 1
			if !k.Use(p, trace.LayerEtherTx, k.Cost.EtherTx.Cost(f.n)) {
				return
			}
		case 1: // seal and hand to the adapter, then charge the chain free
			if dst, ok := d.resolve(f.fr[HeaderLen : HeaderLen+f.n]); ok {
				f.fr.seal(dst, d.Adapter.Addr, EtherTypeIPv4, f.n)
				wireEnd := d.Adapter.Transmit(f.fr)
				if k.Trace.PacketsEnabled() {
					id := k.PacketContext(p)
					k.Trace.Event(trace.Event{
						Kind: trace.EvDriverTx, At: f.txStart, Dur: k.Now() - f.txStart,
						ID: id, Len: f.n,
					})
					k.Trace.Event(trace.Event{
						Kind: trace.EvWireDepart, At: wireEnd, ID: id, Len: f.n,
					})
				}
				d.FramesOut++
			} else {
				d.NoRoute++
				k.Env.Arena().Return(f.fr)
			}
			f.fr = nil
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
	fr        Frame  // held until the datagram is in mbufs, or rejected
	dg        []byte // the datagram, inside fr
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
			f.fr, f.arrivedAt, _ = d.Adapter.PopRx()
			f.dg, f.etherType, f.ok = Decapsulate(f.fr)
			f.pc = 1
			if !k.Use(p, trace.LayerEtherRx, k.Cost.EtherRx.Cost(len(f.dg))) {
				return
			}
		case 1: // validate; stamp the on-wire identity; charge header mbuf
			if !f.ok || f.etherType != EtherTypeIPv4 || len(f.dg) < ip.HeaderLen {
				d.FCSErrors++
				k.Env.Arena().Return(f.fr)
				f.fr, f.dg = nil, nil
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
			k.Env.Arena().Return(f.fr)
			f.fr, f.dg, f.rest, f.chain, f.tail = nil, nil, nil, nil, nil
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
