package atm

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// MTU is the datagram size the driver advertises to IP. The paper's ATM
// MTU is "close to 9K"; the AAL3/4 maximum here.
const MTU = MaxDatagram

// Driver is the ATM network driver: it implements ip.NetIf on the
// transmit side and runs a receive interrupt service process that drains
// the adapter FIFO, reassembles AAL3/4 frames, and hands datagrams to IP.
type Driver struct {
	K       *kern.Kernel
	Adapter *Adapter
	IP      *ip.Stack

	// Mode selects the receive-side checksum strategy. In
	// ChecksumIntegrated the driver fuses a partial TCP checksum into
	// its device-to-kernel copy and stashes it in the mbufs (§4.1.1:
	// "we have implemented the combined copy and checksum from the
	// device memory to kernel memory").
	Mode cost.ChecksumMode

	// seg carries traffic on the default PVC (the single VC of the
	// paper's switchless fiber); tx maps destination IP addresses to
	// per-VC transmit state, installed either eagerly by a test harness
	// (AddVC) or on demand through the fabric when the first datagram to a
	// destination is segmented.
	seg Segmenter
	tx  txTable

	// fabric, when set, is the routed fabric this driver is host number
	// host of (NewFabric sets both). A transmit-side VC miss asks it to
	// install the switch path for (this host → dst) and to name the VCI
	// the host transmits on. Signaling is modeled as instantaneous — it
	// charges no simulated time — so an on-demand topology is
	// timing-identical to one with every VC pre-installed.
	fabric *Fabric
	host   int

	// rx holds one receive context per incoming VCI. Cells from
	// different sources arrive interleaved on distinct VCIs in switched
	// topologies; reassembly state must be per VC. lastRx remembers the
	// context the previous cell used: a datagram's cells arrive mostly
	// back to back, so continuation cells find theirs without a table
	// lookup. Whatever removes a context from rx must clear lastRx.
	rx     rxTable
	lastRx *rxVC

	// MTUOverride, when positive, lowers the MTU the driver advertises to
	// IP below the AAL3/4 maximum. TCP derives its MSS from it, so it is
	// the knob for sweeping segment size on the ATM link.
	MTUOverride int

	// HostCorruptRate flips one random bit of each reassembled datagram
	// during the device-to-host transfer — the paper's second error
	// source ("errors introduced by the network controllers in moving
	// data between host and controller memories", §4.2.1), which the
	// AAL CRC cannot see and only the TCP checksum can catch.
	HostCorruptRate float64

	// txBusy serializes Output, as splimp does around the real driver:
	// CPU charges yield to the event loop, so without the lock a user
	// send and a protocol-timer send could interleave cell pushes.
	txBusy bool
	txWait sim.WaitQueue

	// outOp is the free list of transmit frames, linked through next, as
	// ip.Stack keeps its output frames: txBusy serializes Output, so the
	// first, outFrame, covers the steady state, and callers that overlap
	// it park on txWait in frames the list keeps once made. proc is the
	// receive service process with rxproc its root, held here so that a
	// driver is one allocation.
	outOp    *outputOp
	outFrame outputOp
	proc     sim.Proc
	rxproc   rxprocFrame

	// FramesIn and FramesOut count successfully reassembled and
	// transmitted datagrams.
	FramesIn  int64
	FramesOut int64
	// ReassemblyErrors counts cells the AAL reassembler rejected.
	ReassemblyErrors int64
	// HECErrors counts cells discarded for a bad header checksum.
	HECErrors int64
	// HostCorruptions counts datagram bits flipped by HostCorruptRate.
	HostCorruptions int64
	// NoRoute counts datagrams dropped because their IP destination is
	// no other host on the driver's fabric.
	NoRoute int64
	// reassembled counts cells handed to a reassembler: with HECErrors,
	// every cell the driver popped. The conservation tests read it.
	reassembled int64
}

// DefaultVCI is the first non-reserved VCI, the single PVC of the
// paper's switchless lab.
const DefaultVCI = 32

// NewDriver creates the driver, wires it to the adapter and IP stack, and
// starts the receive service process.
func NewDriver(k *kern.Kernel, a *Adapter, ipStack *ip.Stack) *Driver {
	return new(Driver).Init(k, a, ipStack)
}

// Init readies a zero Driver in place, as NewDriver does, and returns it.
func (d *Driver) Init(k *kern.Kernel, a *Adapter, ipStack *ip.Stack) *Driver {
	d.K, d.Adapter, d.IP = k, a, ipStack
	d.txWait.Init("atm.txlock")
	d.seg.VCI = DefaultVCI
	d.outFrame.d = d
	d.outOp = &d.outFrame
	ipStack.Attach(d)
	d.rxproc.d = d
	k.Env.SpawnIn(&d.proc, k.Env.Now(), "", &d.rxproc)
	return d
}

// txTable maps destination addresses to transmit channels and rxTable
// incoming VCIs to receive channels, each with room for its first entry
// in the table itself: a client of a fan-in has one peer, so one channel
// each way, and its tables never allocate. A server's further entries
// spill into a map over a slab (txSpill, rxSpill), where a deleted
// entry's slot goes to the next add. Entries are handed out by pointer
// and stay where they are until deleted: an Output parked on a full FIFO
// holds its segmenter, and lastRx the previous cell's receive channel.
// (Two concrete types, not one generic: a generic type's methods carry
// their type arguments' import paths in their symbol names, which the
// benchmark's profile buckets cannot place.)
type txTable struct {
	dst0 uint32
	has0 bool
	vc0  txVC
	more *txSpill // made by the first spill
}

// txSpill holds a table's entries past the first: the map, the slab its
// entries live in (see slabChunk), and the slots of deleted entries,
// zeroed. It sits behind a pointer so that a table that never spills
// costs a word for it.
type txSpill struct {
	m    map[uint32]*txVC
	slab []txVC
	free []*txVC
}

// slabChunk is the length of a slab's next chunk when the current one,
// of length n, is full. A slab hands out pointers to its entries, so it
// is never grown by append, which would copy them to a new array while
// those pointers still name the old: a full chunk is replaced by a fresh
// one, and lives on as long as an entry in it does.
// Chunks double from 4 so that a table with a few entries stays small,
// up to 256 so that a huge one wastes at most one chunk.
func slabChunk(n int) int { return min(max(2*n, 4), 256) }

func (t *txTable) len() int {
	n := 0
	if t.has0 {
		n++
	}
	if t.more != nil {
		n += len(t.more.m)
	}
	return n
}

func (t *txTable) get(dst uint32) *txVC {
	if t.has0 && t.dst0 == dst {
		return &t.vc0
	}
	if t.more == nil {
		return nil
	}
	return t.more.m[dst]
}

// add installs vc for dst, which must not be present, and returns where
// it lives.
func (t *txTable) add(dst uint32, vc txVC) *txVC {
	if !t.has0 {
		t.dst0, t.has0, t.vc0 = dst, true, vc
		return &t.vc0
	}
	if t.more == nil {
		t.more = &txSpill{m: make(map[uint32]*txVC)}
	}
	s := t.more
	var p *txVC
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]txVC, 0, slabChunk(cap(s.slab)))
		}
		s.slab = s.slab[:len(s.slab)+1]
		p = &s.slab[len(s.slab)-1]
	}
	*p = vc
	s.m[dst] = p
	return p
}

func (t *txTable) del(dst uint32) {
	if t.has0 && t.dst0 == dst {
		t.has0, t.vc0 = false, txVC{}
		return
	}
	if s := t.more; s != nil {
		if p := s.m[dst]; p != nil {
			delete(s.m, dst)
			*p = txVC{}
			s.free = append(s.free, p)
		}
	}
}

// each calls fn for every entry, in no particular order; fn may delete
// the entry it is handed.
func (t *txTable) each(fn func(dst uint32, vc *txVC)) {
	if t.has0 {
		fn(t.dst0, &t.vc0)
	}
	if t.more != nil {
		for dst, vc := range t.more.m {
			fn(dst, vc)
		}
	}
}

type rxTable struct {
	has0 bool
	vc0  rxVC
	more *rxSpill
}

// rxSpill is txSpill for receive channels.
type rxSpill struct {
	m    map[uint16]*rxVC
	slab []rxVC
	free []*rxVC
}

func (t *rxTable) len() int {
	n := 0
	if t.has0 {
		n++
	}
	if t.more != nil {
		n += len(t.more.m)
	}
	return n
}

func (t *rxTable) get(vci uint16) *rxVC {
	if t.has0 && t.vc0.vci == vci {
		return &t.vc0
	}
	if t.more == nil {
		return nil
	}
	return t.more.m[vci]
}

// add installs vc, whose VCI must not be present, and returns where it
// lives.
func (t *rxTable) add(vc rxVC) *rxVC {
	if !t.has0 {
		t.has0, t.vc0 = true, vc
		return &t.vc0
	}
	if t.more == nil {
		t.more = &rxSpill{m: make(map[uint16]*rxVC)}
	}
	s := t.more
	var p *rxVC
	if n := len(s.free); n > 0 {
		p, s.free = s.free[n-1], s.free[:n-1]
	} else {
		if len(s.slab) == cap(s.slab) {
			s.slab = make([]rxVC, 0, slabChunk(cap(s.slab)))
		}
		s.slab = s.slab[:len(s.slab)+1]
		p = &s.slab[len(s.slab)-1]
	}
	*p = vc
	s.m[vc.vci] = p
	return p
}

func (t *rxTable) del(vci uint16) {
	if t.has0 && t.vc0.vci == vci {
		t.has0, t.vc0 = false, rxVC{}
		return
	}
	if s := t.more; s != nil {
		if p := s.m[vci]; p != nil {
			delete(s.m, vci)
			*p = rxVC{}
			s.free = append(s.free, p)
		}
	}
}

func (t *rxTable) each(fn func(vc *rxVC)) {
	if t.has0 {
		fn(&t.vc0)
	}
	if t.more != nil {
		for _, vc := range t.more.m {
			fn(vc)
		}
	}
}

// Reset returns the driver to its just-constructed state for testbed
// reuse: every virtual channel's segmenter and reassembler rewinds
// (retaining the VC table itself — routing is topology, not trial state
// — while a frame stranded mid-reassembly gives its buffer back to the
// loop's arena, which is why the lab resets drivers before it rewinds the
// environment), open receive spans and the transmit lock clear,
// configuration knobs return to defaults for the lab to re-apply, and
// counters zero. The receive service process stays parked on the
// adapter's RxReady queue.
func (d *Driver) Reset() {
	d.Mode = cost.ChecksumStandard
	d.MTUOverride = 0
	d.HostCorruptRate = 0
	d.txBusy = false
	d.seg.Reset()
	d.tx.each(func(dst uint32, vc *txVC) {
		if vc.demand {
			// On-demand entries are trial state, not topology: dropping
			// them restores the exact fresh-build contract (the next
			// datagram re-installs through the fabric, which returns
			// the already-routed path, so the wire bytes and timing
			// match a brand-new lab).
			d.tx.del(dst)
			return
		}
		vc.seg.Reset()
	})
	d.rx.each(func(vc *rxVC) {
		vc.reasm.Reset()
		vc.open = false
	})
	d.lastRx = nil
	d.FramesIn, d.FramesOut = 0, 0
	d.ReassemblyErrors, d.HECErrors, d.HostCorruptions, d.NoRoute = 0, 0, 0, 0
	d.reassembled = 0
}

// txVC is the transmit side of one virtual channel: its segmenter, and
// whether it was installed on demand (trial state) or eagerly (topology).
type txVC struct {
	seg    Segmenter
	demand bool
}

// AddVC installs a transmit-side virtual channel eagerly: datagrams
// addressed to dst leave on their own segmenter carrying vci. Test
// harnesses call it per reachable host; without any VCs and without a
// fabric every datagram rides the default PVC, preserving the two-host
// fiber behaviour. Routed fabrics do not call it — they install VCs
// lazily, from segFor.
func (d *Driver) AddVC(dst uint32, vci uint16) {
	d.tx.del(dst)
	d.tx.add(dst, txVC{seg: Segmenter{VCI: vci}})
}

// NumTxVCs returns how many transmit VCs are installed — O(peers this
// host has sent to) under on-demand setup, the quantity the
// state-sparsity tests pin.
func (d *Driver) NumTxVCs() int { return d.tx.len() }

// NumReassemblers returns how many receive-side reassembly contexts
// exist — O(peers that have sent to this host).
func (d *Driver) NumReassemblers() int { return d.rx.len() }

// Reassembling returns how many receive channels are part-way through a
// frame — each holds one buffer checked out of the loop's arena. On a
// drained loop that is a frame whose end was lost (or cut off by a fault)
// with nothing since on its channel to supersede it.
func (d *Driver) Reassembling() int {
	n := 0
	d.rx.each(func(vc *rxVC) {
		if !vc.reasm.Idle() {
			n++
		}
	})
	return n
}

// segFor picks the segmenter for a datagram's destination address,
// installing the VC on demand when a routed fabric is attached, and
// returns nil when that fabric has no route to dst: no other host owns the
// address. The miss path charges no simulated time (signaling is
// instantaneous), so lazily built topologies behave bit-identically to
// eagerly meshed ones.
func (d *Driver) segFor(dst uint32) *Segmenter {
	if d.tx.len() == 0 && d.fabric == nil {
		return &d.seg
	}
	if vc := d.tx.get(dst); vc != nil {
		return &vc.seg
	}
	if d.fabric == nil {
		panic(fmt.Sprintf("atm: no VC to destination %#x", dst))
	}
	vci, ok := d.fabric.setup(d.host, dst)
	if !ok {
		return nil
	}
	return &d.tx.add(dst, txVC{seg: Segmenter{VCI: vci}, demand: true}).seg
}

// DropRx reclaims the reassembly context for an incoming VCI, returning
// false (and keeping it) if a datagram is mid-reassembly on that channel.
func (d *Driver) DropRx(vci uint16) bool {
	vc := d.rx.get(vci)
	if vc == nil {
		return true
	}
	if !vc.reasm.Idle() {
		return false
	}
	d.rx.del(vci)
	if d.lastRx == vc {
		d.lastRx = nil
	}
	return true
}

// rxVC is the receive side of one virtual channel: its reassembler and,
// while open, when the driver popped the first cell of the datagram
// currently reassembling — the start of that datagram's driver-receive
// span in the packet trace.
type rxVC struct {
	vci   uint16
	reasm Reassembler
	start sim.Time
	open  bool
}

// rxFor picks (lazily creating) the receive context for an incoming VCI.
func (d *Driver) rxFor(vci uint16) *rxVC {
	if vc := d.lastRx; vc != nil && vc.vci == vci {
		return vc
	}
	vc := d.rx.get(vci)
	if vc == nil {
		vc = d.rx.add(rxVC{vci: vci, reasm: Reassembler{arena: d.K.Env.Arena()}})
	}
	d.lastRx = vc
	return vc
}

// Name implements ip.NetIf.
func (d *Driver) Name() string { return d.K.Name() + ".atm0" }

// MTU implements ip.NetIf.
func (d *Driver) MTU() int {
	if d.MTUOverride > 0 && d.MTUOverride < MTU {
		return d.MTUOverride
	}
	return MTU
}

// Output implements ip.NetIf as a frame call (tail position): it segments
// the datagram into AAL3/4 cells and copies them into the transmit FIFO,
// blocking when the FIFO is full. Costs: a per-frame setup charge plus a
// per-cell compose-and-copy charge, all attributed to the ATM row. The
// span ends when the last cell has been written — the paper measures "up
// to when the ATM adapter is signaled to send the last byte of data", and
// on the TCA-100 writing the FIFO is the signal.
func (d *Driver) Output(p *sim.Proc, m *mbuf.Mbuf) {
	f := d.outOp
	if f != nil {
		d.outOp, f.next = f.next, nil
	} else {
		f = &outputOp{d: d}
	}
	f.pc = 0
	f.m = m
	p.Call(f)
}

// outputOp is the frame behind Driver.Output: the transmit-lock wait, the
// per-frame setup charge, the cell-push loop with its FIFO-full stalls,
// and the chain release. The datagram's CPCS-PDU is checked out of the
// loop's arena for as long as cells are being cut from it — the one
// buffer an Output holds; cells are cut one at a time as the FIFO takes
// them, each straight into the transmit FIFO's own record of it
// (Adapter.TxCell), so a cell's bytes are written once on this host.
type outputOp struct {
	d    *Driver
	pc   int
	next *outputOp // on the free list

	m         *mbuf.Mbuf
	txStart   sim.Time
	waitStart sim.Time
	seg       *Segmenter // the destination's channel; nil: no route
	pdu       []byte     // its CPCS-PDU, from the arena
	n         int        // datagram bytes in it
	cells, i  int        // cells it makes; next cell to push
}

// Step drives the transmit state machine.
func (f *outputOp) Step(p *sim.Proc) {
	d := f.d
	k := d.K
	for {
		switch f.pc {
		case 0: // acquire the transmit lock, charge per-frame setup
			if d.txBusy {
				d.txWait.Wait(p)
				return
			}
			d.txBusy = true
			f.txStart = k.Now()
			f.pc = 1
			if !k.Use(p, trace.LayerATMTx, k.Cost.ATMTxFrameFixed) {
				return
			}
		case 1: // linearize straight into a CPCS-PDU and frame it
			f.n = mbuf.ChainLen(f.m)
			need := pduLen(f.n)
			f.pdu = k.Env.Arena().Checkout(need)[:need]
			data := f.pdu[cpcsHeader : cpcsHeader+f.n]
			mbuf.CopyBytesTo(f.m, 0, f.n, data)
			if f.seg = d.segFor(ip.Dst(data)); f.seg == nil {
				f.pc = 5 // no route: drop it
				continue
			}
			f.cells, f.i = f.seg.frame(f.pdu, f.n), 0
			f.pc = 2
		case 2: // cell-loop head: stall on a full FIFO or charge the push
			if f.i >= f.cells {
				f.pc = 5
				continue
			}
			if d.Adapter.TxSpace() == 0 {
				f.waitStart = k.Now()
				f.pc = 3
				if !p.SleepUntil(d.Adapter.TxFreeAt()) {
					return
				}
				continue
			}
			f.pc = 4
			if !k.Use(p, trace.LayerATMTx, k.Cost.ATMTxPerCell) {
				return
			}
		case 3: // a slot has freed: the driver spun on the status
			// register, which is time in the ATM row.
			k.Attribute(p, trace.LayerATMTx, f.waitStart, k.Now())
			f.pc = 2
		case 4: // cut the charged cell where the transmit engine reads it
			c := d.Adapter.TxCell()
			f.seg.cell(c, f.pdu, f.i, f.cells)
			d.Adapter.LaunchTx(c)
			f.i++
			f.pc = 2
		case 5: // count the frame and trace it (or count the drop), then charge the chain free
			if f.seg == nil {
				d.NoRoute++
			} else {
				d.FramesOut++
				if k.Trace.PacketsEnabled() {
					id := k.PacketContext(p)
					k.Trace.Event(trace.Event{
						Kind: trace.EvDriverTx, At: f.txStart, Dur: k.Now() - f.txStart,
						ID: id, Len: f.n,
					})
					// The final cell is on its way to the wire; it clears
					// the transmit engine at TxIdleAt.
					k.Trace.Event(trace.Event{
						Kind: trace.EvWireDepart, At: d.Adapter.TxIdleAt(),
						ID: id, Len: f.n,
					})
				}
			}
			k.Env.Arena().Return(f.pdu)
			f.pdu, f.seg = nil, nil
			f.pc = 6
			if c := k.FreeChainCost(f.m); c > 0 {
				if !k.Use(p, trace.LayerMbuf, c) {
					return
				}
			}
		case 6: // release the chain and the lock
			if f.m != nil {
				k.Pool.Free(f.m)
				f.m = nil
			}
			d.txBusy = false
			d.txWait.WakeAll()
			f.next, d.outOp = d.outOp, f
			p.Return()
			return
		}
	}
}

// rxprocFrame is the receive interrupt service process. It wakes on the
// adapter's end-of-frame interrupt, drains the receive FIFO charging the
// per-cell receive cost, pushes cells through the reassembler, and — via
// its inlined deliver states — builds the mbuf chain for each completed
// datagram and enqueues it on the IP input queue.
type rxprocFrame struct {
	d  *Driver
	pc int

	// Drain-loop state.
	framePending bool
	popAt        sim.Time
	c            Cell
	frameEnd     bool
	arrivedAt    sim.Time

	// Deliver state (one datagram at a time). dg lies in buf, the
	// reassembly buffer detached from its channel, which goes back to the
	// arena when the datagram has been copied into mbufs.
	dg, buf     []byte
	start       sim.Time
	pktID       trace.PacketID
	tagged      bool
	rest        []byte
	chain, tail *mbuf.Mbuf
}

// Name implements sim.Namer: the process is named when something asks.
func (f *rxprocFrame) Name() string { return f.d.K.Name() + ".atmintr" }

// Step drives the receive service loop. The TCA-100 model interrupts per
// completed frame, so the driver sleeps until a frame-ending cell has
// landed, then drains cells up to and including it. Cells of a later,
// still-arriving frame stay in the FIFO until that frame's own interrupt
// — which is what makes driver processing of one segment overlap the
// wire arrival of the next at large transfer sizes (the Table 3 ATM-row
// nonlinearity).
func (f *rxprocFrame) Step(p *sim.Proc) {
	d := f.d
	k := d.K
	for {
		switch f.pc {
		case 0: // wait for a completed frame or the occupancy threshold
			if d.Adapter.FramesPending() == 0 && d.Adapter.RxAvail() < RxDrainThreshold {
				d.Adapter.RxReady.Wait(p)
				return
			}
			// Drain up to one complete frame, or — when woken by the
			// occupancy threshold with no complete frame present —
			// whatever cells have accumulated, so an overflow can never
			// wedge the receive path.
			f.framePending = d.Adapter.FramesPending() > 0
			f.pc = 1
		case 1: // pop the next cell and charge its receive cost
			f.popAt = k.Now()
			if !d.Adapter.PopRxInto(&f.c) {
				f.pc = 0
				continue
			}
			f.pc = 2
			if !k.Use(p, trace.LayerATMRx, k.Cost.ATMRxPerCell) {
				return
			}
		case 2: // integrated mode fuses a checksum into the cell copy
			if d.Mode == cost.ChecksumIntegrated {
				f.pc = 3
				if !k.Use(p, trace.LayerATMRx,
					sim.Time(k.Cost.IntegratedRxPerByte*SARPayload)) {
					return
				}
			} else {
				f.pc = 3
			}
		case 3: // parse, reassemble, and detect a completed datagram
			h, err := ParseHeader(&f.c)
			if err != nil {
				// Header corruption: the HEC catches it and the cell
				// is discarded, surfacing later as a sequence gap. A
				// discarded frame-end must still consume the adapter's
				// pending-frame bookkeeping (count and arrival stamp),
				// or both would stay desynchronized forever.
				d.HECErrors++
				if IsFrameEnd(&f.c) {
					d.Adapter.ConsumeFrameEnd()
				}
				f.pc = 1
				continue
			}
			vc := d.rxFor(h.VCI)
			// A beginning cell always restarts the VCI's receive span:
			// the reassembler silently abandons a partial datagram when
			// a fresh BOM arrives mid-message (a loss pattern the
			// sequence numbers cannot catch), and that path reports no
			// error, so the open span would otherwise leak into the
			// next datagram's driver.rx duration.
			if st := f.c.Payload()[0] >> 6; st == segBOM || st == segSSM || !vc.open {
				vc.start, vc.open = f.popAt, true
			}
			f.frameEnd = IsFrameEnd(&f.c)
			f.arrivedAt = 0
			if f.frameEnd {
				f.arrivedAt = d.Adapter.ConsumeFrameEnd()
			}
			d.reassembled++
			dg, err := vc.reasm.Push(&f.c)
			if err != nil {
				d.ReassemblyErrors++
				vc.open = false
				f.pc = 9
				continue
			}
			if dg == nil {
				f.pc = 9
				continue
			}
			f.dg, f.buf = dg, vc.reasm.Detach()
			f.start = vc.start
			vc.open = false
			f.pc = 4
		case 4: // deliver: stamp the on-wire identity, charge per-frame RX
			if len(f.dg) < ip.HeaderLen {
				d.ReassemblyErrors++
				f.dg = nil
				f.pc = 9
				continue
			}
			// The on-wire identity, read before any host-side corruption
			// is injected below: the trace records what the wire carried.
			// Untraced runs skip the tag push (it boxes the identity —
			// one allocation per datagram on the hot path) along with
			// the event.
			f.pktID, f.tagged = trace.PacketID{}, false
			if k.Trace.PacketsEnabled() {
				f.pktID = ip.PacketIDOf(f.dg)
				p.PushTag(f.pktID)
				f.tagged = true
				k.Trace.Event(trace.Event{
					Kind: trace.EvWireArrive, At: f.arrivedAt, ID: f.pktID, Len: len(f.dg),
				})
			}
			// Per-frame interrupt and reassembly-completion overhead.
			f.pc = 5
			if !k.Use(p, trace.LayerATMRx, k.Cost.ATMRxFrameFixed) {
				return
			}
		case 5: // host-side corruption draw, then integrated fixed charge
			if d.HostCorruptRate > 0 && k.Env.RNG().Bool(d.HostCorruptRate) {
				bit := k.Env.RNG().Intn(len(f.dg) * 8)
				f.dg[bit/8] ^= 1 << (bit % 8)
				d.HostCorruptions++
			}
			if d.Mode == cost.ChecksumIntegrated {
				f.pc = 6
				if !k.Use(p, trace.LayerATMRx, k.Cost.IntegratedRxFixed) {
					return
				}
			} else {
				f.pc = 6
			}
		case 6: // charge the IP-header mbuf allocation
			f.pc = 7
			if !k.Use(p, trace.LayerATMRx, k.Cost.MbufAlloc) {
				return
			}
		case 7: // build the header mbuf; charge the first payload mbuf.
			// Layout: the IP header in its own normal mbuf, the rest in
			// cluster mbufs (or normal mbufs for small frames), so that
			// stripping the IP header cannot invalidate partial checksums
			// stashed for the payload.
			hm := k.Pool.Alloc()
			hm.Append(f.dg[:ip.HeaderLen])
			f.rest = f.dg[ip.HeaderLen:]
			f.chain, f.tail = hm, hm
			if len(f.rest) > 0 {
				f.pc = 8
				if !k.Use(p, trace.LayerATMRx, f.payloadAllocCost()) {
					return
				}
			} else {
				f.pc = 9
				continue
			}
		case 8: // fill one payload mbuf; charge the next or finish
			var m *mbuf.Mbuf
			if len(f.dg) > mbuf.ClusterThreshold {
				m = k.Pool.AllocCluster()
			} else {
				m = k.Pool.Alloc()
			}
			n := m.Append(f.rest)
			if d.Mode == cost.ChecksumIntegrated {
				// The device-to-kernel copy computed this sum as a side
				// effect; stash it for tcp_input to fold.
				var cs checksum.Partial
				cs.Add(f.rest[:n])
				m.Csum, m.CsumValid = cs, true
			}
			f.rest = f.rest[n:]
			f.tail.SetNext(m)
			f.tail = m
			if len(f.rest) > 0 {
				f.pc = 8
				if !k.Use(p, trace.LayerATMRx, f.payloadAllocCost()) {
					return
				}
			} else {
				f.pc = 9
			}
		case 9: // finish the cell: enqueue any delivered datagram, then
			// either drain the next cell or go back to sleep.
			if f.chain != nil {
				d.FramesIn++
				k.Trace.Event(trace.Event{
					Kind: trace.EvDriverRx, At: f.start, Dur: k.Now() - f.start,
					ID: f.pktID, Len: len(f.dg),
				})
				d.IP.Enqueue(f.chain)
				f.chain, f.tail = nil, nil
			}
			if f.tagged {
				p.PopTag()
				f.tagged = false
			}
			if f.buf != nil {
				k.Env.Arena().Return(f.buf)
			}
			f.dg, f.buf, f.rest = nil, nil, nil
			if f.frameEnd && f.framePending {
				f.pc = 0
			} else {
				f.pc = 1
			}
		}
	}
}

// payloadAllocCost returns the charge for the next payload mbuf of the
// datagram being delivered.
func (f *rxprocFrame) payloadAllocCost() sim.Time {
	if len(f.dg) > mbuf.ClusterThreshold {
		return f.d.K.Cost.ClusterAlloc
	}
	return f.d.K.Cost.MbufAlloc
}
