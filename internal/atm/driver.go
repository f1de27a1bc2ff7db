package atm

import (
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
// It keeps no route table: on a routed fabric a flow's transmit channel
// is its route's, looked up through the fabric. Its interface fields,
// transmit lock and mbuf delivery are the embedded ip.Link's.
type Driver struct {
	ip.Link
	Adapter *Adapter

	// Mode selects the receive-side checksum strategy. In
	// ChecksumIntegrated the driver fuses a partial TCP checksum into
	// its device-to-kernel copy and stashes it in the mbufs (§4.1.1:
	// "we have implemented the combined copy and checksum from the
	// device memory to kernel memory").
	Mode cost.ChecksumMode

	// seg carries traffic on the default PVC, the single VC of the
	// paper's switchless fiber, when there is no fabric. On a fabric,
	// which has no PVC, it holds instead the channel of a route removed
	// under the Output cutting from it, for the rest of that frame (see
	// tx).
	seg Segmenter

	// fabric, when set, is the routed fabric this driver is host number
	// host of (NewFabric sets both). Each datagram's channel is the route
	// for (this host → dst), which the fabric installs on the first
	// datagram of the flow. Signaling is modeled as instantaneous — it
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

	// tx is the channel the Output holding the transmit lock cuts its
	// frame's cells with (nil: none, or no route). A port failure can
	// remove the flow's route while the Output is parked on a full FIFO,
	// and the next install can take the route's slot: the removal moves
	// the channel into seg and repoints tx there, so the parked Output
	// finishes its frame on the removed flow's VCI and leaves the slot
	// alone.
	tx *Segmenter

	// outOp is the free list of transmit frames, linked through next, as
	// ip.Stack keeps its output frames: the lock serializes Output, so the
	// first, outFrame, covers the steady state, and callers that overlap
	// it park on the lock in frames the list keeps once made. proc is the
	// receive service process with rxproc its root, held here so that a
	// driver is one allocation.
	outOp    *outputOp
	outFrame outputOp
	proc     sim.Proc
	rxproc   rxprocFrame

	// ReassemblyErrors counts cells the AAL reassembler rejected, and
	// CRC10Errors those of them whose CRC-10 failed; the rest failed a
	// sequence, length or tag check.
	ReassemblyErrors int64
	CRC10Errors      int64
	// HECErrors counts cells discarded for a bad header checksum.
	HECErrors int64
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
	d.Link.Init(k, ipStack, MTU, "atm.txlock")
	d.Adapter = a
	d.seg.VCI = DefaultVCI
	d.outFrame.d = d
	d.outOp = &d.outFrame
	ipStack.Attach(d)
	d.rxproc.d = d
	d.rxproc.del.Init(&d.Link, trace.LayerATMRx)
	k.Env.SpawnIn(&d.proc, k.Env.Now(), "", &d.rxproc)
	return d
}

// slabChunk is the length of a slab's next chunk when the current one,
// of length n, is full. A slab hands out pointers to its entries, so it
// is never grown by append, which would copy them to a new array while
// those pointers still name the old: a full chunk is replaced by a fresh
// one, and lives on as long as an entry in it does.
// Chunks double from 4 so that a table with a few entries stays small,
// up to 256 so that a huge one wastes at most one chunk.
func slabChunk(n int) int { return min(max(2*n, 4), 256) }

// rxTable maps incoming VCIs to receive channels, with room for its first
// entry in the table itself: a client of a fan-in has one peer, so one
// channel, and its table never allocates. A server's further entries
// spill into a map over a slab (rxSpill), where a deleted entry's slot
// goes to the next add. Entries are handed out by pointer and stay where
// they are until deleted: lastRx holds the previous cell's channel.
// (Concrete, not generic: a generic type's methods carry their type
// arguments' import paths in their symbol names, which the benchmark's
// profile buckets cannot place.)
type rxTable struct {
	has0 bool
	vc0  rxVC
	more *rxSpill
}

// rxSpill holds a table's entries past the first: the map, the slab its
// entries live in (see slabChunk), and the slots of deleted entries,
// zeroed. It sits behind a pointer so that a table that never spills
// costs a word for it.
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
// reuse: the default PVC's segmenter and every receive channel's
// reassembler rewind (a route's segmenter is the fabric's, which its own
// Reset rewinds; a frame stranded mid-reassembly gives its buffer back to
// the loop's arena, which is why the lab resets drivers before it rewinds
// the environment), open receive spans and the transmit lock clear,
// configuration knobs return to defaults for the lab to re-apply, and
// counters zero. The receive service process stays parked on the
// adapter's RxReady queue.
func (d *Driver) Reset() {
	d.Link.Reset()
	d.Mode = cost.ChecksumStandard
	d.tx = nil
	d.seg.Reset()
	d.rx.each(func(vc *rxVC) {
		vc.reasm.Reset()
		vc.open = false
	})
	d.lastRx = nil
	d.ReassemblyErrors, d.CRC10Errors, d.HECErrors, d.reassembled = 0, 0, 0, 0
}

// FlipNext schedules a controller flip (sim.FaultControllerFlip): bit bit
// of the next datagram this driver reassembles is flipped on its way to
// host memory, where the AAL cannot see it. The adapter keeps the flip
// with its wire flips; its Reset clears both.
func (d *Driver) FlipNext(bit int) {
	d.Adapter.flips = append(d.Adapter.flips, bitFlip{cell: nextDatagram, bit: bit})
}

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

// segFor returns the channel for a datagram's destination address: the
// default PVC off a fabric; on one, the segmenter of the flow's route,
// installed on demand by the flow's first datagram, or nil when no other
// host owns dst. The miss path charges no simulated time (signaling is
// instantaneous), so lazily built topologies behave bit-identically to
// eagerly meshed ones.
func (d *Driver) segFor(dst uint32) *Segmenter {
	f := d.fabric
	if f == nil {
		return &d.seg
	}
	rt := f.setup(d.host, dst)
	if rt == nil {
		return nil
	}
	return &rt.seg
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
	pdu       []byte // its CPCS-PDU, from the arena
	n         int    // datagram bytes in it
	cells, i  int    // cells it makes; next cell to push
}

// Step drives the transmit state machine.
func (f *outputOp) Step(p *sim.Proc) {
	d := f.d
	k := d.K
	for {
		switch f.pc {
		case 0: // acquire the transmit lock, charge per-frame setup
			if !d.Lock(p) {
				return
			}
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
			if d.tx = d.segFor(ip.Dst(data)); d.tx == nil {
				f.pc = 5 // no route: drop it
				continue
			}
			f.cells, f.i = d.tx.frame(f.pdu, f.n), 0
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
			d.tx.cell(c, f.pdu, f.i, f.cells)
			d.Adapter.LaunchTx(c)
			f.i++
			f.pc = 2
		case 5: // count the frame and trace it (or count the drop), then charge the chain free
			if d.tx == nil {
				d.NoRoute++
			} else {
				// The final cell is on its way to the wire; it clears the
				// transmit engine at TxIdleAt.
				d.Sent(p, f.txStart, d.Adapter.TxIdleAt(), f.n)
			}
			k.Env.Arena().Return(f.pdu)
			f.pdu, d.tx = nil, nil
			f.pc = 6
			if !d.ChargeFree(p, f.m) {
				return
			}
		case 6: // release the chain and the lock
			d.Unlock(f.m)
			f.m = nil
			f.next, d.outOp = d.outOp, f
			p.Return()
			return
		}
	}
}

// rxprocFrame is the receive interrupt service process. It wakes on the
// adapter's end-of-frame interrupt, drains the receive FIFO charging the
// per-cell receive cost, pushes cells through the reassembler, and hands
// each completed datagram to del, the link's copy into mbufs and onto
// the IP input queue.
type rxprocFrame struct {
	d  *Driver
	pc int

	// Drain-loop state.
	framePending bool
	popAt        sim.Time
	c            Cell
	frameEnd     bool
	arrivedAt    sim.Time

	// Deliver state (one datagram at a time). del.DG lies in buf, the
	// reassembly buffer detached from its channel, which goes back to the
	// arena when the datagram has been copied into mbufs.
	buf []byte
	del ip.Delivery
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
			f.pc = 3
			if d.Mode == cost.ChecksumIntegrated &&
				!k.Use(p, trace.LayerATMRx, sim.Time(k.Cost.IntegratedRxPerByte*SARPayload)) {
				return
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
				if err == errCRC10 {
					d.CRC10Errors++
				}
				vc.open = false
				f.pc = 7
				continue
			}
			if dg == nil {
				f.pc = 7
				continue
			}
			f.del.DG, f.buf = dg, vc.reasm.Detach()
			f.del.Start = vc.start
			vc.open = false
			f.pc = 4
		case 4: // deliver: stamp the on-wire identity, charge per-frame RX
			if len(f.del.DG) < ip.HeaderLen {
				d.ReassemblyErrors++
				f.del.DG = nil
				f.pc = 7
				continue
			}
			// The on-wire identity, read before any controller flip is
			// applied below: the trace records what the wire carried.
			f.del.Arrive(p, f.arrivedAt)
			// Per-frame interrupt and reassembly-completion overhead.
			f.pc = 5
			if !k.Use(p, trace.LayerATMRx, k.Cost.ATMRxFrameFixed) {
				return
			}
		case 5: // scheduled controller flips, then integrated fixed charge
			if len(d.Adapter.flips) > 0 {
				d.Adapter.flip(nextDatagram, f.del.DG)
			}
			// In integrated mode the device-to-kernel copy computes the
			// payload's partial sums as a side effect; the mbufs carry them.
			f.del.Sum = d.Mode == cost.ChecksumIntegrated
			f.pc = 6
			if f.del.Sum && !k.Use(p, trace.LayerATMRx, k.Cost.IntegratedRxFixed) {
				return
			}
		case 6: // copy into mbufs and enqueue for IP
			f.pc = 7
			p.Call(&f.del)
			return
		case 7: // finish the cell: give back any delivered datagram's
			// buffer, then either drain the next cell or go back to sleep.
			if f.buf != nil {
				k.Env.Arena().Return(f.buf)
				f.buf = nil
			}
			if f.frameEnd && f.framePending {
				f.pc = 0
			} else {
				f.pc = 1
			}
		}
	}
}
