package atm

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/sim"
)

// DefaultSwitchLatency is the fixed per-cell forwarding latency of the
// switch fabric, in the range of early TAXI-based ATM switches (a few
// cell times).
const DefaultSwitchLatency = 5 * sim.Microsecond

// DefaultPortQueueCells bounds each output port's queue. Output-queued
// switches drop on egress congestion; the default is deep enough that
// the experiments only drop under deliberately oversubscribed fan-in.
const DefaultPortQueueCells = 1024

// vcRoute is the egress side of a VC table entry: the output port and
// the VCI the cell leaves with (ATM switches rewrite VCIs per hop). The
// zero value is an empty slot.
type vcRoute struct {
	port int32
	vci  uint16
	set  bool
}

// Switch is a simple output-queued ATM cell switch: hosts attach through
// ports, other switches attach through trunk ports (ConnectTrunk), and a
// VC table maps (ingress port, VCI) to (egress port, VCI). Each egress
// port paces cells onto its fiber at the link rate, so concurrent
// senders to one destination queue at that port — the fan-in contention
// point of a hub topology.
//
// The VC table starts empty and is populated on demand by a Fabric
// (routed topologies install a flow's path when its first datagram is
// segmented) or eagerly by a test harness via AddVC. Its size is
// therefore O(active flows crossing this switch), never O(hosts²). It is
// kept per ingress port, indexed by VCI (see Port.vc): the lookup on
// every forwarded cell is a bounds check and a load, not a hash.
type Switch struct {
	env *sim.Env

	// Latency is the fixed fabric forwarding latency per cell.
	Latency sim.Time
	// PortQueueCells is the egress queue bound; cells arriving at a full
	// queue are dropped (and counted in CellsDropped).
	PortQueueCells int

	// ports indexes the ports, which live in slab: a fabric sizes it to
	// the ports it attaches (newSwitch), so a port is no allocation of its
	// own. Ports never move — adapters, peer trunks, lanes and cut stages
	// hold them by pointer — so a full slab is replaced, not grown (see
	// slabChunk).
	ports []*Port
	slab  []Port
	nvc   int // installed VC table entries, over every port

	// Counters.
	CellsSwitched int64
	CellsUnrouted int64
	CellsDropped  int64
	HECErrors     int64
}

// NewSwitch returns an empty switch scheduling on env.
func NewSwitch(env *sim.Env) *Switch { return newSwitch(env, 0) }

// newSwitch is NewSwitch with room for ports ports, for a fabric that
// knows how many it will attach: the ports and their index are made once.
func newSwitch(env *sim.Env, ports int) *Switch {
	return &Switch{
		env:            env,
		Latency:        DefaultSwitchLatency,
		PortQueueCells: DefaultPortQueueCells,
		ports:          make([]*Port, 0, ports),
		slab:           make([]Port, 0, ports),
	}
}

// Reset returns the switch to its just-constructed state for testbed
// reuse: every port's egress pacing rewinds to idle at time zero with
// its queues emptied, and the counters clear.
// Port attachments and the VC table survive — attachments are the
// topology, and VC entries (whether installed eagerly or on demand) name
// the same routes a fresh lab would install for the same flows, so
// keeping them is invisible to simulated behaviour.
func (sw *Switch) Reset() {
	for _, p := range sw.ports {
		p.tx.reset(sw.env)
		if p.qd != nil {
			p.qd.Reset()
		}
		p.lastOut = 0
		p.down = false
		p.DownDrops = 0
	}
	sw.CellsSwitched, sw.CellsUnrouted, sw.CellsDropped, sw.HECErrors = 0, 0, 0, 0
}

// price sets every port's link rate and propagation delay from model —
// the rewind-time counterpart of AttachPort and ConnectTrunk, for a
// testbed whose next trial runs under a different cost model.
func (sw *Switch) price(model *cost.Model) {
	for _, p := range sw.ports {
		p.bits, p.prop = model.ATMLinkBitsPS, model.ATMPropagation
	}
}

// Port is one switch port: the fiber to a single far end — an attached
// host adapter or a peer switch's trunk port — plus the egress
// transmitter and, for trunk ports, the egress link's VCI allocator.
type Port struct {
	sw    *Switch
	index int
	// out is the far end of the fiber (an *Adapter or a peer *Port);
	// bits and prop are the link's rate and one-way propagation delay,
	// taken from the attached adapter's cost model for host ports and
	// from the model handed to ConnectTrunk for trunk ports.
	out  cellSink
	bits float64
	prop sim.Time

	// vci allocates per-flow VCIs on this egress link for routed
	// fabrics; nil on host-facing ports, whose egress VCI is fixed by
	// the source-naming convention (DefaultVCI + source host index).
	vci *vciAlloc

	// vc is this port's half of the switch's VC table: the route of a
	// cell arriving here with VCI v is vc[v-DefaultVCI]. Every VCI in use
	// is dense from DefaultVCI up — the fabric names host-link channels
	// DefaultVCI+host and allocates trunk channels in order — so the slice
	// is as long as the highest channel ever installed on the port: one
	// entry on a client's access port, the host count on a server's.
	vc []vcRoute

	// tx is the egress queue, its pacing and the fiber: forward commits a
	// cell once and reads the drop-tail depth — or, under a discipline,
	// the cells waiting for the link — off it.
	tx transmitter

	// qd, when installed, replaces the built-in drop-tail depth with a
	// pluggable queue discipline: it decides admission, and the port
	// commits an admitted cell as the built-in path does. Under one that
	// reorders (reorders: a Scheduler, DRR) a committed record is a slot,
	// the link's next cell time, and the discipline picks the cell that
	// fills it when its arrival at the far end fires (see serve). A nil qd
	// leaves the legacy path byte-identical.
	qd Qdisc
	// lastOut is, under a Scheduler, when the last slot served ends: a
	// slot that begins then found the link busy up to its start.
	lastOut sim.Time

	// down marks the port failed (fault injection): cells arriving over
	// its fiber are dropped before the VC lookup until recovery. Cells
	// already committed to the egress queue stay parked and transmit
	// after recovery — a port failure loses wire traffic, not queue
	// memory. The disarmed cost is one boolean test per forwarded cell.
	down     bool
	reorders bool

	// DownDrops counts cells the down-state discarded.
	DownDrops int64
}

// Index returns the port's number on the switch.
func (p *Port) Index() int { return p.index }

// SetDown flips the port's fault state: while down, cells arriving over
// the port's fiber are dropped at ingress.
func (p *Port) SetDown(down bool) { p.down = down }

// Down reports the port's fault state.
func (p *Port) Down() bool { return p.down }

// SetQdisc installs a queue discipline on the port's egress, replacing
// the built-in drop-tail depth; whether it is a Scheduler is settled
// here, once, not per cell. Install before traffic flows; nil restores
// the legacy path. A cut port cannot take a Scheduler (see SetCut).
func (p *Port) SetQdisc(q Qdisc) {
	p.qd = q
	_, p.reorders = q.(Scheduler)
	p.refuseCutScheduler()
}

// refuseCutScheduler panics on a port that is both cut and under a
// Scheduler: a cut fiber stages its cell by value at commit, and the
// discipline picks the cell only when the slot's arrival fires.
func (p *Port) refuseCutScheduler() {
	if p.reorders && p.tx.cut != nil {
		panic("atm: a Scheduler cannot run on a cut port: the cell crosses at commit, before the discipline picks it")
	}
}

// LaneFired implements sim.LaneOwner for the port's one lane, the fiber's
// arrivals.
func (p *Port) LaneFired(*sim.Lane) { p.cellIn() }

// Qdisc returns the installed discipline (nil for the legacy drop-tail
// depth).
func (p *Port) Qdisc() Qdisc { return p.qd }

// Port returns the port at index i.
func (sw *Switch) Port(i int) *Port { return sw.ports[i] }

// serve fills the oldest slot, whose arrival at the far end is firing,
// with the cell the Scheduler serves in it. Cells are equal in size, so a
// work-conserving discipline keeps the FIFO's slot times; every slot from
// the discipline's backlog on still holds the cell committed to it, its
// wait for the link stamped on the record (see forward). The port offers
// the discipline, in arrival order, each one that had reached it when
// this slot's service began, and dequeues into the slot. When none had,
// the link had gone idle, and the slot keeps its own cell: the arrival
// that started the service.
//
// The i-th slot from here, if the link stays busy up to it, begins i cell
// times after this one, so its cell had arrived before this service began
// when it waited more than i cell times, at the very instant when exactly
// i. Such a tie was offered first if the link was busy up to the start and
// the fabric latency is a cell time or more: the tie transmitter.waiting
// breaks. A slot after an idle gap waited less than i cell times.
func (p *Port) serve(s Scheduler) {
	q := &p.tx.q
	end := q.timeAt(0)
	cellTime := cost.WireTime(CellSize, p.bits)
	ties := end-cellTime == p.lastOut && p.sw.Latency >= cellTime
	for i, n := s.Len(), q.len(); i < n; i++ {
		if halves := int(q.stampAt(i)); halves < 2*i || halves == 2*i && !ties {
			break
		}
		c := q.cellAt(i)
		s.Enqueue(c, c.vci())
	}
	s.Dequeue(q.front())
	p.lastOut = end
}

// newPort adds one port, its fiber's lane bound to it.
func (sw *Switch) newPort(out cellSink, bits float64, prop sim.Time) *Port {
	if len(sw.slab) == cap(sw.slab) {
		sw.slab = make([]Port, 0, slabChunk(cap(sw.slab)))
	}
	sw.slab = sw.slab[:len(sw.slab)+1]
	p := &sw.slab[len(sw.slab)-1]
	*p = Port{sw: sw, index: len(sw.ports), out: out, bits: bits, prop: prop}
	p.tx.inLane.Bind(p)
	sw.ports = append(sw.ports, p)
	return p
}

// AttachPort connects an adapter to a new port and returns its index.
func (sw *Switch) AttachPort(a *Adapter) int {
	p := sw.newPort(a, a.K.Cost.ATMLinkBitsPS, a.K.Cost.ATMPropagation)
	a.link = p
	return p.index
}

// ConnectTrunk joins two switches with a duplex inter-switch fiber at
// the model's link rate and returns the new port index on each. Trunk
// ports carry many flows, so each side gets a VCI allocator for its
// egress direction of the link.
//
// A switch cannot trunk to itself: a cell arriving over such a fiber would
// be forwarded into the transmitter it is being delivered from, the one
// thing cellSink's lending rule cannot allow.
func ConnectTrunk(a, b *Switch, model *cost.Model) (aPort, bPort int) {
	if a == b {
		panic("atm: ConnectTrunk joins a switch to itself; a trunk needs two switches")
	}
	pa := a.newPort(nil, model.ATMLinkBitsPS, model.ATMPropagation)
	pb := b.newPort(nil, model.ATMLinkBitsPS, model.ATMPropagation)
	pa.out, pb.out = pb, pa
	pa.vci, pb.vci = &vciAlloc{}, &vciAlloc{}
	return pa.index, pb.index
}

// SetCut diverts this port's egress across a shard boundary: every cell
// forwarded out of it is staged with the cluster coordinator instead of
// being delivered locally; pacing, queue depth and counters are
// untouched. Staged with each cell are at, the far-end arrival a serial
// run would schedule, and scheduleAt, the instant the serial run would
// create that arrival's event, which orders arrivals tied on at: the
// commit. A port under a Scheduler cannot be cut (see serve): its slot
// is filled only when the arrival fires.
func (p *Port) SetCut(stage func(scheduleAt, at sim.Time, c Cell)) {
	p.tx.cut = stage
	p.refuseCutScheduler()
}

// InjectCell delivers a cell that crossed a shard boundary into this
// port as if it had just arrived over the fiber. The cluster coordinator
// schedules the injection in this switch's environment at the staged
// arrival time, mirroring the peer's cellIn. What crosses a cut crosses
// by value: the copy is this call's own.
func (p *Port) InjectCell(c Cell) { p.sw.forward(p, &c) }

// cellIn fires when the cell reaches the far end of the fiber; under a
// Scheduler, the discipline picks it first.
func (p *Port) cellIn() {
	if p.reorders {
		p.serve(p.qd.(Scheduler))
	}
	p.tx.deliver(p.sw.env, p.out)
}

// NumPorts returns the number of attached ports.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// NumVCs returns the number of installed VC table entries — O(active
// flows) in routed fabrics, the quantity the state-sparsity tests pin.
func (sw *Switch) NumVCs() int { return sw.nvc }

// AddVC installs a unidirectional VC table entry: cells arriving on
// inPort with inVCI leave outPort carrying outVCI. VCIs below DefaultVCI
// are reserved and cannot be routed.
func (sw *Switch) AddVC(inPort int, inVCI uint16, outPort int, outVCI uint16) {
	if inPort < 0 || inPort >= len(sw.ports) || outPort < 0 || outPort >= len(sw.ports) {
		panic(fmt.Sprintf("atm: VC %d:%d -> %d:%d references a missing port",
			inPort, inVCI, outPort, outVCI))
	}
	if inVCI < DefaultVCI {
		panic(fmt.Sprintf("atm: VC %d:%d -> %d:%d arrives on a reserved VCI", inPort, inVCI, outPort, outVCI))
	}
	p := sw.ports[inPort]
	i := int(inVCI - DefaultVCI)
	if i >= len(p.vc) {
		p.vc = append(p.vc, make([]vcRoute, i+1-len(p.vc))...)
	}
	if !p.vc[i].set {
		sw.nvc++
	}
	p.vc[i] = vcRoute{port: int32(outPort), vci: outVCI, set: true}
}

// RemoveVC tears one VC table entry down (a route removed by a port
// failure); removing a missing entry is a no-op.
func (sw *Switch) RemoveVC(inPort int, inVCI uint16) {
	if r := sw.ports[inPort].route(inVCI); r != nil {
		*r = vcRoute{}
		sw.nvc--
	}
}

// route returns the installed table entry for a cell arriving on p with
// the given VCI, or nil.
func (p *Port) route(vci uint16) *vcRoute {
	// A reserved VCI wraps to a huge index and misses like any other.
	if i := int(vci - DefaultVCI); i < len(p.vc) && p.vc[i].set {
		return &p.vc[i]
	}
	return nil
}

// deliverCell implements cellSink for a port: a cell arriving over the
// fiber — from an attached host or a peer switch — enters the fabric.
func (p *Port) deliverCell(c *Cell) { p.sw.forward(p, c) }

// forward looks the cell up in the VC table, rewrites the VCI, and
// queues it on the egress port. The egress link paces cells back to back
// at the link rate; the fabric adds its fixed latency up front. The cell
// is the ingress fiber's record of it (see cellSink): the rewrite happens
// there, and the egress queue's copy is the one copy of the hop.
func (sw *Switch) forward(from *Port, c *Cell) {
	if from.down {
		// Failed ingress: the fiber is dark, the cell never enters the
		// fabric. (The egress direction of the same outage is dropped at
		// the far-end adapter's own down flag.)
		from.DownDrops++
		return
	}
	h, err := ParseHeader(c)
	if err != nil {
		// Header corruption on the ingress fiber: the switch's own HEC
		// check discards the cell, surfacing later as a sequence gap.
		sw.HECErrors++
		return
	}
	route := from.route(h.VCI)
	if route == nil {
		sw.CellsUnrouted++
		return
	}
	out := sw.ports[route.port]
	now, cellTime := sw.env.Now(), cost.WireTime(CellSize, out.bits)
	at := now + sw.Latency // when the cell reaches the egress queue
	if out.qd != nil {
		// A discipline decides now what it would decide when the cell
		// reaches it, and the cell is committed like any other.
		if !out.qd.Admit(out.tx.waiting(now, sw.Latency, cellTime)) {
			sw.CellsDropped++
			return
		}
	} else if out.tx.occupied(now) >= sw.PortQueueCells {
		sw.CellsDropped++
		return
	}
	h.VCI = route.vci
	h.Marshal(c) // rewrites the VCI and recomputes the HEC
	sw.CellsSwitched++
	dst := out.tx.slot(sw.env, at, cellTime)
	*dst = *c
	if out.reorders {
		// The cell's wait for the link, from reaching the discipline to its
		// slot's service, as serve reads it: twice the whole cell times,
		// plus one for part of another. Each waiting cell is a record ahead
		// of this one, so the count fits.
		wait := out.tx.busy - cellTime - at
		halves := 2 * (wait / cellTime)
		if wait%cellTime != 0 {
			halves++
		}
		out.tx.q.stampNewest(uint32(halves))
	}
	out.tx.launch(sw.env, dst, out.prop, "atmsw.cellin")
}

// waiting returns how many committed cells would be waiting for the
// engine — admitted, service not yet begun — when a cell forwarded now
// reaches the discipline, lat later. Service begins one cell time before
// the last bit leaves, and every cell still waiting then queued behind its
// predecessor, so the waiting cells are the newest, back to back up to
// busy: their count is arithmetic.
//
// A cell whose service begins at that very instant counts as the evented
// order counts it. One that found the link idle began on its own arrival,
// ahead of this one. One that queued begins when its predecessor's
// completion fires — an event scheduled a cell time earlier, when that
// service began, while this arrival's is scheduled now, lat earlier:
// above a cell time the arrival fires first and the cell still waits;
// below, it has begun. At exactly one cell time both are scheduled at this
// instant, the completion by an event itself scheduled a cell time ago,
// after the forwarding event was (a fiber books an arrival at commit, a
// cell time and the propagation delay ahead), so the cell still waits.
//
// Like the built-in depth's probe, it advances occupied's cursor, which a
// cut fiber's slot needs to release the records that left.
func (t *transmitter) waiting(now, lat, cellTime sim.Time) int {
	t.occupied(now)
	at := now + lat
	d := t.busy - at
	if d <= 0 {
		return 0
	}
	n := int((d - 1) / cellTime)
	if d%cellTime == 0 && lat >= cellTime {
		// The tie is the (d/cellTime)-th newest cell; it queued if its
		// predecessor's last bit leaves at the instant its service begins.
		if i := t.q.len() - int(d/cellTime) - 1; i >= 0 && t.q.timeAt(i) == at {
			n++
		}
	}
	return n
}

// vciAlloc hands out per-flow VCIs on one egress direction of a trunk
// link, recycling torn-down values so the 16-bit space bounds the number
// of *simultaneous* flows on the link, not the number ever set up.
type vciAlloc struct {
	next uint16
	free []uint16
}

// get allocates the next VCI on the link.
func (a *vciAlloc) get() uint16 {
	if n := len(a.free); n > 0 {
		v := a.free[n-1]
		a.free = a.free[:n-1]
		return v
	}
	if a.next == 0 {
		a.next = DefaultVCI
	}
	v := a.next
	if v == 0xffff {
		panic("atm: trunk link out of VCIs (65503 simultaneous flows)")
	}
	a.next++
	return v
}

// put returns a torn-down VCI to the link's pool.
func (a *vciAlloc) put(v uint16) { a.free = append(a.free, v) }
