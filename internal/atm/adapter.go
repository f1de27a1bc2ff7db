package atm

import (
	"encoding/binary"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/sim"
)

// FIFO capacities of the FORE TCA-100 (§1.1: "a memory mapped receive
// FIFO that stores up to 292 53-byte ATM cells, and a similar transmit
// FIFO that stores up to 36 cells").
const (
	TxFIFOCells = 36
	RxFIFOCells = 292
)

// RxDrainThreshold is the FIFO occupancy at which the adapter raises a
// receive interrupt even without a completed frame. Without it, a burst
// that overflows the FIFO and loses an end-of-frame cell would leave the
// FIFO permanently full and the driver permanently asleep; real adapters
// interrupt on occupancy thresholds for exactly this reason.
const RxDrainThreshold = 200

// cellSink is the far end of a fiber: the peer adapter (the paper's
// switchless lab), a switch port, or a peer switch's trunk port.
//
// The cell is the caller's and is valid until deliverCell returns: it is
// the transmitter's own record of it, handed over where it lies and
// dropped when the sink comes back. A sink may write it — a switch
// rewrites the VCI and HEC there, link noise flips its bit there — and
// must copy what it keeps: the receive FIFO, a cell held back for
// reordering, a discipline's queue and an egress transmitter each take
// their copy, which is the one copy a cell costs a hop. The one way to
// break the rule is a sink committing into the very transmitter it is
// being delivered from, which takes a trunk from a switch to itself;
// ConnectTrunk refuses that.
type cellSink interface {
	deliverCell(c *Cell)
}

// fifo is a queue of cells with a head index, so popping neither shifts
// the backing array nor allocates: the array empties back to index zero
// whenever the queue drains, and compacts when the dead prefix dominates.
// It keeps its array while empty, which suits the queue disciplines — a
// few per fabric, busy for a whole trial; the per-host and per-port
// queues are cellQueues, which do not. It owns its cells: push copies the
// caller's in, popInto copies the oldest out to where the caller wants it.
type fifo struct {
	buf  []Cell
	head int
}

func (q *fifo) push(c *Cell) { q.buf = append(q.buf, *c) }

func (q *fifo) len() int { return len(q.buf) - q.head }

// popInto moves the oldest cell to dst.
func (q *fifo) popInto(dst *Cell) {
	*dst = q.buf[q.head]
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head >= 128 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
}

// recSize is the stride of a cellQueue record: a time (little-endian,
// seven bytes, so below 2^56 ns — two years), a stamp (four bytes: on a
// switchless pair's transmitter one from sim.Env.Stamp, see
// Adapter.LaunchTx; on a switch port under a Scheduler the cell's wait,
// see Switch.forward; unwritten elsewhere), then the cell — 64 bytes, a
// power of two.
const (
	recSize  = 64
	recStamp = 7  // offset of the stamp
	recCell  = 11 // offset of the cell
	timeMask = 1<<56 - 1
)

// cellQueue is a FIFO of cells, each stamped with a time — when its last
// bit leaves a transmitter, when it arrived in a receive FIFO. Unlike
// fifo it owns no memory while empty: its records live in a buffer from
// the event loop's arena, taken when the first cell is queued and given
// back when the last one leaves, so the ten thousand adapters and ports
// of a large fabric that carry a few cells, once, share a handful of
// buffers instead of each keeping a ring. Cells are bytes; so is this.
type cellQueue struct {
	buf  []byte // records at buf[head:], oldest first; nil while empty
	head int
}

func (q *cellQueue) len() int { return (len(q.buf) - q.head) / recSize }

// timeAt returns the time stamped on the i-th oldest record.
func (q *cellQueue) timeAt(i int) sim.Time {
	return sim.Time(binary.LittleEndian.Uint64(q.buf[q.head+i*recSize:]) & timeMask)
}

// stampAt returns the stamp on the i-th oldest record.
func (q *cellQueue) stampAt(i int) uint32 {
	return binary.LittleEndian.Uint32(q.buf[q.head+i*recSize+recStamp:])
}

// stampNewest writes s on the newest record.
func (q *cellQueue) stampNewest(s uint32) {
	binary.LittleEndian.PutUint32(q.buf[len(q.buf)-recSize+recStamp:], s)
}

// append adds a record stamped t and returns its cell, which holds
// whatever the buffer held before: the caller writes every byte of it, at
// once — the pointer is good until the next append or drop.
func (q *cellQueue) append(a *sim.Arena, t sim.Time) *Cell {
	n := len(q.buf)
	if n+recSize > cap(q.buf) {
		q.makeRoom(a)
		n = len(q.buf)
	}
	if uint64(t) > timeMask {
		panic("atm: cell stamped past 2^56 ns")
	}
	q.buf = q.buf[:n+recSize]
	r := (*[recSize]byte)(q.buf[n:])
	binary.LittleEndian.PutUint64(r[:8], uint64(t))
	return (*Cell)(r[recCell:recSize])
}

// push appends a copy of c, stamped t.
func (q *cellQueue) push(a *sim.Arena, t sim.Time, c *Cell) { *q.append(a, t) = *c }

// makeRoom is push's slow path: slide the records down over the dead
// prefix when that frees at least half the buffer, else move them to one
// twice the size.
func (q *cellQueue) makeRoom(a *sim.Arena) {
	live := q.buf[q.head:]
	if q.head > 0 && q.head*2 >= cap(q.buf) {
		q.buf = q.buf[:copy(q.buf, live)]
	} else {
		nb := append(a.Get(max(2*cap(q.buf), 8*recSize)), live...)
		a.Put(q.buf)
		q.buf = nb
	}
	q.head = 0
}

// cellAt returns the i-th oldest record's cell where it lies in the
// queue. The record is the queue's until it is dropped; whoever is lent
// the pointer (see cellSink) has it until then and no longer.
func (q *cellQueue) cellAt(i int) *Cell {
	r := q.head + i*recSize
	return (*Cell)(q.buf[r+recCell : r+recSize])
}

// front returns the oldest record's cell (see cellAt).
func (q *cellQueue) front() *Cell { return q.cellAt(0) }

// drop removes the oldest record. Under the arena's Poison flag the bytes
// it releases are overwritten at once, as a returned buffer's are, so that
// a sink that kept the pointer it was lent reads 0xDB and not a cell that
// happens to be still there.
func (q *cellQueue) drop(a *sim.Arena) {
	if a.Poison {
		r := q.buf[q.head : q.head+recSize]
		for i := range r {
			r[i] = 0xDB
		}
	}
	q.head += recSize
	if q.head == len(q.buf) {
		q.reset(a)
	}
}

// reset empties the queue, giving its buffer back.
func (q *cellQueue) reset(a *sim.Arena) {
	a.Put(q.buf)
	q.buf, q.head = nil, 0
}

// transmitter is a FIFO transmit engine and the fibre behind it: the
// adapter's TX FIFO, a switch port's egress. Like the kernel's CPU it is
// a busy-until cursor. A cell's completion time is fixed when it is
// committed, so the one event it costs is its arrival at the far end, on
// inLane (completions never decrease, so neither do arrivals), and
// "transmit complete" is not an event: how many cells the engine still
// holds is read off the queue's completion times by a forward-only cursor.
//
// A cell is committed in two steps, the same two on every fibre: slot
// books the engine and returns the new record's cell for the committer to
// write in place — the driver cuts it there, a switch copies the ingress
// record there — and launch sends it on its way. From then the record is
// the transmitter's alone, until its arrival fires and deliver lends it to
// the far end for the length of one call and drops it.
//
// On a switchless pair's fibre a cell's arrival is an event only when the
// receiving host could notice it then (see Adapter.LaunchTx). Every record
// there carries the stamp of its arrival's key, and the rest wait in q
// until the receiver looks or a later arrival fires: deliverDue hands over,
// oldest first, each one whose key has passed.
type transmitter struct {
	busy sim.Time // when the engine finishes the last cell committed
	// q holds every committed cell still short of the far end, oldest
	// first, stamped with when its last bit leaves; the first left of them
	// had left the engine at the last probe.
	q      cellQueue
	left   int
	inLane sim.Lane

	// cut, when set, marks the far end of the fibre as living in another
	// shard: launch stages the cell with the cluster's barrier (see
	// Port.SetCut), by value, instead of scheduling its arrival here.
	cut func(scheduleAt, at sim.Time, c Cell)
}

// occupied returns how many cells the engine holds at now. A slot is
// free from the instant its cell's last bit leaves, inclusive.
func (t *transmitter) occupied(now sim.Time) int {
	n := t.q.len()
	for t.left < n && t.q.timeAt(t.left) <= now {
		t.left++
	}
	return n - t.left
}

// freeAt returns when the oldest cell occupied counted leaves the engine.
func (t *transmitter) freeAt() sim.Time { return t.q.timeAt(t.left) }

// slot books the engine for one more cell, behind what it is already
// sending and no earlier than ready, and returns its record's cell,
// stamped with when its last bit leaves, for the caller to write and then
// launch.
func (t *transmitter) slot(env *sim.Env, ready, cellTime sim.Time) *Cell {
	t.busy = max(t.busy, ready) + cellTime
	if t.cut != nil {
		// No arrival fires here to drop a record: it stays only while it
		// occupies the engine.
		for ; t.left > 0; t.left-- {
			t.q.drop(env.Arena())
		}
	}
	return t.q.append(env.Arena(), t.busy)
}

// launch books the arrival of c, the cell slot just returned and the
// caller has now written, prop after its last bit.
func (t *transmitter) launch(env *sim.Env, c *Cell, prop sim.Time, name string) {
	if t.cut != nil {
		t.cut(env.Now(), t.busy+prop, *c)
		return
	}
	t.inLane.At(env, t.busy+prop, name)
}

// deliver hands the far end the oldest cell, whose arrival is firing,
// where it lies in the queue, and drops the record when the sink returns.
func (t *transmitter) deliver(env *sim.Env, to cellSink) {
	to.deliverCell(t.q.front())
	t.pop(env)
}

// deliverDue hands a switchless pair's far end, in order and where each
// lies, every cell whose arrival key — its last bit's time plus prop, and
// its stamp — precedes the running activity's, through the receive path
// an arrival event runs, and drops each record when it returns.
func (t *transmitter) deliverDue(env *sim.Env, to *Adapter, prop sim.Time) {
	for t.q.len() > 0 {
		at := t.q.timeAt(0) + prop
		if !env.Precedes(at, t.q.stampAt(0)) {
			return
		}
		to.receive(t.q.front(), at)
		t.pop(env)
	}
}

// pop drops the oldest record, once its cell has been delivered.
func (t *transmitter) pop(env *sim.Env) {
	if t.left > 0 {
		t.left--
	}
	t.q.drop(env.Arena())
}

// reset rewinds the engine to idle at time zero with nothing queued.
func (t *transmitter) reset(env *sim.Env) {
	t.q.reset(env.Arena())
	t.busy, t.left = 0, 0
}

// Adapter models one TCA-100: the transmit FIFO feeding the wire and the
// receive FIFO filled from the wire. The transmit engine "starts reading
// from the transmit FIFO as soon as there is one complete cell in the
// FIFO" — there is no send doorbell; pushing a cell is the trigger.
type Adapter struct {
	K    *kern.Kernel
	link cellSink

	tx transmitter // the transmit FIFO, its engine and the fiber
	// rxFIFO holds the received cells, each stamped with its wire-arrival
	// time; frames counts the frame-ending cells among them, and frameAt
	// is the stamp of the last cell popped — when that cell ends a frame,
	// the frame's arrival.
	rxFIFO  cellQueue
	frames  int
	frameAt sim.Time

	// RxReady is woken when a frame-ending cell lands in the receive
	// FIFO: the adapter's receive interrupt.
	RxReady sim.WaitQueue

	// dropNext forces the next wire cell to be lost (see DropNext).
	dropNext bool

	// Link impairment layer, configured via SetImpairments while the
	// fibre is idle: a Gilbert–Elliott loss chain (cell loss — the paper
	// notes "the ATM network does not guarantee freedom from cell loss" —
	// independent in its Good state, bursty in its Bad one) and bounded
	// cell reordering. Every draw comes from a per-link RNG seeded at
	// configuration, never the environment's stream, so enabling one
	// perturbs no other random draw. A switchless pair decides at launch
	// whether a cell's arrival is an event by reading them (LaunchTx).
	ge           sim.GEChain
	reorderRate  float64
	reorderDepth int
	impRNG       sim.RNG // reordering draws
	held         Cell    // cell held back for reordering
	heldValid    bool
	heldLeft     int // deliveries remaining before the held cell is released
	// heldFlush releases a held cell the wire went quiet on. SetImpairments
	// makes it, so only links that reorder carry a timer.
	heldFlush *sim.Timer

	// flips are the scheduled bit flips not yet applied: wire flips
	// (FlipLaunched), each a bit of the cell CellsSent will number, and
	// controller flips (Driver.FlipNext), each a bit of the next datagram
	// the driver reassembles.
	flips []bitFlip

	// down marks the host's access link failed (fault injection): every
	// arriving cell is dropped at the adapter until the link recovers.
	// Cells already accepted into the FIFOs stay parked — a link outage
	// loses wire traffic, not adapter memory — and the disarmed cost is
	// one boolean test on the receive path.
	down bool

	// Counters.
	CellsSent      int64
	CellsRecv      int64 // admitted to the receive FIFO
	CellsDropped   int64 // lost on the wire or to a full receive FIFO
	CellsCorrupted int64 // launched with a scheduled wire flip
	RxOverflows    int64
	GEDrops        int64 // subset of CellsDropped killed by the burst-loss chain
	CellsReordered int64
	DownDrops      int64 // subset of CellsDropped killed by link down-state
}

// NewAdapter returns an adapter attached to the given host kernel.
func NewAdapter(k *kern.Kernel) *Adapter { return new(Adapter).Init(k) }

// Init readies a zero Adapter in place, as NewAdapter does, and returns
// it.
func (a *Adapter) Init(k *kern.Kernel) *Adapter {
	a.K = k
	a.RxReady.Init("atm.rx")
	a.tx.inLane.Bind(a)
	return a
}

// Reset returns the adapter to its just-constructed state for testbed
// reuse: FIFOs and in-flight queues emptied (their storage back in the
// loop's arena), the transmit engine idle at time zero, fault-injection
// knobs back to default, counters cleared. The wait queues survive with
// the driver's service process still parked on RxReady — part of the
// topology, not the trial.
func (a *Adapter) Reset() {
	a.tx.reset(a.K.Env)
	a.rxFIFO.reset(a.K.Env.Arena())
	a.frames, a.frameAt = 0, 0
	a.dropNext = false
	a.ge = sim.GEChain{}
	a.reorderRate, a.reorderDepth = 0, 0
	a.heldValid, a.heldLeft = false, 0
	a.flips = a.flips[:0]
	a.down = false
	a.CellsSent, a.CellsRecv, a.CellsDropped, a.CellsCorrupted, a.RxOverflows = 0, 0, 0, 0, 0
	a.GEDrops, a.CellsReordered, a.DownDrops = 0, 0, 0
}

// SetDown flips the access link's fault state: while down, every cell
// arriving over the fiber is dropped before the impairment layer. Both
// ends of a link go down together (the lab flips the peer adapter or
// switch port), so the outage is symmetric. Cells that arrived before the
// flip are received first, under the state they arrived in.
func (a *Adapter) SetDown(down bool) {
	a.drain()
	a.down = down
}

// DropNext forces the next cell to arrive over the fibre to be lost, for
// deterministic loss tests: the next after every cell already arrived,
// which drain receives first.
func (a *Adapter) DropNext() {
	a.drain()
	a.dropNext = true
}

// Down reports the link's fault state.
func (a *Adapter) Down() bool { return a.down }

// SetImpairments configures the link impairment layer: a Gilbert–Elliott
// loss chain (p) and bounded reordering (each arriving cell held back
// past the next depth deliveries with probability rate). Both are seeded
// per link from seed; zero parameters disable the layer entirely,
// leaving the receive path byte-identical to an unimpaired adapter.
func (a *Adapter) SetImpairments(p sim.GEParams, rate float64, depth int, seed uint64) {
	a.ge.Init(p, seed)
	a.reorderRate = rate
	if rate > 0 && a.heldFlush == nil {
		a.heldFlush = new(sim.Timer)
		a.heldFlush.Bind(a)
	}
	if depth <= 0 {
		depth = 1
	}
	a.reorderDepth = depth
	a.impRNG = *sim.NewRNG(seed ^ 0x5bf03635aca3c1ed)
	a.heldValid, a.heldLeft = false, 0
}

// bitFlip is one scheduled flip: bit bit of the cell numbered cell in
// the adapter's launch count, or, when cell is nextDatagram, of the next
// datagram the driver reassembles. Bits are numbered in the order the
// fibre carries them, the most significant of the first byte first.
type bitFlip struct {
	cell int64
	bit  int
}

const nextDatagram = -1

// FlipLaunched schedules a wire flip (sim.FaultWireFlip): bit bit of the
// cell stream this adapter launches from now on — bit bit%424 of the
// cell bit/424 after those already launched — is flipped on the fibre.
func (a *Adapter) FlipLaunched(bit int) {
	n := int64(bit / (CellSize * 8))
	a.flips = append(a.flips, bitFlip{cell: a.CellsSent + n, bit: bit % (CellSize * 8)})
}

// flip applies to b the scheduled flips of cell — the number of the cell
// TxCell last returned, or nextDatagram for a datagram on its way to host
// memory — and reports whether there were any. A bit past b's end flips
// nothing.
func (a *Adapter) flip(cell int64, b []byte) bool {
	hit := false
	kept := a.flips[:0]
	for _, f := range a.flips {
		if f.cell != cell {
			kept = append(kept, f)
			continue
		}
		if f.bit < len(b)*8 {
			b[f.bit/8] ^= 0x80 >> (f.bit % 8)
		}
		hit = true
	}
	a.flips = kept
	return hit
}

// SetCut diverts this adapter's transmit fiber across a shard boundary
// (see Port.SetCut).
func (a *Adapter) SetCut(stage func(scheduleAt, at sim.Time, c Cell)) { a.tx.cut = stage }

// InjectCell delivers a cell that crossed a shard boundary into this
// adapter as if it had just arrived over the fiber. What crosses a cut
// crosses by value: the copy is this call's own.
func (a *Adapter) InjectCell(c Cell) {
	a.drain()
	a.receive(&c, a.K.Env.Now())
}

// LaneFired implements sim.LaneOwner for the adapter's one lane, the
// transmit fiber's: a cell's propagation delay has elapsed, so deliver it
// to the far end — on a switchless pair, with the quiet cells ahead of it.
func (a *Adapter) LaneFired(*sim.Lane) {
	if peer := a.pair(); peer != nil {
		a.tx.deliverDue(a.K.Env, peer, a.K.Cost.ATMPropagation)
		return
	}
	a.tx.deliver(a.K.Env, a.link)
}

// pair returns the adapter at the far end of a's transmit fibre when
// Connect joined the two and no shard boundary cuts it: the one fibre
// whose arrivals need not all be events.
func (a *Adapter) pair() *Adapter {
	if p, ok := a.link.(*Adapter); ok && a.tx.cut == nil {
		return p
	}
	return nil
}

// drain receives the cells that have arrived from a switchless peer
// without an event of their own: everything a reader of the receive side
// may see, or a writer of it affect, is first brought up to the running
// activity's key.
func (a *Adapter) drain() {
	if p, ok := a.link.(*Adapter); ok && p.tx.cut == nil {
		p.tx.deliverDue(a.K.Env, a, p.K.Cost.ATMPropagation)
	}
}

// Connect joins two adapters with a duplex fiber — the switchless
// configuration of the paper's lab. Topologies with more than two hosts
// attach each adapter to a Switch port instead.
func Connect(a, b *Adapter) {
	a.link = b
	b.link = a
}

// deliverCell implements cellSink: a cell arriving over the fiber.
func (a *Adapter) deliverCell(c *Cell) { a.receive(c, a.K.Env.Now()) }

// CellTime returns the wire occupancy of one cell at the model's TAXI
// link rate.
func (a *Adapter) CellTime() sim.Time {
	return cost.WireTime(CellSize, a.K.Cost.ATMLinkBitsPS)
}

// TxSpace returns the free cell slots in the transmit FIFO: a slot frees
// the instant the engine clocks its cell's last bit out.
func (a *Adapter) TxSpace() int { return TxFIFOCells - a.tx.occupied(a.K.Env.Now()) }

// TxFreeAt returns when the next slot frees, for a driver that found
// TxSpace zero: a known instant, so the stall is a sleep, not a wait.
func (a *Adapter) TxFreeAt() sim.Time { return a.tx.freeAt() }

// TxCell takes the next slot of the transmit FIFO and returns its cell:
// the FIFO is memory-mapped, and the caller (the driver) writes the cell
// where the engine will read it — every byte, at once — then calls
// LaunchTx. The caller must have verified TxSpace; taking a slot of a
// full FIFO panics because on the real hardware it would corrupt the
// frame.
func (a *Adapter) TxCell() *Cell {
	if a.TxSpace() <= 0 {
		panic("atm: transmit FIFO overflow")
	}
	a.CellsSent++
	return a.tx.slot(a.K.Env, a.K.Env.Now(), a.CellTime())
}

// LaunchTx sends c, the cell TxCell last returned, now written. Its one
// event, the far-end arrival, rides the adapter's lane, and its bytes stay
// where the driver put them until that arrival has been delivered:
// transmission neither allocates nor copies per cell.
//
// A scheduled wire flip (FlipLaunched) that names the cell is applied
// here, to the fibre's copy.
//
// On a switchless pair (Connect) the arrival is an event only when the
// receiving host could notice it at that instant: when the cell ends a
// frame, when it could bring the receive FIFO to RxDrainThreshold (the
// FIFO now, plus every cell on the fibre, this one included), when a
// scheduled flip hit it, or when the receiver reorders, which sets a
// timer on arrival. Loss does not force an event: the loss chain draws
// its own per-link stream in arrival order, whenever the cell is
// received. Any other cell is quiet: it waits in the transmit queue with
// its arrival's stamp until the receiver looks (drain) or a later arrival
// fires, and is then received at its own key by the same path. Every
// record on the pair's fibre is stamped, an evented one just ahead of its
// lane entry's number, so one comparison tells either kind due.
func (a *Adapter) LaunchTx(c *Cell) {
	env, prop := a.K.Env, a.K.Cost.ATMPropagation
	flipped := len(a.flips) > 0 && a.flip(a.CellsSent-1, c[:])
	if flipped {
		a.CellsCorrupted++
	}
	peer := a.pair()
	if peer == nil {
		a.tx.launch(env, c, prop, "atm.cellin")
		return
	}
	a.tx.q.stampNewest(env.Stamp())
	if IsFrameEnd(c) || flipped || peer.reorderRate > 0 ||
		peer.rxFIFO.len()+a.tx.q.len() >= RxDrainThreshold {
		a.tx.inLane.At(env, a.tx.busy+prop, "atm.cellin")
	}
}

// receive handles a cell arriving from the wire at time at: the
// impairment layer (the loss chain, then bounded reordering) runs first,
// then accept hands surviving cells to the FIFO. With no impairments
// configured the path is a direct call to accept — byte-identical to an
// unimpaired adapter. A quiet arrival on a switchless pair is received
// here after its time, from drain; it reaches neither the reordering,
// which is an event's, nor a wake.
func (a *Adapter) receive(c *Cell, at sim.Time) {
	if a.down {
		a.CellsDropped++
		a.DownDrops++
		return
	}
	if a.ge.Enabled() && a.ge.Drop() {
		a.CellsDropped++
		a.GEDrops++
		return
	}
	if a.reorderRate > 0 {
		if a.heldValid {
			// A cell is being held back: this arrival overtakes it, and
			// the held cell is released once its countdown expires.
			a.heldLeft--
			if a.heldLeft <= 0 {
				a.heldValid = false
				a.accept(c, at)
				a.accept(&a.held, at)
				return
			}
		} else if a.impRNG.Bool(a.reorderRate) {
			a.held = *c
			a.heldValid = true
			a.heldLeft = a.reorderDepth
			a.CellsReordered++
			// Backstop against stranding: if the held cell is the link's
			// last traffic, no later arrival will ever decrement the
			// countdown, so a timer releases it once the wire has been
			// quiet longer than a full back-to-back countdown would take.
			// Arrivals that complete the countdown first leave the timer
			// to no-op.
			wait := sim.Time(a.reorderDepth+1) * a.CellTime()
			a.heldFlush.Set(a.K.Env, a.K.Env.Now()+wait, "atm.reorder.flush")
			return
		}
	}
	a.accept(c, at)
}

// TimerFired implements sim.TimerOwner for heldFlush, the held cell's
// release timer: if the hold is still pending, deliver the cell rather
// than strand it as silent uncounted loss.
func (a *Adapter) TimerFired(*sim.Timer) {
	if !a.heldValid {
		return // later arrivals completed the countdown first
	}
	a.heldValid = false
	a.accept(&a.held, a.K.Env.Now())
}

// accept runs the adapter's receive path past reordering: the forced
// drop, then FIFO admission — the receive FIFO's record is the host's
// copy of the cell, stamped with at, its arrival — and the frame-end
// interrupt.
func (a *Adapter) accept(c *Cell, at sim.Time) {
	if a.dropNext {
		a.dropNext = false
		a.CellsDropped++
		return
	}
	if a.rxFIFO.len() >= RxFIFOCells {
		a.RxOverflows++
		a.CellsDropped++
		return
	}
	a.rxFIFO.push(a.K.Env.Arena(), at, c)
	a.CellsRecv++
	if IsFrameEnd(c) {
		// Frame-ending cell: raise the interrupt. The arrival time queued
		// with the cell is what the driver stamps the completed
		// datagram's wire-arrival event with — the paper's
		// receive-measurement origin ("the arrival of the last group of
		// ATM cells comprising the last TCP segment").
		a.frames++
		a.RxReady.Wake()
	} else if a.rxFIFO.len() >= RxDrainThreshold {
		// Occupancy interrupt: make the driver drain before overflow.
		a.RxReady.Wake()
	}
}

// IsFrameEnd reports whether the cell's segment type terminates an AAL3/4
// frame (EOM or SSM). The adapter interrupts per frame, not per cell.
func IsFrameEnd(c *Cell) bool {
	st := c.Payload()[0] >> 6
	return st == segEOM || st == segSSM
}

// FramesPending returns the number of complete frames whose cells are
// waiting in the receive FIFO.
func (a *Adapter) FramesPending() int {
	a.drain()
	return a.frames
}

// ConsumeFrameEnd is called by the driver when the cell it last popped
// ends a frame, balancing the count incremented on arrival. It returns
// the virtual time that cell arrived from the wire — the receive-side
// measurement origin for the frame it terminates.
func (a *Adapter) ConsumeFrameEnd() sim.Time {
	if a.frames == 0 {
		panic("atm: frame-pending underflow")
	}
	a.frames--
	return a.frameAt
}

// TxIdleAt returns the time the transmit engine finishes clocking out
// everything pushed so far — after the final cell of a frame is pushed,
// the instant that frame's last bit leaves for the wire.
func (a *Adapter) TxIdleAt() sim.Time { return a.tx.busy }

// RxAvail returns the number of cells waiting in the receive FIFO.
func (a *Adapter) RxAvail() int {
	a.drain()
	return a.rxFIFO.len()
}

// PopRxInto moves the oldest cell of the receive FIFO to dst, reporting
// false (dst untouched) when the FIFO is empty.
func (a *Adapter) PopRxInto(dst *Cell) bool {
	a.drain()
	if a.rxFIFO.len() == 0 {
		return false
	}
	a.frameAt = a.rxFIFO.timeAt(0)
	*dst = *a.rxFIFO.front()
	a.rxFIFO.drop(a.K.Env.Arena())
	return true
}

// PopRx is PopRxInto by value, for callers outside the cell path.
func (a *Adapter) PopRx() (c Cell, ok bool) {
	ok = a.PopRxInto(&c)
	return c, ok
}
