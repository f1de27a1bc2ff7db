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
// caller's in, popInto copies the oldest out to where the caller wants it,
// and front lends it only until the next push or drop.
type fifo struct {
	buf  []Cell
	head int
}

func (q *fifo) push(c *Cell) { q.buf = append(q.buf, *c) }

// reset empties the queue, retaining the backing array.
func (q *fifo) reset() { q.buf, q.head = q.buf[:0], 0 }

func (q *fifo) len() int { return len(q.buf) - q.head }

// front returns the oldest cell where it lies in the queue.
func (q *fifo) front() *Cell { return &q.buf[q.head] }

// drop removes the oldest cell.
func (q *fifo) drop() {
	q.head++
	switch {
	case q.head == len(q.buf):
		q.buf, q.head = q.buf[:0], 0
	case q.head >= 128 && q.head*2 >= len(q.buf):
		n := copy(q.buf, q.buf[q.head:])
		q.buf, q.head = q.buf[:n], 0
	}
}

// popInto moves the oldest cell to dst.
func (q *fifo) popInto(dst *Cell) {
	*dst = *q.front()
	q.drop()
}

// recSize is the stride of a cellQueue record: a time (little-endian,
// eight bytes), the cell, and padding to a power of two.
const recSize = 64

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
	return sim.Time(binary.LittleEndian.Uint64(q.buf[q.head+i*recSize:]))
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
	q.buf = q.buf[:n+recSize]
	r := (*[recSize]byte)(q.buf[n:])
	binary.LittleEndian.PutUint64(r[:8], uint64(t))
	return (*Cell)(r[8 : 8+CellSize])
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

// front returns the oldest record's cell where it lies in the queue. The
// record is the queue's until it is dropped; whoever is lent the pointer
// (see cellSink) has it until then and no longer.
func (q *cellQueue) front() *Cell {
	return (*Cell)(q.buf[q.head+8 : q.head+8+CellSize])
}

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
type transmitter struct {
	busy sim.Time // when the engine finishes the last cell committed
	// q holds every committed cell still short of the far end, oldest
	// first, stamped with when its last bit leaves; the first left of them
	// had left the engine at the last probe.
	q      cellQueue
	left   int
	inLane sim.Lane

	// cut, when set, marks the far end of the fibre as living in another
	// shard: launch stages the cell with the cluster coordinator (see
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

// reserve books the engine for one cell, behind what it is already
// sending and no earlier than ready, and returns when its last bit leaves.
func (t *transmitter) reserve(ready, cellTime sim.Time) sim.Time {
	if t.busy > ready {
		ready = t.busy
	}
	t.busy = ready + cellTime
	return t.busy
}

// slot reserves the engine for one more cell, ready no earlier than ready,
// and returns its record's cell, stamped with when its last bit leaves, for
// the caller to write and then launch.
func (t *transmitter) slot(env *sim.Env, ready, cellTime sim.Time) *Cell {
	end := t.reserve(ready, cellTime)
	if t.cut != nil {
		// No arrival fires here to drop a record: it stays only while it
		// occupies the engine.
		for ; t.left > 0; t.left-- {
			t.q.drop(env.Arena())
		}
	}
	return t.q.append(env.Arena(), end)
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

	// LossRate drops each wire cell with this probability (fault
	// injection; the paper notes "the ATM network does not guarantee
	// freedom from cell loss").
	LossRate float64
	// DropNext forces the next wire cell to be lost, for deterministic
	// loss tests.
	DropNext bool
	// CorruptRate flips one random bit of each arriving cell with this
	// probability — link noise for the §4.2.1 error study. Header bits
	// are caught by the HEC, payload bits by the AAL3/4 CRC-10.
	CorruptRate float64

	// Link impairment layer, configured via SetImpairments: a
	// Gilbert–Elliott burst-loss chain and bounded cell reordering,
	// layered ahead of the Bernoulli LossRate knob. Both draw from
	// per-link RNGs seeded at configuration, never the environment's
	// stream, so enabling them perturbs no other random draw.
	ge           sim.GEChain
	reorderRate  float64
	reorderDepth int
	impRNG       sim.RNG
	held         Cell // cell held back for reordering
	heldValid    bool
	heldLeft     int // deliveries remaining before the held cell is released
	// heldFlush releases a held cell the wire went quiet on. SetImpairments
	// makes it, so only links that reorder carry a timer.
	heldFlush *sim.Timer

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
	CellsCorrupted int64
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
	a.LossRate, a.DropNext, a.CorruptRate = 0, false, 0
	a.ge = sim.GEChain{}
	a.reorderRate, a.reorderDepth = 0, 0
	a.heldValid, a.heldLeft = false, 0
	a.down = false
	a.CellsSent, a.CellsRecv, a.CellsDropped, a.CellsCorrupted, a.RxOverflows = 0, 0, 0, 0, 0
	a.GEDrops, a.CellsReordered, a.DownDrops = 0, 0, 0
}

// SetDown flips the access link's fault state: while down, every cell
// arriving over the fiber is dropped before the impairment layer. Both
// ends of a link go down together (the lab flips the peer adapter or
// switch port), so the outage is symmetric.
func (a *Adapter) SetDown(down bool) { a.down = down }

// Down reports the link's fault state.
func (a *Adapter) Down() bool { return a.down }

// SetImpairments configures the link impairment layer: a Gilbert–Elliott
// burst-loss chain (p) and bounded reordering (each arriving cell is
// held back past the next depth deliveries with probability rate). Both
// are seeded per link from seed; a zero GEParams and zero rate disable
// the layer entirely, leaving the receive path byte-identical to an
// unimpaired adapter.
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

// SetCut diverts this adapter's transmit fiber across a shard boundary
// (see Port.SetCut).
func (a *Adapter) SetCut(stage func(scheduleAt, at sim.Time, c Cell)) { a.tx.cut = stage }

// InjectCell delivers a cell that crossed a shard boundary into this
// adapter as if it had just arrived over the fiber. What crosses a cut
// crosses by value: the copy is this call's own.
func (a *Adapter) InjectCell(c Cell) { a.receive(&c) }

// LaneFired implements sim.LaneOwner for the adapter's one lane, the
// transmit fiber's: a cell's propagation delay has elapsed, so deliver it
// to the far end.
func (a *Adapter) LaneFired(*sim.Lane) { a.tx.deliver(a.K.Env, a.link) }

// Connect joins two adapters with a duplex fiber — the switchless
// configuration of the paper's lab. Topologies with more than two hosts
// attach each adapter to a Switch port instead.
func Connect(a, b *Adapter) {
	a.link = b
	b.link = a
}

// deliverCell implements cellSink: a cell arriving over the fiber.
func (a *Adapter) deliverCell(c *Cell) { a.receive(c) }

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
func (a *Adapter) LaunchTx(c *Cell) {
	a.tx.launch(a.K.Env, c, a.K.Cost.ATMPropagation, "atm.cellin")
}

// receive handles a cell arriving from the wire: the impairment layer
// (burst loss, then bounded reordering) runs first, then accept hands
// surviving cells to the FIFO. With no impairments configured the path
// is a direct call to accept — byte-identical to an unimpaired adapter.
func (a *Adapter) receive(c *Cell) {
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
				a.accept(c)
				a.accept(&a.held)
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
	a.accept(c)
}

// TimerFired implements sim.TimerOwner for heldFlush, the held cell's
// release timer: if the hold is still pending, deliver the cell rather
// than strand it as silent uncounted loss.
func (a *Adapter) TimerFired(*sim.Timer) {
	if !a.heldValid {
		return // later arrivals completed the countdown first
	}
	a.heldValid = false
	a.accept(&a.held)
}

// accept runs the adapter's legacy receive path: the deterministic and
// Bernoulli fault knobs, then FIFO admission — the receive FIFO's record
// is the host's copy of the cell — and the frame-end interrupt.
func (a *Adapter) accept(c *Cell) {
	if a.DropNext {
		a.DropNext = false
		a.CellsDropped++
		return
	}
	if a.LossRate > 0 && a.K.Env.RNG().Bool(a.LossRate) {
		a.CellsDropped++
		return
	}
	if a.CorruptRate > 0 && a.K.Env.RNG().Bool(a.CorruptRate) {
		bit := a.K.Env.RNG().Intn(CellSize * 8)
		c[bit/8] ^= 1 << (bit % 8)
		a.CellsCorrupted++
	}
	if a.rxFIFO.len() >= RxFIFOCells {
		a.RxOverflows++
		a.CellsDropped++
		return
	}
	a.rxFIFO.push(a.K.Env.Arena(), a.K.Env.Now(), c)
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
func (a *Adapter) FramesPending() int { return a.frames }

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
func (a *Adapter) RxAvail() int { return a.rxFIFO.len() }

// PopRxInto moves the oldest cell of the receive FIFO to dst, reporting
// false (dst untouched) when the FIFO is empty.
func (a *Adapter) PopRxInto(dst *Cell) bool {
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
