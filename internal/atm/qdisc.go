package atm

import (
	"fmt"

	"repro/internal/sim"
)

// Qdisc is a pluggable queue discipline for one switch egress port,
// installed with Port.SetQdisc in place of the built-in drop-tail depth.
// Every discipline decides admission: each cell the VC table routes to
// the port is offered to Admit with the number of cells it finds waiting
// for the link — admitted, service not yet begun — and is dropped when
// Admit refuses it. The port decides at forward time, a fabric latency
// before the cell reaches the discipline, reading the waiting count off
// its FIFO transmitter, and commits an admitted cell there at once, as
// the built-in path does. A discipline that serves in arrival order
// (DropTail, RED) is nothing more; one that reorders implements
// Scheduler.
//
// Disciplines must be deterministic: any randomness (RED's drop lottery)
// comes from a private RNG seeded at construction, never from the
// simulation environment's stream, so installing a qdisc perturbs no
// other random draw and sharded runs stay bit-identical to serial.
type Qdisc interface {
	// Admit decides the admission of a cell that finds waiting cells
	// queued for the link ahead of it; it returns false to drop the cell.
	// Cells are offered in the order they reach the discipline, one call
	// each, so a discipline's state (RED's average and lottery) advances
	// once per arrival.
	Admit(waiting int) bool
	// Reset returns the discipline to its just-constructed state —
	// including reseeding any private RNG — for testbed reuse.
	Reset()
}

// Scheduler is a discipline that picks the service order itself (DRR).
// Cells are equal in size, so reordering moves no slot time and no
// waiting count: the port commits each admitted cell to a slot of its
// FIFO transmitter as any discipline's, and only which cell fills a slot
// is the Scheduler's. The port settles that when the slot's arrival at
// the far end fires, offering the discipline the cells that had reached
// it by the time the slot's service began and asking it for one (see
// Port.serve); it costs no event of its own.
type Scheduler interface {
	Qdisc
	// Enqueue queues a cell Admit admitted; flow is the cell's egress VCI,
	// the flow key of VC-switched traffic. The cell is the caller's, good
	// for the length of the call: the discipline queues its own copy.
	Enqueue(c *Cell, flow uint16)
	// Dequeue moves the next cell to transmit, in the discipline's
	// service order, out of the queue into dst, which is the caller's. It
	// returns false, dst untouched, when the queue is empty.
	Dequeue(dst *Cell) bool
	// Len returns the cells currently queued.
	Len() int
}

// DropTail is the classic FIFO with a hard depth bound: the qdisc-shaped
// twin of the switch's built-in egress depth, useful as the explicit
// baseline in qdisc comparisons. It counts only cells waiting for the
// link, not the one being sent, as a discipline's queue holds them.
type DropTail struct {
	limit int
}

// NewDropTail returns a FIFO dropping arrivals beyond limit cells.
func NewDropTail(limit int) *DropTail {
	if limit <= 0 {
		limit = DefaultPortQueueCells
	}
	return &DropTail{limit: limit}
}

// Admit implements Qdisc.
func (d *DropTail) Admit(waiting int) bool { return waiting < d.limit }

// Reset implements Qdisc; a drop-tail bound has no state.
func (d *DropTail) Reset() {}

// RED is random early detection (Floyd & Jacobson 1993) on a cell FIFO:
// an EWMA of the queue depth is updated on every arrival, and arrivals
// are dropped probabilistically once the average crosses MinTh — before
// the queue is actually full — so sources back off early instead of
// synchronizing on tail drops. Below MinTh nothing is ever dropped;
// at or above MaxTh (or the hard Limit) everything is.
type RED struct {
	MinTh  int     // no early drops while avg < MinTh
	MaxTh  int     // all arrivals dropped while avg >= MaxTh
	MaxP   float64 // drop probability as avg approaches MaxTh
	Weight float64 // EWMA weight per arrival
	Limit  int     // hard physical bound (cells)

	seed  uint64
	rng   sim.RNG
	avg   float64
	count int // arrivals since the last early drop, for drop spreading
}

// Default RED parameters: thresholds bracketing a fraction of the
// physical queue, the classic 2% max drop probability, and the 0.002
// EWMA weight from the RED paper.
const (
	DefaultREDMaxP   = 0.02
	DefaultREDWeight = 0.002
)

// NewRED returns a RED discipline with its private drop-lottery RNG
// seeded by seed. Zero parameters take defaults: limit
// DefaultPortQueueCells, thresholds at 1/4 and 3/4 of the limit.
func NewRED(minTh, maxTh int, maxP, weight float64, limit int, seed uint64) *RED {
	if limit <= 0 {
		limit = DefaultPortQueueCells
	}
	if minTh <= 0 {
		minTh = limit / 4
	}
	if maxTh <= 0 {
		maxTh = limit * 3 / 4
	}
	if maxTh <= minTh {
		panic(fmt.Sprintf("atm: RED MaxTh %d must exceed MinTh %d", maxTh, minTh))
	}
	if maxP <= 0 {
		maxP = DefaultREDMaxP
	}
	if weight <= 0 {
		weight = DefaultREDWeight
	}
	r := &RED{MinTh: minTh, MaxTh: maxTh, MaxP: maxP, Weight: weight,
		Limit: limit, seed: seed}
	r.Reset()
	return r
}

// Admit implements Qdisc: update the average with the queue the arrival
// finds, then gate it.
func (r *RED) Admit(waiting int) bool {
	r.avg = (1-r.Weight)*r.avg + r.Weight*float64(waiting)
	switch {
	case waiting >= r.Limit || r.avg >= float64(r.MaxTh):
		// Forced drop: physically full, or the average says sustained
		// congestion.
		r.count = 0
		return false
	case r.avg < float64(r.MinTh):
		r.count = -1
	default:
		// Early-drop band: probability ramps from 0 at MinTh to MaxP at
		// MaxTh, spread by the count of arrivals since the last drop so
		// drops land roughly uniformly rather than in clumps.
		r.count++
		pb := r.MaxP * (r.avg - float64(r.MinTh)) / float64(r.MaxTh-r.MinTh)
		pa := pb
		if d := 1 - float64(r.count)*pb; d > 0 {
			pa = pb / d
		} else {
			pa = 1
		}
		if r.rng.Float64() < pa {
			r.count = 0
			return false
		}
	}
	return true
}

// AvgQueue exposes the EWMA for tests.
func (r *RED) AvgQueue() float64 { return r.avg }

// Reset implements Qdisc: zero the average, reseed.
func (r *RED) Reset() {
	r.avg = 0
	r.count = -1
	r.rng = *sim.NewRNG(r.seed)
}

// DRR is deficit round robin (Shreedhar & Varghese 1995) keyed by egress
// VCI: each backlogged flow gets Quantum bytes of credit per round and
// transmits head cells while its deficit covers them, so competing flows
// share the link in proportion to quanta — byte-fair within one quantum
// regardless of arrival pattern — instead of in arrival (FIFO) order.
type DRR struct {
	Quantum int // bytes of credit per flow per round (>= CellSize)
	Limit   int // aggregate bound across all flow queues (cells)

	// flows[v-DefaultVCI] is flow v's queue, nil until its first cell:
	// VCIs in use are dense from DefaultVCI up (see Port.vc), so a lookup
	// is an index, not a hash. A reserved VCI wraps past every routed one.
	flows []*drrFlow
	// active[head:] are the backlogged flows in round-robin order. A
	// rotation appends the head flow and advances head, so the slice is
	// compacted to the front, in place, when it runs out of room: a
	// dequeue allocates nothing and looks nothing up.
	active []*drrFlow
	head   int
	total  int
}

// drrFlow is one VCI's queue and deficit counter.
type drrFlow struct {
	q       fifo
	deficit int
	active  bool
}

// NewDRR returns a DRR discipline. Quantum below one cell is raised to
// CellSize (the classic requirement that a flow with a full quantum can
// always send its head packet); limit zero takes DefaultPortQueueCells.
func NewDRR(quantum, limit int) *DRR {
	if quantum < CellSize {
		quantum = CellSize
	}
	if limit <= 0 {
		limit = DefaultPortQueueCells
	}
	return &DRR{Quantum: quantum, Limit: limit}
}

// Admit implements Qdisc: the aggregate bound, across all flow queues
// (drop-from-tail of the offered cell, the simplest bound; per-flow
// accounting still isolates service order).
func (d *DRR) Admit(waiting int) bool { return waiting < d.Limit }

// Enqueue implements Scheduler: append to the flow's queue, activating the
// flow at the back of the round if it was idle.
func (d *DRR) Enqueue(c *Cell, flow uint16) {
	i := int(flow - DefaultVCI)
	if i >= len(d.flows) {
		d.flows = append(d.flows, make([]*drrFlow, i+1-len(d.flows))...)
	}
	f := d.flows[i]
	if f == nil {
		f = &drrFlow{}
		d.flows[i] = f
	}
	if !f.active {
		f.active = true
		f.deficit = 0
		d.activate(f)
	}
	f.q.push(c)
	d.total++
}

// activate puts f at the back of the round, first moving the live flows
// to the front of the slice when there is no room behind them.
func (d *DRR) activate(f *drrFlow) {
	if len(d.active) == cap(d.active) && d.head > 0 {
		n := copy(d.active, d.active[d.head:])
		clear(d.active[n:])
		d.active, d.head = d.active[:n], 0
	}
	d.active = append(d.active, f)
}

// Dequeue implements Scheduler: serve the head of the active list, renewing
// its deficit by one quantum when exhausted and rotating it to the back
// of the round.
func (d *DRR) Dequeue(dst *Cell) bool {
	for d.head < len(d.active) {
		f := d.active[d.head]
		if f.deficit < CellSize {
			// New round for this flow: grant the quantum and rotate.
			f.deficit += d.Quantum
			d.popHead()
			d.activate(f)
			continue
		}
		f.deficit -= CellSize
		f.q.popInto(dst)
		d.total--
		if f.q.len() == 0 {
			f.active = false
			f.deficit = 0
			d.popHead()
		}
		return true
	}
	return false
}

// popHead removes the flow at the head of the round.
func (d *DRR) popHead() {
	d.active[d.head] = nil
	d.head++
	if d.head == len(d.active) {
		d.active, d.head = d.active[:0], 0
	}
}

// Len implements Scheduler.
func (d *DRR) Len() int { return d.total }

// Reset implements Qdisc.
func (d *DRR) Reset() {
	clear(d.flows)
	clear(d.active)
	d.active, d.head = d.active[:0], 0
	d.total = 0
}
