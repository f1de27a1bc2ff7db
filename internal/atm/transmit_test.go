package atm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/sim"
)

// eventedTx is the transmitter as it was before "transmit complete"
// became arithmetic — kept as the oracle, as queue_test.go keeps the old
// event queue. A committed cell costs two events: cellOut when the
// engine finishes it, which releases its slot and starts the
// propagation delay, and cellIn at the far end. Occupancy is a counter
// the first of them decrements.
type eventedTx struct {
	env            *sim.Env
	cap            int      // slots: the TX FIFO's 36, a port's PortQueueCells
	lead           sim.Time // commit-to-engine latency: 0, or the switch fabric's
	cellTime, prop sim.Time
	sink           *recSink

	busy    sim.Time
	count   int
	fifo    []Cell
	ends    []sim.Time // completion time of each cell in fifo
	flight  []Cell
	arrives []sim.Time // arrival time of each cell in flight
	outLane sim.Lane
	inLane  sim.Lane
}

func newEventedTx(env *sim.Env, slots int, lead, cellTime, prop sim.Time, sink *recSink) *eventedTx {
	o := &eventedTx{env: env, cap: slots, lead: lead, cellTime: cellTime, prop: prop, sink: sink}
	o.outLane.Bind(o)
	o.inLane.Bind(o)
	return o
}

// LaneFired implements sim.LaneOwner: the engine finishing a cell, or
// one reaching the far end.
func (o *eventedTx) LaneFired(l *sim.Lane) {
	if l == &o.outLane {
		o.cellOut()
	} else {
		o.cellIn()
	}
}

func (o *eventedTx) offer(c Cell) bool {
	if o.count >= o.cap {
		return false
	}
	o.count++
	start := o.env.Now() + o.lead
	if o.busy > start {
		start = o.busy
	}
	o.busy = start + o.cellTime
	o.fifo, o.ends = append(o.fifo, c), append(o.ends, o.busy)
	o.outLane.At(o.env, o.busy, "oracle.cellout")
	return true
}

func (o *eventedTx) cellOut() {
	o.count--
	o.flight, o.fifo, o.ends = append(o.flight, o.fifo[0]), o.fifo[1:], o.ends[1:]
	o.arrives = append(o.arrives, o.env.Now()+o.prop)
	o.inLane.At(o.env, o.env.Now()+o.prop, "oracle.cellin")
}

func (o *eventedTx) cellIn() {
	c := o.flight[0]
	o.flight, o.arrives = o.flight[1:], o.arrives[1:]
	o.sink.deliverCell(&c)
}

func (o *eventedTx) reset() {
	o.busy, o.count = 0, 0
	o.fifo, o.ends, o.flight, o.arrives = nil, nil, nil, nil
}

// recSink is the far end of a fibre under test: it logs each arrival, or
// counts it lost while the link is down. It reads the cell it is lent
// before it returns, as cellSink requires — unless keep is set: then it
// breaks the rule on purpose, holding on to the pointer and reading the
// cell only when the segment's arrivals are compared.
type recSink struct {
	env   *sim.Env
	down  bool
	log   []string
	drops int

	keep bool
	kept []keptCell
}

type keptCell struct {
	at sim.Time
	c  *Cell
}

func (s *recSink) deliverCell(c *Cell) {
	switch {
	case s.down:
		s.drops++
	case s.keep:
		s.kept = append(s.kept, keptCell{s.env.Now(), c})
	default:
		s.log = append(s.log, fmt.Sprintf("%d:%d", s.env.Now(), cellID(c)))
	}
}

// arrivals returns the log, reading first whatever cells were kept.
func (s *recSink) arrivals() []string {
	for _, k := range s.kept {
		s.log = append(s.log, fmt.Sprintf("%d:%d", k.at, cellID(k.c)))
	}
	s.kept = nil
	return s.log
}

// numberedCell returns a routable cell carrying id in its payload.
func numberedCell(id int) Cell {
	var c Cell
	CellHeader{VCI: DefaultVCI}.Marshal(&c)
	pl := c.Payload()
	pl[0], pl[1], pl[2] = byte(id>>16), byte(id>>8), byte(id)
	return c
}

func cellID(c *Cell) int {
	pl := c.Payload()
	return int(pl[0])<<16 | int(pl[1])<<8 | int(pl[2])
}

// txPair is a real transmitter and the evented oracle on one clock, fed
// the same script.
type txPair struct {
	env        *sim.Env
	real       *recSink
	oracle     *eventedTx
	slots      int
	offerReal  func(c Cell) bool // commit c if the transmitter has room
	occupied   func() int
	freeAt     func() sim.Time
	resetReal  func()
	nextID     int
	ties, acts int
}

// newAdapterPair tests Adapter.TxCell/LaunchTx/TxSpace/TxFreeAt.
func newAdapterPair() *txPair {
	env := sim.NewEnv()
	env.Arena().Poison = true
	a := NewAdapter(kern.New(env, cost.DECstation5000(), "a"))
	p := &txPair{env: env, real: &recSink{env: env}, slots: TxFIFOCells}
	a.link = p.real
	p.oracle = newEventedTx(env, TxFIFOCells, 0, a.CellTime(), a.K.Cost.ATMPropagation, &recSink{env: env})
	p.offerReal = func(c Cell) bool {
		if a.TxSpace() == 0 {
			return false
		}
		pushTx(a, c)
		return true
	}
	p.occupied = func() int { return TxFIFOCells - a.TxSpace() }
	p.freeAt = a.TxFreeAt
	p.resetReal = a.Reset
	return p
}

// newPortPair tests Switch.forward onto a plain port whose drop-tail
// depth is small enough for the script to overflow.
func newPortPair() *txPair {
	const depth = 24
	env := sim.NewEnv()
	env.Arena().Poison = true
	model := cost.DECstation5000()
	sw := NewSwitch(env)
	sw.PortQueueCells = depth
	sw.AttachPort(NewAdapter(kern.New(env, model, "in")))
	sw.AttachPort(NewAdapter(kern.New(env, model, "out")))
	sw.AddVC(0, DefaultVCI, 1, DefaultVCI)
	out := sw.Port(1)
	p := &txPair{env: env, real: &recSink{env: env}, slots: depth}
	out.out = p.real
	p.oracle = newEventedTx(env, depth, sw.Latency, cost.WireTime(CellSize, out.bits), out.prop, &recSink{env: env})
	p.offerReal = func(c Cell) bool {
		before := sw.CellsDropped
		sw.Port(0).InjectCell(c)
		return sw.CellsDropped == before
	}
	p.occupied = func() int { return out.tx.occupied(env.Now()) }
	p.freeAt = out.tx.freeAt
	p.resetReal = sw.Reset
	return p
}

// offer commits one numbered cell to both transmitters and requires the
// same verdict.
func (p *txPair) offer() (bool, error) {
	c := numberedCell(p.nextID)
	p.nextID++
	got, want := p.offerReal(c), p.oracle.offer(c)
	if got != want {
		return got, fmt.Errorf("cell %d at %d: accepted %v, oracle %v", p.nextID-1, p.env.Now(), got, want)
	}
	return got, nil
}

// A script is three bytes an op: kind, a, b. Each op runs as an event a
// delay after the one before — a quarter cell times (757 ns) below 192,
// a−192 µs from there, so that scripts can land on completions (a cell
// time is 3028 ns, the fabric latency 5 µs) — and is scheduled before
// the previous op's commits, so that it can genuinely tie with them.
const (
	txBurst = iota // offer b%48+1 cells
	txGap          // nothing, a×b×100 ns on: an idle gap
	txStall        // fill up, then at the first free slot offer b%8+1 more: the driver's stall
	txDown         // flip the far end's link state
	txReset        // drain, then rewind both transmitters and the clock
	txProbe        // compare occupancy only
	txKinds
)

// txDelay is how long after its predecessor the script's first op runs.
func txDelay(script []byte) sim.Time {
	a := sim.Time(script[1])
	switch {
	case script[0]%txKinds == txGap:
		return a * sim.Time(script[2]) * 100
	case a < 192:
		return a * 757
	}
	return (a - 192) * sim.Microsecond
}

// run drives the script and returns the first divergence.
func (p *txPair) run(script []byte) error {
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	for len(script) >= 3 && err == nil {
		// One segment: up to the next reset.
		var step func()
		step = func() {
			if err != nil || len(script) < 3 {
				return
			}
			kind, b := script[0]%txKinds, int(script[2])
			if kind == txReset {
				return // the segment ends; run() resets once it drains
			}
			script = script[3:]
			// The next op is scheduled first (see the script comment).
			if len(script) >= 3 {
				p.env.After(txDelay(script), "test.op", step)
			}
			now, o := p.env.Now(), p.oracle
			if len(o.ends) > 0 && o.ends[0] == now || len(o.arrives) > 0 && o.arrives[0] == now {
				// An exact-nanosecond tie with a completion (or, for a link
				// flip, an arrival) the oracle has yet to fire: its answer
				// depends on event order, the cursor's on the tie rule.
				p.ties++
				return
			}
			p.acts++
			if got, want := p.occupied(), o.count; got != want {
				fail(fmt.Errorf("at %d: %d cells occupy the transmitter, oracle %d", now, got, want))
				return
			}
			switch kind {
			case txBurst:
				for i := 0; i < b%48+1; i++ {
					if _, e := p.offer(); e != nil {
						fail(e)
						return
					}
				}
			case txStall:
				for {
					ok, e := p.offer()
					if e != nil {
						fail(e)
						return
					}
					if !ok {
						break
					}
				}
				// Scheduled after the commits, like the driver's sleep: the
				// oracle's completion at that instant fires first.
				p.env.At(p.freeAt(), "test.stall", func() {
					if got := p.occupied(); got != o.count {
						fail(fmt.Errorf("at %d after a stall: %d occupied, oracle %d", p.env.Now(), got, o.count))
						return
					}
					for i := 0; i < b%8+1; i++ {
						if _, e := p.offer(); e != nil {
							fail(e)
							return
						}
					}
				})
			case txDown:
				p.real.down = !p.real.down
				o.sink.down = p.real.down
			}
		}
		p.env.After(txDelay(script), "test.op", step)
		p.env.Run()
		if len(script) >= 3 { // stopped at a reset
			script = script[3:]
			p.env.Reset()
			p.resetReal()
			p.oracle.reset()
		}
		if err == nil && (!slices.Equal(p.real.arrivals(), p.oracle.sink.log) || p.real.drops != p.oracle.sink.drops) {
			err = fmt.Errorf("arrivals diverge:\n real   %v (%d lost)\n oracle %v (%d lost)",
				p.real.log, p.real.drops, p.oracle.sink.log, p.oracle.sink.drops)
		}
	}
	return err
}

// txScripts are the hand-written cases: a burst past the FIFO, idle
// gaps, overflow, driver stalls back to back, a link flap under load, a
// reset between two loaded segments, and ops that land exactly on a
// completion of the adapter (one cell time on) and of the port (fabric
// latency plus one cell time on).
var txScripts = [][]byte{
	{txBurst, 0, 47, txProbe, 9, 0, txBurst, 41, 47, txGap, 200, 200, txBurst, 1, 5},
	{txStall, 0, 3, txStall, 1, 7, txProbe, 3, 0, txStall, 90, 0, txGap, 9, 9, txBurst, 0, 60},
	{txBurst, 0, 30, txDown, 17, 0, txBurst, 9, 30, txDown, 41, 0, txBurst, 2, 9, txProbe, 191, 0},
	{txBurst, 0, 47, txReset, 0, 0, txBurst, 3, 47, txStall, 9, 2, txReset, 0, 0, txProbe, 1, 1},
	{txBurst, 0, 47, txBurst, 4, 0, txBurst, 4, 3, txDown, 8, 0, txProbe, 193, 0, txBurst, 12, 40},
	{txBurst, 0, 47, txProbe, 197, 0, txBurst, 4, 0, txBurst, 4, 3, txProbe, 4, 0, txStall, 4, 1},
}

// randomTxScript is a seeded script of n ops.
func randomTxScript(seed uint64, n int) []byte {
	r := sim.NewRNG(seed)
	s := make([]byte, 3*n)
	r.Fill(s)
	for i := 0; i < len(s); i += 3 {
		if s[i]%txKinds == txReset && r.Intn(4) != 0 {
			s[i] = txBurst // resets are cheap to draw and end the load: keep most segments long
		}
	}
	return s
}

// TestTransmitterMatchesEventedOracle drives the cursor transmitter and
// the evented oracle with the same commit scripts, through the
// adapter's TX FIFO and through a switch port's drop-tail egress: the
// same cells must arrive at the same instants, every offered cell must
// get the same verdict, and occupancy must agree at every probe that is
// not an exact tie with a completion. The arena is poisoned, so a record
// is overwritten the moment the transmitter drops it: the far end is lent
// each cell where it lies, and what it reads must be the cell all the
// same — while a sink that keeps the pointer past the call (the one thing
// cellSink forbids) must read something else, and fail the comparison.
func TestTransmitterMatchesEventedOracle(t *testing.T) {
	for name, mk := range map[string]func() *txPair{"adapter": newAdapterPair, "port": newPortPair} {
		t.Run(name+", a sink that keeps its pointer", func(t *testing.T) {
			for i, s := range txScripts {
				p := mk()
				p.real.keep = true
				if err := p.run(s); err == nil {
					t.Errorf("script %d: a sink read %d cells after their records were dropped and nothing noticed", i, len(p.real.log))
				}
			}
		})
		ties, acts, cells := 0, 0, 0
		scripts := append([][]byte(nil), txScripts...)
		for seed := uint64(1); seed <= 200; seed++ {
			scripts = append(scripts, randomTxScript(seed, 60))
		}
		for i, s := range scripts {
			p := mk()
			if err := p.run(s); err != nil {
				t.Fatalf("%s script %d %v: %v", name, i, s, err)
			}
			ties, acts, cells = ties+p.ties, acts+p.acts, cells+len(p.real.log)
		}
		t.Logf("%s: %d ops compared, %d skipped as exact ties, %d arrivals", name, acts, ties, cells)
		if ties == 0 || cells < 10000 {
			t.Errorf("%s: %d ties, %d arrivals: the scripts no longer reach what they were written for", name, ties, cells)
		}
	}
}

// TestSelfTrunkIsRefused pins the one topology the lending rule cannot
// serve: over a trunk from a switch to itself, forward would commit a cell
// into the transmitter that is lending it — whose queue may move under the
// pointer. ConnectTrunk refuses to build it.
func TestSelfTrunkIsRefused(t *testing.T) {
	sw := NewSwitch(sim.NewEnv())
	defer func() {
		if recover() == nil || sw.NumPorts() != 0 {
			t.Fatalf("ConnectTrunk(sw, sw) built a trunk (%d ports) instead of refusing", sw.NumPorts())
		}
	}()
	ConnectTrunk(sw, sw, cost.DECstation5000())
}

// TestTxSlotFreesAtCompletionInclusive pins the tie rule the oracle
// comparison steps around: a slot is free from the instant its cell's
// last bit leaves, inclusive — at end, not one nanosecond later.
func TestTxSlotFreesAtCompletionInclusive(t *testing.T) {
	env, _, _, a, _ := twoAdapters(t)
	for i := 0; i < TxFIFOCells; i++ {
		pushTx(a, numberedCell(i))
	}
	end := a.CellTime() // the first cell's last bit
	if a.TxFreeAt() != end {
		t.Fatalf("TxFreeAt = %d, want %d", a.TxFreeAt(), end)
	}
	env.At(end-1, "before", func() {
		if a.TxSpace() != 0 {
			t.Errorf("TxSpace = %d a nanosecond before the first completion", a.TxSpace())
		}
	})
	env.At(end, "at", func() {
		if a.TxSpace() != 1 {
			t.Errorf("TxSpace = %d at the first completion, want 1", a.TxSpace())
		}
	})
	env.RunUntil(end)

	p := newPortPair()
	for i := 0; i < p.slots; i++ {
		p.offerReal(numberedCell(i))
	}
	first := p.freeAt() // fabric latency plus one cell time
	p.env.At(first-1, "before", func() {
		if p.offerReal(numberedCell(100)) {
			t.Error("full port took a cell a nanosecond before its first completion")
		}
	})
	p.env.At(first, "at", func() {
		if !p.offerReal(numberedCell(101)) {
			t.Error("port dropped a cell at the instant its first slot freed")
		}
	})
	p.env.Run()
}

// FuzzTxOccupancy feeds arbitrary scripts to both transmitter pairs.
func FuzzTxOccupancy(f *testing.F) {
	for _, s := range txScripts {
		f.Add(s)
	}
	f.Add(randomTxScript(7, 40))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*400 {
			script = script[:3*400]
		}
		for _, mk := range []func() *txPair{newAdapterPair, newPortPair} {
			if err := mk().run(script); err != nil {
				t.Fatal(err)
			}
		}
	})
}
