package atm

import (
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestREDNeverDropsBelowMinTh holds the instantaneous queue at zero or
// one cell — the EWMA can never reach MinTh — and requires RED to
// accept every arrival: below the minimum threshold RED is a plain
// FIFO, whatever the lottery RNG says.
func TestREDNeverDropsBelowMinTh(t *testing.T) {
	r := NewRED(4, 12, 0.5, 0.5, 32, 99)
	for i := 0; i < 10000; i++ {
		if !r.Admit(i % 2) {
			t.Fatalf("arrival %d dropped with avg %.3f < MinTh %d", i, r.AvgQueue(), r.MinTh)
		}
		if avg := r.AvgQueue(); avg >= float64(r.MinTh) {
			t.Fatalf("EWMA %.3f crossed MinTh with an empty-ish queue", avg)
		}
	}
}

// TestREDAlwaysDropsAtMaxTh backs the queue up until the EWMA crosses
// MaxTh and requires every subsequent arrival to be refused — the
// forced-drop region admits nothing, independent of the lottery.
func TestREDAlwaysDropsAtMaxTh(t *testing.T) {
	// Heavy weight so the EWMA tracks the standing queue quickly.
	r := NewRED(4, 8, 0.02, 0.5, 64, 7)
	// Nothing leaves: each admitted cell waits for every later arrival.
	waiting := 0
	for i := 0; i < 200 && r.AvgQueue() < float64(r.MaxTh); i++ {
		if r.Admit(waiting) {
			waiting++
		}
	}
	if r.AvgQueue() < float64(r.MaxTh) {
		t.Fatalf("EWMA %.3f never reached MaxTh %d under a standing queue", r.AvgQueue(), r.MaxTh)
	}
	for i := 0; i < 1000; i++ {
		if r.Admit(waiting) {
			t.Fatalf("arrival %d accepted with avg %.3f >= MaxTh %d", i, r.AvgQueue(), r.MaxTh)
		}
	}
}

// TestREDHardLimit fills the physical queue while keeping the EWMA
// low (fresh discipline, burst arrival) and requires the hard bound to
// refuse arrivals even though the average would admit them.
func TestREDHardLimit(t *testing.T) {
	r := NewRED(100, 200, 0.02, 0.001, 8, 3)
	for waiting := 0; waiting < 8; waiting++ {
		if !r.Admit(waiting) {
			t.Fatalf("arrival finding %d waiting dropped below the physical limit", waiting)
		}
	}
	if r.Admit(8) {
		t.Error("arrival beyond Limit accepted")
	}
}

// TestREDDeterministicLottery drives two identically-seeded REDs and a
// Reset replay through the same arrival pattern and requires identical
// accept/drop decisions: the lottery draws only from the private seeded
// RNG.
func TestREDDeterministicLottery(t *testing.T) {
	pattern := func(r *RED) string {
		out := make([]byte, 0, 4000)
		waiting := 0
		for i := 0; i < 4000; i++ {
			if r.Admit(waiting) {
				waiting++
				out = append(out, '1')
			} else {
				out = append(out, '0')
			}
			// Drain slowly: 3 arrivals per departure keeps the average
			// wandering through the early-drop band.
			if i%3 == 0 && waiting > 0 {
				waiting--
			}
		}
		return string(out)
	}
	a := NewRED(4, 16, 0.1, 0.2, 32, 42)
	b := NewRED(4, 16, 0.1, 0.2, 32, 42)
	pa, pb := pattern(a), pattern(b)
	if pa != pb {
		t.Error("identically seeded REDs made different drop decisions")
	}
	a.Reset()
	if got := pattern(a); got != pa {
		t.Error("Reset did not replay the drop lottery")
	}
	diff := NewRED(4, 16, 0.1, 0.2, 32, 43)
	if pattern(diff) == pa {
		t.Error("differently seeded RED reproduced the same decisions — lottery not seed-driven")
	}
}

// TestDRRFairness backlogs two flows with adversarial arrival order —
// every cell of one flow enqueued before any of the other — and
// requires the byte service gap between them to stay within one quantum
// plus one cell for as long as both are backlogged: the deficit
// round-robin guarantee, independent of FIFO arrival order.
func TestDRRFairness(t *testing.T) {
	const perFlow = 120
	d := NewDRR(4*CellSize, 2*perFlow)
	// Tag each cell's payload with its flow so departures attribute
	// themselves (cells are stored by value).
	tagged := func(tag byte) *Cell {
		var c Cell
		c.Payload()[0] = tag
		return &c
	}
	for i := 0; i < perFlow; i++ {
		d.Enqueue(tagged('a'), DefaultVCI+100)
	}
	for i := 0; i < perFlow; i++ {
		d.Enqueue(tagged('b'), DefaultVCI+200)
	}
	served := map[byte]int{}
	bound := d.Quantum + CellSize
	for d.Len() > 0 {
		before := d.Len()
		var c Cell
		if !d.Dequeue(&c) || d.Len() != before-1 {
			t.Fatal("Dequeue lost track of the backlog")
		}
		served[c.Payload()[0]]++
		if served['a'] < perFlow && served['b'] < perFlow {
			sa, sb := served['a']*CellSize, served['b']*CellSize
			if gap := sa - sb; gap > bound || -gap > bound {
				t.Fatalf("service gap %d bytes exceeds quantum+cell %d (A=%d B=%d)", sa-sb, bound, sa, sb)
			}
		}
	}
	if served['a'] != perFlow || served['b'] != perFlow {
		t.Errorf("served %d/%d cells, want %d each", served['a'], served['b'], perFlow)
	}
}

// TestDRRAggregateLimit checks the aggregate bound on a port: of a burst
// that reaches the discipline at one instant, the cell that finds Limit
// cells waiting, across every flow's queue, is dropped, and one that
// arrives after a departure freed a place is admitted.
func TestDRRAggregateLimit(t *testing.T) {
	s := newAdmissionSide(3, DefaultSwitchLatency, NewDRR(CellSize, 10))
	for i := 0; i < 12; i++ {
		i := i
		s.env.At(0, "burst", func() { s.forward(i%3, i) })
	}
	s.env.At(cost.WireTime(CellSize, s.out.bits)+1, "late", func() { s.forward(0, 12) })
	s.env.Run()
	if !slices.Equal(s.drops, []int{11}) || s.sw.CellsSwitched != 12 || len(s.sink.log) != 12 {
		t.Errorf("dropped %v, switched %d, delivered %d; want [11], 12, 12", s.drops, s.sw.CellsSwitched, len(s.sink.log))
	}
}

// keyedDRR is DRR as it was first written: the round a slice of flow keys
// rotated by re-slicing and appending, each turn a map lookup. It is the
// reference TestDRRMatchesKeyedRotation holds DRR's service order to.
type keyedDRR struct {
	quantum int
	flows   map[uint16]*drrFlow
	active  []uint16
}

func (d *keyedDRR) enqueue(c *Cell, flow uint16) {
	f := d.flows[flow]
	if f == nil {
		f = &drrFlow{}
		d.flows[flow] = f
	}
	if !f.active {
		f.active = true
		f.deficit = 0
		d.active = append(d.active, flow)
	}
	f.q.push(c)
}

func (d *keyedDRR) dequeue(dst *Cell) bool {
	for len(d.active) > 0 {
		key := d.active[0]
		f := d.flows[key]
		if f.deficit < CellSize {
			f.deficit += d.quantum
			d.active = append(d.active[1:], key)
			continue
		}
		f.deficit -= CellSize
		f.q.popInto(dst)
		if f.q.len() == 0 {
			f.active = false
			f.deficit = 0
			d.active = d.active[1:]
		}
		return true
	}
	return false
}

// TestDRRMatchesKeyedRotation interleaves arrivals on up to nine flows
// with departures, drawn from a fixed stream, and requires DRR to serve
// exactly the cells keyedDRR serves, in the same order.
func TestDRRMatchesKeyedRotation(t *testing.T) {
	for _, quantum := range []int{CellSize, 2 * CellSize, 5*CellSize - 7} {
		d := NewDRR(quantum, 1<<20)
		ref := &keyedDRR{quantum: d.Quantum, flows: map[uint16]*drrFlow{}}
		rng := sim.NewRNG(uint64(quantum))
		var in, got, want Cell
		for i := 0; i < 20000; i++ {
			if rng.Intn(100) < 52 {
				flow := DefaultVCI + uint16(rng.Intn(1+i/2000))
				in.Payload()[0], in.Payload()[1] = byte(i), byte(i>>8)
				d.Enqueue(&in, flow)
				ref.enqueue(&in, flow)
				continue
			}
			ok, refOK := d.Dequeue(&got), ref.dequeue(&want)
			if ok != refOK || got != want {
				t.Fatalf("quantum %d, step %d: served %v %x, reference %v %x",
					quantum, i, ok, got.Payload()[:2], refOK, want.Payload()[:2])
			}
		}
	}
}

// TestDRRRotationAllocatesNothing keeps four flows backlogged, so that
// every few departures rotate the round, and requires a warm DRR to
// enqueue and dequeue without allocating.
func TestDRRRotationAllocatesNothing(t *testing.T) {
	d := NewDRR(0, 0)
	var c Cell
	cycle := func() {
		for v := uint16(0); v < 16; v++ {
			d.Enqueue(&c, DefaultVCI+v%4)
		}
		for d.Dequeue(&c) {
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm DRR allocates %v times a 16-cell burst, want 0", n)
	}
}
