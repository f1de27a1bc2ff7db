package atm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/sim"
)

// eventedFibre joins a transmitter to an adapter through a sink that
// forwards each arrival as it fires: the switchless pair as it was before
// quiet arrivals, every cell's arrival an event — the path every fibre
// but a pair's still takes — kept as the oracle, as transmit_test.go
// keeps the evented transmitter.
type eventedFibre struct{ to *Adapter }

func (f eventedFibre) deliverCell(c *Cell) { f.to.deliverCell(c) }

// quietWorld is a switchless pair driven by a script: two hosts that each
// send frames and drain their receive FIFO on every interrupt, with
// readers and fault writers scheduled at script times. Built evented, its
// fibres are eventedFibres; built real, Connect joins the adapters.
type quietWorld struct {
	env  *sim.Env
	ad   [2]*Adapter
	snd  [2]quietSender
	host [2]quietHost
	log  []string

	quiet      int    // launches that scheduled no arrival
	quietInto  [2]int // and of those, the ones into host i
	parks      int    // sleepers that had to park: a wake event each
	tieBefore  int    // reads at a cell's arrival instant, scheduled before its launch
	tieAfter   int    // and after it
	prop, cell sim.Time
}

// quietSender is one host's transmit side: the frames it still has to
// launch, cells per frame, oldest first.
type quietSender struct {
	frames     []int
	sent, id   int
	pumping    bool
	readBefore []int // cell ids to read the far end at the arrival of, scheduled just before the launch
	readAfter  []int // and just after it
}

type quietHost struct {
	w *quietWorld
	i int
}

// Step implements sim.Frame: the receive interrupt service, which pops
// every waiting cell each time the adapter interrupts.
func (h *quietHost) Step(p *sim.Proc) {
	a := h.w.ad[h.i]
	if a.FramesPending() == 0 && a.RxAvail() < RxDrainThreshold {
		a.RxReady.Wait(p)
		return
	}
	h.w.read(h.i, "intr")
}

// Impairments a script can arm on an adapter: on its receive side, or
// (impFlip) wire flips of four cells it launches.
const (
	impNone = iota
	impGE
	impReorder
	impLoss
	impFlip
	impKinds
)

func newQuietWorld(evented bool, imps [2]int) *quietWorld {
	env := sim.NewEnv()
	env.Arena().Poison = true
	model := cost.DECstation5000()
	w := &quietWorld{env: env}
	for i := range w.ad {
		w.ad[i] = NewAdapter(kern.New(env, model, fmt.Sprintf("h%d", i)))
		w.host[i] = quietHost{w: w, i: i}
		env.Spawn("", &w.host[i])
	}
	if evented {
		w.ad[0].link, w.ad[1].link = eventedFibre{w.ad[1]}, eventedFibre{w.ad[0]}
	} else {
		Connect(w.ad[0], w.ad[1])
	}
	for i, imp := range imps {
		a := w.ad[i]
		switch imp {
		case impGE:
			a.SetImpairments(sim.GEParams{PGoodBad: 0.02, PBadGood: 0.2, LossBad: 0.7}, 0, 0, uint64(11+i))
		case impReorder:
			a.SetImpairments(sim.GEParams{}, 0.05, 3, uint64(21+i))
		case impLoss:
			a.SetImpairments(sim.GEParams{LossGood: 0.01}, 0, 0, uint64(31+i))
		case impFlip: // a header bit, a segment-type bit, a payload bit, the last bit
			for _, bit := range []int{3*424 + 9, 7*424 + 41, 20*424 + 100, 50*424 + 423} {
				a.FlipLaunched(bit)
			}
		}
	}
	env.Seed(5)
	w.prop, w.cell = model.ATMPropagation, w.ad[0].CellTime()
	return w
}

// scriptCell is cell i of an n-cell frame, numbered id.
func scriptCell(id, i, n int) Cell {
	var c Cell
	CellHeader{VCI: DefaultVCI}.Marshal(&c)
	st := byte(segCOM)
	switch {
	case n == 1:
		st = segSSM
	case i == 0:
		st = segBOM
	case i == n-1:
		st = segEOM
	}
	pl := c.Payload()
	pl[0], pl[1], pl[2], pl[3] = st<<6, byte(id>>16), byte(id>>8), byte(id)
	return c
}

// send queues an n-cell frame on host d's transmit side.
func (w *quietWorld) send(d, n int) {
	s := &w.snd[d]
	s.frames = append(s.frames, n)
	if !s.pumping {
		s.pumping = true
		w.pump(d)
	}
}

// pump launches cells while the transmit FIFO has room, and comes back
// the instant a slot frees.
func (w *quietWorld) pump(d int) {
	s, a := &w.snd[d], w.ad[d]
	for len(s.frames) > 0 && a.TxSpace() > 0 {
		if i := slices.Index(s.readBefore, s.id); i >= 0 {
			s.readBefore = slices.Delete(s.readBefore, i, i+1)
			w.env.At(max(w.env.Now(), a.TxIdleAt())+w.cell+w.prop, "read.before", func() { w.read(1-d, "before") })
		}
		c := a.TxCell()
		*c = scriptCell(s.id, s.sent, s.frames[0])
		before := w.env.Pending()
		a.LaunchTx(c)
		if w.env.Pending() == before {
			w.quiet++
			w.quietInto[1-d]++
		}
		if i := slices.Index(s.readAfter, s.id); i >= 0 {
			s.readAfter = slices.Delete(s.readAfter, i, i+1)
			w.env.At(a.TxIdleAt()+w.prop, "read.after", func() { w.read(1-d, "after") })
		}
		s.id++
		if s.sent++; s.sent == s.frames[0] {
			s.frames, s.sent = s.frames[1:], 0
		}
	}
	if len(s.frames) == 0 {
		s.pumping = false
		return
	}
	w.env.At(a.TxFreeAt(), "pump", func() { w.pump(d) })
}

// arrivalOf returns when the k-th cell host d has yet to launch will
// reach the far end: its engine sends back to back from when it is next
// free, and the sender refills the FIFO the instant a slot frees.
func (w *quietWorld) arrivalOf(d, k int) sim.Time {
	start := max(w.env.Now(), w.ad[d].TxIdleAt())
	return start + sim.Time(k+1)*w.cell + w.prop
}

// quietSleeper is a host-side process that sleeps until an arrival and
// then reads: a sleep no event interrupts advances in place, and the
// reader then runs at the key its wake would have had.
type quietSleeper struct {
	w      *quietWorld
	i      int
	until  sim.Time
	parked bool
}

func (s *quietSleeper) Step(p *sim.Proc) {
	if !s.parked {
		s.parked = true
		if !p.SleepUntil(s.until) {
			s.w.parks++
			return
		}
	}
	s.w.read(s.i, "sleeper")
	p.Return()
}

// read logs what host i's receive side shows now and pops every waiting
// cell with its arrival stamp, consuming each frame end as the driver
// does.
func (w *quietWorld) read(i int, tag string) {
	a := w.ad[i]
	now := w.env.Now()
	// Coverage: does a cell on the peer's fibre arrive this very instant?
	if p, ok := a.link.(*Adapter); ok {
		for j := 0; j < p.tx.q.len(); j++ {
			if p.tx.q.timeAt(j)+w.prop == now {
				if tag == "after" {
					w.tieAfter++
				} else if tag == "before" || tag == "sleeper" {
					w.tieBefore++
				}
			}
		}
	}
	w.log = append(w.log, fmt.Sprintf("%d %s h%d avail=%d frames=%d", now, tag, i, a.RxAvail(), a.FramesPending()))
	for a.RxAvail() > 0 {
		stamp := a.rxFIFO.timeAt(0)
		var c Cell
		a.PopRxInto(&c)
		pl := c.Payload()
		entry := fmt.Sprintf("  %d@%d", int(pl[1])<<16|int(pl[2])<<8|int(pl[3]), stamp)
		if IsFrameEnd(&c) && a.FramesPending() > 0 {
			entry += fmt.Sprintf(" end@%d", a.ConsumeFrameEnd())
		}
		w.log = append(w.log, entry)
	}
}

// play schedules a script: a byte choosing each adapter's impairment (see
// quietScript), then three-byte ops at a script clock that gaps advance.
func (w *quietWorld) play(ops []byte) {
	var at sim.Time
	for len(ops) >= 3 {
		op, a1, a2 := ops[0], ops[1], ops[2]
		ops = ops[3:]
		d := int(a1 & 1)
		switch op % 9 {
		case 0: // a frame of 1–210 cells from host d
			n := 1 + (int(a1>>1)<<8|int(a2))%210
			w.env.At(at, "frame", func() { w.send(d, n) })
		case 1: // advance the script clock
			at += sim.Time(int(a1)<<8|int(a2)) * 16
		case 2: // read host 1-d at the arrival of d's k-th cell to come, scheduled now
			k := int(a2)
			w.env.At(at, "plan", func() {
				w.env.At(w.arrivalOf(d, k), "read.planned", func() { w.read(1-d, "before") })
			})
		case 3: // read host 1-d at the arrival of d's k-th cell to come, scheduled after its launch
			k := int(a2)
			w.env.At(at, "plan", func() {
				s := &w.snd[d]
				s.readAfter = append(s.readAfter, s.id+k)
			})
		case 4: // host d's receive side goes down or comes up
			down := a2&1 == 1
			w.env.At(at, "down", func() { w.ad[d].SetDown(down) })
		case 5: // host d loses the next cell to arrive
			w.env.At(at, "dropnext", func() { w.ad[d].DropNext() })
		case 6: // read host d now
			w.env.At(at, "read", func() { w.read(d, "now") })
		case 7: // read host 1-d at the arrival of d's k-th cell to come, scheduled just before its launch
			k := int(a2)
			w.env.At(at, "plan", func() {
				s := &w.snd[d]
				s.readBefore = append(s.readBefore, s.id+k)
			})
		case 8: // host 1-d sleeps until the arrival of the cell d launched k before its newest, then reads
			k := int(a2)
			w.env.At(at, "sleeper", func() {
				until := w.ad[d].TxIdleAt() + w.prop - sim.Time(k)*w.cell
				w.env.Spawn("sleeper", &quietSleeper{w: w, i: 1 - d, until: until})
			})
		}
	}
}

// runQuiet plays script on both pairs and reports how they differ.
func runQuiet(script []byte) (real *quietWorld, err error) {
	if len(script) == 0 {
		return nil, nil
	}
	imps := [2]int{int(script[0]) % impKinds, int(script[0]/impKinds) % impKinds}
	worlds := [2]*quietWorld{newQuietWorld(true, imps), newQuietWorld(false, imps)}
	for _, w := range worlds {
		w.play(script[1:])
		w.env.Run()
	}
	ev, real := worlds[0], worlds[1]
	for i, a := range real.ad {
		// Before any reader receives what the fibre still holds.
		if n := a.tx.q.len(); n != 0 {
			return real, fmt.Errorf("host %d's fibre holds %d cells at quiescence", i, n)
		}
	}
	for _, w := range worlds {
		for i := range w.ad {
			w.read(i, "end")
		}
	}
	if !slices.Equal(ev.log, real.log) {
		for i := 0; i < min(len(ev.log), len(real.log)); i++ {
			if ev.log[i] != real.log[i] {
				return real, fmt.Errorf("logs part at line %d: evented %q, quiet %q", i, ev.log[i], real.log[i])
			}
		}
		return real, fmt.Errorf("logs part at their end: evented %d lines, quiet %d", len(ev.log), len(real.log))
	}
	for i := range ev.ad {
		e, r := ev.ad[i], real.ad[i]
		ce := [...]int64{e.CellsSent, e.CellsRecv, e.CellsDropped, e.CellsCorrupted, e.RxOverflows, e.GEDrops, e.CellsReordered, e.DownDrops}
		cr := [...]int64{r.CellsSent, r.CellsRecv, r.CellsDropped, r.CellsCorrupted, r.RxOverflows, r.GEDrops, r.CellsReordered, r.DownDrops}
		if ce != cr {
			return real, fmt.Errorf("host %d counters: evented %v, quiet %v", i, ce, cr)
		}
	}
	if ev.env.Now() != real.env.Now() {
		return real, fmt.Errorf("drained clock: evented %d, quiet %d", ev.env.Now(), real.env.Now())
	}
	if ev.quiet != 0 {
		return real, fmt.Errorf("the evented pair launched %d quiet cells", ev.quiet)
	}
	// A sleeper the evented pair's arrivals parked may advance in place
	// on the quiet pair: the one other event the quiet pair may skip.
	if got, want := real.env.Fired(), ev.env.Fired()-uint64(real.quiet)-uint64(ev.parks-real.parks); got != want {
		return real, fmt.Errorf("quiet pair fired %d events, want %d (the evented pair's %d less %d quiet cells and %d wakes)",
			got, want, ev.env.Fired(), real.quiet, ev.parks-real.parks)
	}
	return real, nil
}

// Script builders for the table.
func opFrame(d, n int) []byte {
	n--
	return []byte{0, byte(d | (n>>8)<<1), byte(n)}
}
func opGap(ns int) []byte      { return []byte{1, byte(ns / 16 >> 8), byte(ns / 16)} }
func opReadAt(d, k int) []byte { return []byte{2, byte(d), byte(k)} }
func opReadAfter(d, k int) []byte {
	return []byte{3, byte(d), byte(k)}
}
func opDown(d int, down bool) []byte {
	b := byte(0)
	if down {
		b = 1
	}
	return []byte{4, byte(d), b}
}
func opDropNext(d int) []byte          { return []byte{5, byte(d), 0} }
func opRead(d int) []byte              { return []byte{6, byte(d), 0} }
func opReadJustBefore(d, k int) []byte { return []byte{7, byte(d), byte(k)} }
func opSleeper(d, k int) []byte        { return []byte{8, byte(d), byte(k)} }

// quietScript prefixes ops with the impairments of host 0's and host 1's
// receive sides.
func quietScript(imp0, imp1 int, ops ...[]byte) []byte {
	s := []byte{byte(imp0 + imp1*impKinds)}
	for _, op := range ops {
		s = append(s, op...)
	}
	return s
}

var quietScripts = []struct {
	name   string
	script []byte
}{
	{"frames of 1 to 210 cells", quietScript(impNone, impNone,
		opFrame(0, 1), opFrame(0, 2), opFrame(0, 3), opFrame(0, 37), opFrame(0, 182), opFrame(0, 199),
		opFrame(0, 200), opFrame(0, 201), opFrame(0, 210), opGap(900000), opFrame(0, 210))},
	{"both ways, overlapping", quietScript(impNone, impNone,
		opFrame(0, 92), opFrame(1, 182), opGap(20000), opFrame(0, 182), opFrame(1, 5), opGap(300000),
		opFrame(1, 210), opFrame(0, 1))},
	{"reads at quiet arrivals, scheduled before and after their launch", quietScript(impNone, impNone,
		opReadAt(0, 0), opReadAt(0, 1), opReadAt(0, 40), opReadAfter(0, 3), opReadAfter(0, 41),
		opFrame(0, 100), opReadAt(1, 7), opReadAfter(1, 7), opFrame(1, 50), opGap(50000),
		opReadAt(0, 2), opReadAfter(0, 2), opRead(1), opFrame(0, 20), opGap(4000), opRead(1))},
	{"reads during a frame that crosses the drain threshold", quietScript(impNone, impNone,
		opReadAt(0, 150), opReadAfter(0, 198), opReadAt(0, 199), opReadAfter(0, 205),
		opFrame(0, 210), opGap(400000), opRead(1))},
	{"reads at arrivals launched just after and just before them", quietScript(impNone, impNone,
		opReadJustBefore(0, 0), opReadJustBefore(0, 1), opReadJustBefore(0, 37), opReadAfter(0, 0), opReadAfter(0, 38),
		opFrame(0, 120), opGap(800000), opReadJustBefore(1, 0), opReadAfter(1, 0), opFrame(1, 3))},
	{"sleepers advancing in place to an arrival", quietScript(impNone, impNone,
		opFrame(0, 30), opSleeper(0, 5), opSleeper(0, 1), opGap(200000), opFrame(1, 20), opSleeper(1, 0),
		opSleeper(1, 19), opGap(200000), opFrame(0, 100), opSleeper(0, 3))},
	{"burst loss", quietScript(impGE, impGE,
		opFrame(0, 182), opFrame(1, 182), opFrame(0, 210), opReadAt(0, 30), opFrame(0, 182), opGap(100000), opRead(1))},
	{"link down and up mid-frame", quietScript(impNone, impNone,
		opFrame(0, 182), opGap(100000), opDown(1, true), opGap(100000), opDown(1, false), opFrame(0, 40),
		opGap(3000), opDown(1, true), opDown(1, false))},
	{"drop next mid-frame", quietScript(impNone, impNone,
		opFrame(0, 182), opGap(100000), opDropNext(1), opGap(100000), opDropNext(1), opDropNext(1),
		opFrame(1, 3), opDropNext(0))},
	{"reordering armed", quietScript(impNone, impReorder,
		opFrame(0, 182), opFrame(0, 182), opFrame(1, 60), opReadAt(0, 10), opReadAfter(0, 11))},
	{"cell loss armed", quietScript(impLoss, impNone,
		opFrame(1, 182), opFrame(1, 182), opFrame(0, 60), opReadAt(1, 10), opReadAfter(1, 11))},
	{"wire flips armed one way", quietScript(impNone, impFlip,
		opFrame(0, 182), opFrame(1, 182), opFrame(0, 90))},
}

// TestQuietArrivalsMatchEvented plays each script on a switchless pair
// and on the same pair with every arrival an event, and requires the same
// cells popped with the same stamps at the same times, the same counters
// and drained clock, and fewer events by exactly the quiet cells.
func TestQuietArrivalsMatchEvented(t *testing.T) {
	var quiet, before, after int
	for _, tc := range quietScripts {
		real, err := runQuiet(tc.script)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		imps := [2]int{int(tc.script[0]) % impKinds, int(tc.script[0]/impKinds) % impKinds}
		for i, imp := range imps {
			if imp == impLoss && real.quietInto[i] == 0 {
				// The loss chain draws its own stream whenever a cell
				// is received, so a lossy receiver leaves arrivals quiet.
				t.Errorf("%s: no quiet cell into the lossy host %d", tc.name, i)
			}
			if imp == impFlip && real.ad[i].CellsCorrupted != 4 {
				t.Errorf("%s: host %d launched %d flipped cells, want 4", tc.name, i, real.ad[i].CellsCorrupted)
			}
		}
		quiet += real.quiet
		before += real.tieBefore
		after += real.tieAfter
	}
	if quiet == 0 || before == 0 || after == 0 {
		t.Errorf("the table no longer reaches what it was built for: %d quiet cells, %d reads at a quiet arrival scheduled before its launch, %d after",
			quiet, before, after)
	}
}

// FuzzQuietArrivals plays arbitrary scripts on both pairs.
func FuzzQuietArrivals(f *testing.F) {
	for _, tc := range quietScripts {
		f.Add(tc.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1+3*64 {
			script = script[:1+3*64]
		}
		if _, err := runQuiet(script); err != nil {
			t.Fatal(err)
		}
	})
}
