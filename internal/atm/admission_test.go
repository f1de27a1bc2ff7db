package atm

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// serviceOrder is the order a discipline serves its admitted cells in: DRR's
// own, or arrival order for one that only decides admission.
type serviceOrder interface {
	Enqueue(c *Cell, flow uint16)
	Dequeue(dst *Cell) bool
	Len() int
}

// arrivalOrder is the service order of DropTail and RED.
type arrivalOrder struct{ q fifo }

func (a *arrivalOrder) Enqueue(c *Cell, _ uint16) { a.q.push(c) }

func (a *arrivalOrder) Dequeue(dst *Cell) bool {
	if a.q.len() == 0 {
		return false
	}
	a.q.popInto(dst)
	return true
}

func (a *arrivalOrder) Len() int { return a.q.len() }

// eventedPort is a switch egress port run the way every discipline once
// ran: a cell forwarded now reaches the discipline a fabric latency later,
// an event, where the rule admits it on the cells queued there; the link
// takes the discipline's next cell each time it goes idle, and finishing
// it is a second event, which books the arrival at the far end. It is the
// reference the port's one commit path is held to: every discipline's
// admission decisions, and DRR's service order.
type eventedPort struct {
	env                 *sim.Env
	lat, cellTime, prop sim.Time
	rule                *loggedRule
	order               serviceOrder
	sink                *recSink
	serving             bool
	cur                 Cell

	switched, dropped int64
	drops             []int // the refused cells' numbers
	// refusedAt is when the last cell was refused: an arrival event the
	// commit path does not have, and so the one instant the reference's
	// loop can drain at and the commit path's cannot.
	refusedAt sim.Time
}

func newEventedPort(lat sim.Time, rule Qdisc) *eventedPort {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	e := &eventedPort{env: env, lat: lat, cellTime: cost.WireTime(CellSize, model.ATMLinkBitsPS),
		prop: model.ATMPropagation, rule: &loggedRule{Qdisc: rule}, sink: &recSink{env: env}}
	if d, ok := rule.(*DRR); ok {
		e.order = d
	} else {
		e.order = &arrivalOrder{}
	}
	return e
}

// forward sends cell id, from ingress port in, across the fabric; its
// header is rewritten as the switch's VC table rewrites it.
func (e *eventedPort) forward(in, id int) {
	c := numberedCell(id)
	CellHeader{VCI: DefaultVCI + uint16(in)}.Marshal(&c)
	e.env.At(e.env.Now()+e.lat, "qdin", func() {
		if !e.rule.Admit(e.order.Len()) {
			e.dropped++
			e.refusedAt = e.env.Now()
			e.drops = append(e.drops, id)
			return
		}
		e.switched++
		e.order.Enqueue(&c, c.vci())
		e.kick()
	})
}

// kick starts the link on the discipline's next cell if it is idle.
func (e *eventedPort) kick() {
	if e.serving || !e.order.Dequeue(&e.cur) {
		return
	}
	e.serving = true
	e.env.At(e.env.Now()+e.cellTime, "cellout", func() {
		e.serving = false
		c := e.cur
		e.env.At(e.env.Now()+e.prop, "cellin", func() { e.sink.deliverCell(&c) })
		e.kick()
	})
}

// loggedRule records every admission decision a rule makes: the waiting
// count it was offered, its verdict and, for RED, the average after it.
type loggedRule struct {
	Qdisc // the rule
	log   []string
}

func (l *loggedRule) Admit(waiting int) bool {
	ok := l.Qdisc.Admit(waiting)
	entry := fmt.Sprintf("%d:%v", waiting, ok)
	if r, isRED := l.Qdisc.(*RED); isRED {
		entry += fmt.Sprintf(":%v", r.AvgQueue())
	}
	l.log = append(l.log, entry)
	return ok
}

// loggedDRR is a DRR whose admission decisions are logged, still a
// Scheduler, so that a port runs it as it runs DRR.
type loggedDRR struct {
	*DRR
	rule *loggedRule
}

func (l loggedDRR) Admit(waiting int) bool { return l.rule.Admit(waiting) }

// admissionSide is one switch under test: ingress ports 0..n-1, each with
// one VC to the egress port n, whose far end logs arrivals.
type admissionSide struct {
	env   *sim.Env
	sw    *Switch
	out   *Port
	sink  *recSink
	rule  *loggedRule
	drops []int // the cells forward refused
}

func newAdmissionSide(ingress int, lat sim.Time, rule Qdisc) *admissionSide {
	env := sim.NewEnv()
	env.Arena().Poison = true
	model := cost.DECstation5000()
	s := &admissionSide{env: env, sw: NewSwitch(env), sink: &recSink{env: env}, rule: &loggedRule{Qdisc: rule}}
	s.sw.Latency = lat
	for i := 0; i < ingress; i++ {
		s.sw.newPort(&recSink{env: env}, model.ATMLinkBitsPS, model.ATMPropagation)
	}
	s.out = s.sw.newPort(s.sink, model.ATMLinkBitsPS, model.ATMPropagation)
	for i := 0; i < ingress; i++ {
		s.sw.AddVC(i, DefaultVCI, ingress, DefaultVCI+uint16(i))
	}
	if d, ok := rule.(*DRR); ok {
		s.out.SetQdisc(loggedDRR{d, s.rule})
	} else {
		s.out.SetQdisc(s.rule)
	}
	return s
}

// forward delivers cell id over ingress port in, as its fiber would.
func (s *admissionSide) forward(in, id int) {
	c := numberedCell(id)
	before := s.sw.CellsDropped
	s.sw.Port(in).deliverCell(&c)
	if s.sw.CellsDropped != before {
		s.drops = append(s.drops, id)
	}
}

// admissionScript is a script's header and ops decoded. The header's
// three bytes pick the ingress ports (1-4), the fabric latency against
// the cell time and the discipline's parameters; each op after it is
// three bytes: the ingress port, the gap since the previous op and the
// burst it sends.
type admissionScript struct {
	ingress int
	lat     sim.Time
	rule    func() Qdisc
	name    string
	ops     []admissionOp
}

type admissionOp struct {
	in, n int
	at    sim.Time
}

// admissionLatencies are the three cases of the tie rule (see
// transmitter.waiting): a fabric latency below, at and above one cell
// time, each twice.
func admissionLatencies(cell sim.Time) []sim.Time {
	return []sim.Time{cell / 2, cell - 1, cell, cell, DefaultSwitchLatency, 2 * cell}
}

// decodeAdmissionScript decodes a script for DRR, or for DropTail and RED.
func decodeAdmissionScript(script []byte, drr bool) (admissionScript, bool) {
	if len(script) < 6 {
		return admissionScript{}, false
	}
	cell := cost.WireTime(CellSize, cost.DECstation5000().ATMLinkBitsPS)
	lats := admissionLatencies(cell)
	h, k := script[2], int(script[2]>>4)
	s := admissionScript{ingress: int(script[0])%4 + 1, lat: lats[int(script[1])%len(lats)]}
	switch {
	case drr:
		quantum, limit := (1+int(h)%3)*CellSize, k+1
		s.name = fmt.Sprintf("drr %d/%d", quantum, limit)
		s.rule = func() Qdisc { return NewDRR(quantum, limit) }
	case h%2 == 0:
		limit := k%8 + 1
		s.name = fmt.Sprintf("droptail %d", limit)
		s.rule = func() Qdisc { return NewDropTail(limit) }
	default:
		minTh := k%3 + 1
		maxTh := minTh + 1 + int(h>>1)%4
		weight := []float64{0.25, 0.5}[int(h>>3)%2]
		limit := maxTh + k%5
		s.name = fmt.Sprintf("red %d/%d/%v/%d", minTh, maxTh, weight, limit)
		s.rule = func() Qdisc { return NewRED(minTh, maxTh, 0.5, weight, limit, uint64(h)) }
	}
	// Gaps are on a half-cell grid, one nanosecond off it now and then,
	// so that arrivals land exactly on service starts and just beside.
	var at sim.Time
	for i := 3; i+3 <= len(script); i += 3 {
		g := sim.Time(script[i+1])
		at += g%7*(cell/2) + g/7%2
		s.ops = append(s.ops, admissionOp{in: int(script[i]) % s.ingress, n: int(script[i+2])%6 + 1, at: at})
	}
	return s, true
}

// runAdmission runs the script through the port's commit path and through
// the evented reference and returns the first way they differ, with the
// number of arrivals that found a cell starting service at the very
// instant they reached the discipline — the ties the rules decide — and
// the number of cells the reference delivered behind a later one.
func runAdmission(script []byte, drr bool) (ties, reordered int, err error) {
	sc, ok := decodeAdmissionScript(script, drr)
	if !ok {
		return 0, 0, nil
	}
	real := newAdmissionSide(sc.ingress, sc.lat, sc.rule())
	ref := newEventedPort(sc.lat, sc.rule())
	id := 0
	for _, op := range sc.ops {
		for j := 0; j < op.n; j++ {
			in, n := op.in, id
			id++
			real.env.At(op.at, "script", func() {
				if d := real.out.tx.busy - (real.env.Now() + sc.lat); d > 0 && d%ref.cellTime == 0 {
					ties++
				}
				real.forward(in, n)
			})
			ref.env.At(op.at, "script", func() { ref.forward(in, n) })
		}
	}
	real.env.Run()
	ref.env.Run()
	latest := -1
	for _, entry := range ref.sink.log {
		_, idText, _ := strings.Cut(entry, ":")
		if n, _ := strconv.Atoi(idText); n < latest {
			reordered++
		} else {
			latest = n
		}
	}
	where := fmt.Sprintf("%d ingress, latency %d, %s", sc.ingress, sc.lat, sc.name)
	switch {
	case !slices.Equal(real.rule.log, ref.rule.log):
		return ties, reordered, fmt.Errorf("%s: admission (waiting:verdict[:average]) %s", where, firstDiff(real.rule.log, ref.rule.log))
	case !slices.Equal(real.drops, ref.drops):
		return ties, reordered, fmt.Errorf("%s: dropped %v, reference %v", where, real.drops, ref.drops)
	case !slices.Equal(real.sink.log, ref.sink.log):
		return ties, reordered, fmt.Errorf("%s: arrival (time:cell) %s", where, firstDiff(real.sink.log, ref.sink.log))
	case real.sw.CellsSwitched != ref.switched || real.sw.CellsDropped != ref.dropped:
		return ties, reordered, fmt.Errorf("%s: switched %d dropped %d, reference %d %d", where,
			real.sw.CellsSwitched, real.sw.CellsDropped, ref.switched, ref.dropped)
	case max(real.env.Now(), ref.refusedAt) != ref.env.Now():
		return ties, reordered, fmt.Errorf("%s: drained at %d, reference %d", where, real.env.Now(), ref.env.Now())
	}
	return ties, reordered, nil
}

// firstDiff describes where two logs first differ.
func firstDiff(got, want []string) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("%d is %s, reference %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("count %d, reference %d", len(got), len(want))
}

// randomAdmissionScript is a seeded script of n ops.
func randomAdmissionScript(seed uint64, n int) []byte {
	s := make([]byte, 3+3*n)
	sim.NewRNG(seed).Fill(s)
	return s
}

// matchEventedPort runs 600 seeded scripts of 40 ops through the commit
// path and the evented reference. Each latency case must reach ties — a
// cell whose service starts at the instant the arrival reaches the
// discipline — or the rule that breaks them is untested; it returns the
// cells the reference delivered out of arrival order.
func matchEventedPort(t *testing.T, drr bool) (reordered int) {
	cell := cost.WireTime(CellSize, cost.DECstation5000().ATMLinkBitsPS)
	ties := map[string]int{}
	for seed := uint64(1); seed <= 600; seed++ {
		s := randomAdmissionScript(seed, 40)
		n, r, err := runAdmission(s, drr)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reordered += r
		sc, _ := decodeAdmissionScript(s, drr)
		switch {
		case sc.lat < cell:
			ties["below"] += n
		case sc.lat == cell:
			ties["at"] += n
		default:
			ties["above"] += n
		}
	}
	t.Logf("ties by latency against the cell time: %v; %d cells served out of arrival order", ties, reordered)
	for _, c := range []string{"below", "at", "above"} {
		if ties[c] < 100 {
			t.Errorf("latency %s one cell time: %d ties; the scripts no longer reach the tie rule", c, ties[c])
		}
	}
	return reordered
}

// TestFIFOAdmissionMatchesEventedOracle holds the commit path to the
// evented port on bursts from one to four ingress ports, under DropTail
// limits 1 to 8 and RED with small thresholds, at a fabric latency below,
// at and above one cell time: the same admission decisions on the same
// waiting counts (and RED's average after each), the same drops, the same
// cells at the far end at the same instants, the same counters, and the
// same drained clock but for a refused arrival the commit path has no
// event for.
func TestFIFOAdmissionMatchesEventedOracle(t *testing.T) {
	if n := matchEventedPort(t, false); n != 0 {
		t.Errorf("%d cells served out of arrival order by a FIFO discipline", n)
	}
}

// TestDRRServiceMatchesEventedOracle is the same comparison under DRR,
// quanta of one to three cells and limits of 1 to 16: the cell that
// fills each slot, picked when the slot's arrival fires, must be the one
// the evented port's link took from the discipline, so the far end sees
// the same cells at the same instants.
func TestDRRServiceMatchesEventedOracle(t *testing.T) {
	if n := matchEventedPort(t, true); n < 100 {
		t.Errorf("%d cells served out of arrival order; the scripts no longer exercise DRR's order", n)
	}
}

// TestDisciplinesHaveNoServiceEvents counts the events a burst costs: a
// cell through any discipline fires one, its arrival at the far end, as
// through the built-in depth — DRR's arrival at the discipline and its
// service completion are no events.
func TestDisciplinesHaveNoServiceEvents(t *testing.T) {
	const cells = 20
	burst := func(qd ...Qdisc) uint64 {
		s := newAdmissionSide(2, DefaultSwitchLatency, NewDropTail(0))
		for _, q := range qd {
			s.out.SetQdisc(q)
		}
		for i := 0; i < cells; i++ {
			i := i
			s.env.At(0, "script", func() { s.forward(i%2, i) })
		}
		s.env.Run()
		if len(s.sink.log) != cells {
			t.Fatalf("%d of %d cells delivered", len(s.sink.log), cells)
		}
		return s.env.Fired() - cells // less the script's own events
	}
	for _, c := range []struct {
		name string
		qd   []Qdisc
	}{
		{"none", []Qdisc{nil}},
		{"droptail", []Qdisc{NewDropTail(0)}},
		{"red", []Qdisc{NewRED(0, 0, 0, 0, 0, 1)}},
		{"drr", []Qdisc{NewDRR(0, 0)}},
		{"drr, then red", []Qdisc{NewDRR(0, 0), NewRED(0, 0, 0, 0, 0, 1)}},
	} {
		if got := burst(c.qd...); got != cells {
			t.Errorf("%s: %d events for %d cells, want %d", c.name, got, cells, cells)
		}
	}
}

// fuzzAdmission feeds arbitrary scripts to the commit path and the evented
// reference.
func fuzzAdmission(f *testing.F, drr bool) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(randomAdmissionScript(seed, 30))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3+3*200 {
			script = script[:3+3*200]
		}
		if _, _, err := runAdmission(script, drr); err != nil {
			t.Fatal(err)
		}
	})
}

func FuzzFIFOAdmission(f *testing.F) { fuzzAdmission(f, false) }

func FuzzDRRService(f *testing.F) { fuzzAdmission(f, true) }
