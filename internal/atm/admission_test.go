package atm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// eventedFIFO is a discipline that serves in arrival order run the way
// every discipline once ran, and DRR still does: a Scheduler with a cell
// queue of its own in front of the admission rule, so that each cell costs
// an arrival event at the discipline, one fabric latency after it is
// forwarded, and a service completion. It is the oracle the admission path
// — the rule alone, asked at forward time how many cells the transmitter
// would have waiting — is held to.
type eventedFIFO struct {
	Qdisc // the admission rule
	q     fifo
	// refusedAt is when the last cell was refused: an arrival event the
	// admission path does not have, and so the one instant the oracle's
	// loop can drain at and the admission path's cannot.
	refusedAt sim.Time
	env       *sim.Env
	drops     []int // the refused cells' numbers
}

func (e *eventedFIFO) Enqueue(c *Cell, _ uint16) bool {
	if !e.Admit(e.q.len()) {
		e.refusedAt = e.env.Now()
		e.drops = append(e.drops, cellID(c))
		return false
	}
	e.q.push(c)
	return true
}

func (e *eventedFIFO) Dequeue(dst *Cell) bool {
	if e.q.len() == 0 {
		return false
	}
	e.q.popInto(dst)
	return true
}

func (e *eventedFIFO) Len() int { return e.q.len() }

func (e *eventedFIFO) Reset() {
	e.Qdisc.Reset()
	e.q.reset()
}

// loggedRule records every admission decision a rule makes: the waiting
// count it was offered, its verdict and, for RED, the average after it.
// Wrapped around a rule, it is not a Scheduler, so a port runs it on the
// admission path.
type loggedRule struct {
	rule Qdisc
	log  []string
}

func (l *loggedRule) Admit(waiting int) bool {
	ok := l.rule.Admit(waiting)
	entry := fmt.Sprintf("%d:%v", waiting, ok)
	if r, isRED := l.rule.(*RED); isRED {
		entry += fmt.Sprintf(":%v", r.AvgQueue())
	}
	l.log = append(l.log, entry)
	return ok
}

func (l *loggedRule) Reset() { l.rule.Reset() }

// admissionSide is one switch under test: ingress ports 0..n-1, each with
// one VC to the egress port n, whose far end logs arrivals.
type admissionSide struct {
	env   *sim.Env
	sw    *Switch
	out   *Port
	sink  *recSink
	rule  *loggedRule
	drops []int // admission path: the cells forward refused
}

func newAdmissionSide(ingress int, lat sim.Time, rule Qdisc, evented bool) *admissionSide {
	env := sim.NewEnv()
	env.Arena().Poison = true
	model := cost.DECstation5000()
	s := &admissionSide{env: env, sw: NewSwitch(env), sink: &recSink{env: env}, rule: &loggedRule{rule: rule}}
	s.sw.Latency = lat
	for i := 0; i < ingress; i++ {
		s.sw.newPort(&recSink{env: env}, model.ATMLinkBitsPS, model.ATMPropagation)
	}
	s.out = s.sw.newPort(s.sink, model.ATMLinkBitsPS, model.ATMPropagation)
	for i := 0; i < ingress; i++ {
		s.sw.AddVC(i, DefaultVCI, ingress, DefaultVCI+uint16(i))
	}
	if evented {
		s.out.SetQdisc(&eventedFIFO{Qdisc: s.rule, env: env})
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
// the cell time and the discipline; each op after it is three bytes: the
// ingress port, the gap since the previous op and the burst it sends.
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

func decodeAdmissionScript(script []byte) (admissionScript, bool) {
	if len(script) < 6 {
		return admissionScript{}, false
	}
	cell := cost.WireTime(CellSize, cost.DECstation5000().ATMLinkBitsPS)
	lats := admissionLatencies(cell)
	h, k := script[2], int(script[2]>>4)
	s := admissionScript{ingress: int(script[0])%4 + 1, lat: lats[int(script[1])%len(lats)]}
	if h%2 == 0 {
		limit := k%8 + 1
		s.name = fmt.Sprintf("droptail %d", limit)
		s.rule = func() Qdisc { return NewDropTail(limit) }
	} else {
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

// runAdmission runs the script through the admission path and through the
// evented oracle and returns the first way they differ, with the number
// of arrivals that found a cell starting service at the very instant they
// reached the discipline: the ties the rule decides.
func runAdmission(script []byte) (ties int, err error) {
	sc, ok := decodeAdmissionScript(script)
	if !ok {
		return 0, nil
	}
	real := newAdmissionSide(sc.ingress, sc.lat, sc.rule(), false)
	oracle := newAdmissionSide(sc.ingress, sc.lat, sc.rule(), true)
	cell := cost.WireTime(CellSize, real.out.bits)
	id := 0
	for _, op := range sc.ops {
		for j := 0; j < op.n; j++ {
			in, n := op.in, id
			id++
			real.env.At(op.at, "script", func() {
				if d := real.out.tx.busy - (real.env.Now() + sc.lat); d > 0 && d%cell == 0 {
					ties++
				}
				real.forward(in, n)
			})
			oracle.env.At(op.at, "script", func() { oracle.forward(in, n) })
		}
	}
	real.env.Run()
	oracle.env.Run()
	fifo := oracle.out.qdp.s.(*eventedFIFO)
	where := fmt.Sprintf("%d ingress, latency %d, %s", sc.ingress, sc.lat, sc.name)
	switch {
	case real.out.qdp != nil:
		return ties, fmt.Errorf("%s: the admission path took the service path", where)
	case !slices.Equal(real.rule.log, oracle.rule.log):
		return ties, fmt.Errorf("%s: admission (waiting:verdict[:average]) %s", where, firstDiff(real.rule.log, oracle.rule.log))
	case !slices.Equal(real.drops, fifo.drops):
		return ties, fmt.Errorf("%s: dropped %v, oracle %v", where, real.drops, fifo.drops)
	case !slices.Equal(real.sink.log, oracle.sink.log):
		return ties, fmt.Errorf("%s: arrival (time:cell) %s", where, firstDiff(real.sink.log, oracle.sink.log))
	case real.sw.CellsSwitched != oracle.sw.CellsSwitched || real.sw.CellsDropped != oracle.sw.CellsDropped:
		return ties, fmt.Errorf("%s: switched %d dropped %d, oracle %d %d", where,
			real.sw.CellsSwitched, real.sw.CellsDropped, oracle.sw.CellsSwitched, oracle.sw.CellsDropped)
	case max(real.env.Now(), fifo.refusedAt) != oracle.env.Now():
		return ties, fmt.Errorf("%s: drained at %d, oracle %d", where, real.env.Now(), oracle.env.Now())
	}
	return ties, nil
}

// firstDiff describes where two logs first differ.
func firstDiff(got, want []string) string {
	for i := 0; i < min(len(got), len(want)); i++ {
		if got[i] != want[i] {
			return fmt.Sprintf("%d is %s, oracle %s", i, got[i], want[i])
		}
	}
	return fmt.Sprintf("count %d, oracle %d", len(got), len(want))
}

// randomAdmissionScript is a seeded script of n ops.
func randomAdmissionScript(seed uint64, n int) []byte {
	s := make([]byte, 3+3*n)
	sim.NewRNG(seed).Fill(s)
	return s
}

// TestFIFOAdmissionMatchesEventedOracle holds the admission path to the
// evented FIFO on bursts from one to four ingress ports, under DropTail
// limits 1 to 8 and RED with small thresholds, at a fabric latency below,
// at and above one cell time: the same admission decisions on the same
// waiting counts (and RED's average after each), the same drops, the same
// cells at the far end at the same instants, the same counters, and the
// same drained clock but for a refused arrival the admission path has no
// event for. Each latency case must reach ties — a cell whose service
// starts at the instant the arrival reaches the discipline — or the rule
// that breaks them is untested.
func TestFIFOAdmissionMatchesEventedOracle(t *testing.T) {
	cell := cost.WireTime(CellSize, cost.DECstation5000().ATMLinkBitsPS)
	ties := map[string]int{}
	for seed := uint64(1); seed <= 600; seed++ {
		s := randomAdmissionScript(seed, 40)
		n, err := runAdmission(s)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sc, _ := decodeAdmissionScript(s)
		switch {
		case sc.lat < cell:
			ties["below"] += n
		case sc.lat == cell:
			ties["at"] += n
		default:
			ties["above"] += n
		}
	}
	t.Logf("ties by latency against the cell time: %v", ties)
	for _, c := range []string{"below", "at", "above"} {
		if ties[c] < 100 {
			t.Errorf("latency %s one cell time: %d ties; the scripts no longer reach the tie rule", c, ties[c])
		}
	}
}

// TestOnlySchedulersHaveServiceEvents counts the events a burst costs: a
// cell through a discipline that serves in arrival order fires one, its
// arrival at the far end, as through the built-in depth; a cell through
// DRR fires three. A port that had a Scheduler and is given a FIFO
// discipline leaves the service path.
func TestOnlySchedulersHaveServiceEvents(t *testing.T) {
	const cells = 20
	burst := func(qd ...Qdisc) uint64 {
		s := newAdmissionSide(2, DefaultSwitchLatency, NewDropTail(0), false)
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
		per  uint64
	}{
		{"none", []Qdisc{nil}, 1},
		{"droptail", []Qdisc{NewDropTail(0)}, 1},
		{"red", []Qdisc{NewRED(0, 0, 0, 0, 0, 1)}, 1},
		{"drr", []Qdisc{NewDRR(0, 0)}, 3},
		{"drr, then red", []Qdisc{NewDRR(0, 0), NewRED(0, 0, 0, 0, 0, 1)}, 1},
	} {
		if got := burst(c.qd...); got != c.per*cells {
			t.Errorf("%s: %d events for %d cells, want %d", c.name, got, cells, c.per*cells)
		}
	}
}

// FuzzFIFOAdmission feeds arbitrary scripts to the admission path and the
// evented oracle.
func FuzzFIFOAdmission(f *testing.F) {
	for seed := uint64(1); seed <= 12; seed++ {
		f.Add(randomAdmissionScript(seed, 30))
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3+3*200 {
			script = script[:3+3*200]
		}
		if _, err := runAdmission(script); err != nil {
			t.Fatal(err)
		}
	})
}
