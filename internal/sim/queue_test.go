package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The order-equivalence oracle. refQueue is the event engine as it stood
// before lanes, timers, tiers and nested service: one plain 4-ary heap,
// one event per lane record, a generation-stamped event per timer re-arm
// whose stale copies pop as no-ops, and a wake event parked for every
// sleep that has to wait, where the real Env serves the events ahead of
// the wake on the sleeper's own stack. A script of scheduling and run
// operations drives it and the real Env side by side; the two must log
// the identical sequence of (clock, callback) firings and stop at the
// identical clock, whichever run loop drives the Env.

type refEvent struct {
	at  Time
	seq uint64
	fn  func()
}

type refQueue struct {
	now     Time
	seq     uint64
	heap    []refEvent
	horizon Time
	// deadline is runUntil's: no sleep advances in place past it.
	deadline Time
	inProc   bool
	gens     [scriptTimers]int
	parked   []func() // processes waiting on the script's wait queue, oldest first
}

func (a *refEvent) before(b *refEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (r *refQueue) at(t Time, fn func()) {
	if t < r.now {
		panic(fmt.Sprintf("ref: scheduling at %v, before now %v", t, r.now))
	}
	r.seq++
	ev := refEvent{t, r.seq, fn}
	q := append(r.heap, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	r.heap = q
}

func (r *refQueue) step() {
	q := r.heap
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	r.heap = q
	if n > 0 {
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			min := first
			for j := first + 1; j < first+4 && j < n; j++ {
				if q[j].before(&q[min]) {
					min = j
				}
			}
			if !q[min].before(&last) {
				break
			}
			q[i] = q[min]
			i = min
		}
		q[i] = last
	}
	r.now = top.at
	top.fn()
}

func (r *refQueue) runUntil(deadline Time) {
	r.deadline = deadline
	for len(r.heap) > 0 && r.heap[0].at <= deadline {
		r.step()
	}
	r.deadline = MaxTime
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refQueue) runWindow() {
	for len(r.heap) > 0 && r.heap[0].at < r.horizon {
		r.step()
	}
}

// sleepUntil is Proc.SleepUntil as it was before nested service: advance
// in place when nothing can fire first, else park behind a wake event
// that runs resume.
func (r *refQueue) sleepUntil(t Time, resume func()) bool {
	if t <= r.now {
		return true
	}
	if r.inProc && t < r.horizon && t <= r.deadline && (len(r.heap) == 0 || r.heap[0].at > t) {
		r.now = t
		return true
	}
	r.at(t, func() {
		r.inProc = true
		resume()
		r.inProc = false
	})
	return false
}

// wakeAt is WaitQueue.WakeAt: the longest waiter resumes at t.
func (r *refQueue) wakeAt(t Time) {
	if len(r.parked) == 0 {
		return
	}
	resume := r.parked[0]
	r.parked = r.parked[1:]
	r.at(t, func() {
		r.inProc = true
		resume()
		r.inProc = false
	})
}

// lower is a callback tightening the window it runs in, as the cluster
// does when a cell crosses a cut mid-window.
func (r *refQueue) lower(t Time) {
	if t < r.horizon {
		r.horizon = t
	}
}

// The script. Every operation is three bytes — kind, target, delay — so
// a fuzzer's mutations stay meaningful. The top level consumes
// operations in order; every callback that fires, and every step of a
// sleeping process, consumes the next one as its reaction, which is how
// a timer comes to be re-armed from its own callback or a lane appended
// to from its own. A process whose reaction names a target of 128 or more
// parks on the script's one wait queue instead of sleeping, and stays
// there until an opWake reaches it. Both implementations draw from the
// one cursor, so they stay in step exactly as long as they fire in the
// same order.
//
// The delay byte's low five bits are 0–31 ticks, which keeps scripts dense
// in ties; its top three bits say ticks of what (see scriptDelay), so one
// script mixes delays that stay in the near tier, delays that straddle
// farAfter to the tick, and delays of milliseconds — a timer re-armed from
// near to far and back, a lane whose later records are far, a sleeper
// whose deadline lies beyond a window.
const (
	opAt = iota
	opAtArg
	opLane
	opTimerSet
	opTimerStop
	opSpawn
	opRunUntil
	opRunWindow
	opWake
	opLower
	opKinds

	scriptLanes  = 3
	scriptTimers = 3
	scriptProcs  = 3
)

// Callback identities in the log.
const (
	idPlain = 100 // + target
	idArg   = 200 // + target
	idLane  = 300 // + lane
	idTimer = 400 // + timer
	idProc  = 500 // + proc
)

type scriptOp struct {
	kind, who int
	delay     Time
}

// target is the queue a script is applied to: the real Env or refQueue.
type target interface {
	clock() Time
	plain(t Time, id int)
	arg(t Time, id int)
	lane(i int, t Time)
	timerSet(i int, t Time)
	timerStop(i int)
	spawn(i int, t Time)
	wakeAt(t Time)
	lower(t Time)
	runUntil(t Time)
	runWindow(h Time)
	drain()
}

type driver struct {
	ops     []byte
	cur     int
	q       target
	log     []string
	base    Time // the top level's clock: the last run bound
	spawned [scriptProcs]bool

	// What the real queue's sleepers reached, for the seeds that must
	// reach a case of nested service (see queueOrderCases): the wake of
	// every sleep in progress, innermost last, and the bound of the
	// running RunUntil.
	sleeps   []Time
	deadline Time
	reached  [nestCases]bool
}

// The cases of nested service a script can reach on the real queue.
const (
	nestTwoDeep       = iota // an event served by a sleep served by a sleep
	nestPastEnclosing        // a served sleeper's wake at or past the one serving it
	nestPastDeadline         // a sleep ending past the running RunUntil's deadline
	nestLowered              // the horizon lowered by an event a sleep serves
	nestCases
)

// sleeping notes a real sleeper's sleep to t about to start.
func (d *driver) sleeping(t Time) {
	if n := len(d.sleeps); n > 0 && t >= d.sleeps[n-1] {
		d.reached[nestPastEnclosing] = true
	}
	if t > d.deadline {
		d.reached[nestPastDeadline] = true
	}
	d.sleeps = append(d.sleeps, t)
}

func (d *driver) next() (scriptOp, bool) {
	if d.cur+3 > len(d.ops) {
		return scriptOp{}, false
	}
	b := d.ops[d.cur : d.cur+3]
	d.cur += 3
	return scriptOp{kind: int(b[0]) % opKinds, who: int(b[1]), delay: scriptDelay(b[2])}, true
}

// Delay bytes with the top bits set: ticks counted from just short of
// the far threshold, from the threshold itself, and quarter-thresholds.
const (
	delayStraddle = 5 << 5
	delayFar      = 6 << 5
	delayQuarters = 7 << 5
)

func scriptDelay(b byte) Time {
	ticks := Time(b % 32)
	switch b &^ 31 {
	case delayStraddle:
		return farAfter - 16 + ticks
	case delayFar:
		return farAfter + ticks
	case delayQuarters:
		return ticks * farAfter / 4
	}
	return ticks
}

// fired logs one callback firing and applies its reaction.
func (d *driver) fired(id int) {
	if len(d.sleeps) >= 2 {
		d.reached[nestTwoDeep] = true
	}
	d.log = append(d.log, fmt.Sprintf("%d@%d", id, d.q.clock()))
	if op, ok := d.next(); ok {
		d.schedule(op, d.q.clock())
	}
}

// schedule applies a scheduling operation relative to now; run
// operations are the top level's alone and do nothing here.
func (d *driver) schedule(op scriptOp, now Time) {
	t := now + op.delay
	switch op.kind {
	case opAt:
		d.q.plain(t, idPlain+op.who%4)
	case opAtArg:
		d.q.arg(t, idArg+op.who%4)
	case opLane:
		d.q.lane(op.who%scriptLanes, t)
	case opTimerSet:
		d.q.timerSet(op.who%scriptTimers, t)
	case opTimerStop:
		d.q.timerStop(op.who % scriptTimers)
	case opWake:
		d.q.wakeAt(t)
	case opLower:
		if len(d.sleeps) > 0 {
			d.reached[nestLowered] = true
		}
		d.q.lower(t)
	}
}

// parks says whether a process whose reaction was op waits to be woken
// rather than sleeping op.delay.
func (op scriptOp) parks() bool { return op.who >= 128 }

func (d *driver) run() {
	for {
		op, ok := d.next()
		if !ok {
			break
		}
		switch op.kind {
		case opSpawn:
			if i := op.who % scriptProcs; !d.spawned[i] {
				// Spawned from an event at the top level's clock: Spawn
				// starts a process "now", and after a window the two
				// queues' own clocks may differ (see opRunWindow).
				d.spawned[i] = true
				d.q.spawn(i, d.base)
			}
		case opRunUntil:
			// Both run forms bound how far a process may sleep in place:
			// one that ran past the bound would run ahead of the top
			// level's next operation in whichever queue let it, and dead
			// events decide that. RunUntil's deadline bounds it by itself
			// (the Env's ceiling key), the reference's by its deadline.
			d.base += op.delay
			d.deadline = d.base
			d.q.runUntil(d.base)
			d.deadline = MaxTime
		case opRunWindow:
			// After a window the two clocks may legitimately differ (a
			// dead event the reference popped, the real queue never
			// held), so the top level schedules from the horizon.
			d.base += op.delay
			d.q.runWindow(d.base)
		default:
			d.schedule(op, d.base)
		}
	}
	d.q.drain()
	d.log = append(d.log, fmt.Sprintf("end@%d", d.q.clock()))
}

// drive is which loop runs the Env under test where the script leaves a
// choice: the windows and the final drain.
type drive int

const (
	driveRun    drive = iota // RunWindow, then Run to the end
	driveStep                // bare NextEventAt/Step loops throughout
	driveWindow              // RunWindow, and windows to the end as well
	drives
)

// realTarget drives the Env under test.
type realTarget struct {
	d      *driver
	e      *Env
	by     drive
	lanes  [scriptLanes]Lane
	timers [scriptTimers]Timer
	argFn  func(uint64)
	wq     WaitQueue // the zero value, as an owner would embed it
}

func newRealTarget(d *driver, by drive) *realTarget {
	r := &realTarget{d: d, e: NewEnv(), by: by}
	for i := range r.lanes {
		r.lanes[i].Bind(r)
	}
	for i := range r.timers {
		r.timers[i].Bind(r)
	}
	r.argFn = func(id uint64) { d.fired(int(id)) }
	return r
}

// LaneFired implements LaneOwner as a production owner does: one method
// for all its lanes, told apart by address.
func (r *realTarget) LaneFired(l *Lane) {
	for i := range r.lanes {
		if l == &r.lanes[i] {
			r.d.fired(idLane + i)
		}
	}
}

// TimerFired implements TimerOwner the same way.
func (r *realTarget) TimerFired(t *Timer) {
	for i := range r.timers {
		if t == &r.timers[i] {
			r.d.fired(idTimer + i)
		}
	}
}

// timerFunc is a TimerOwner for tests whose timer only needs to run a
// closure, and laneFunc the same for a lane.
type (
	timerFunc func()
	laneFunc  func()
)

func (f timerFunc) TimerFired(*Timer) { f() }
func (f laneFunc) LaneFired(*Lane)    { f() }

func (r *realTarget) clock() Time          { return r.e.Now() }
func (r *realTarget) plain(t Time, id int) { r.e.At(t, "plain", func() { r.d.fired(id) }) }
func (r *realTarget) arg(t Time, id int) {
	r.e.AtArg(t, "arg", r.argFn, uint64(id))
}
func (r *realTarget) lane(i int, t Time)     { r.lanes[i].At(r.e, t, "lane") }
func (r *realTarget) timerSet(i int, t Time) { r.timers[i].Set(r.e, t, "timer") }
func (r *realTarget) timerStop(i int)        { r.timers[i].Stop() }
func (r *realTarget) spawn(i int, t Time) {
	r.e.At(t, "spawner", func() { r.e.Spawn("sleeper", &realSleeper{d: r.d, id: idProc + i, wq: &r.wq}) })
}
func (r *realTarget) wakeAt(t Time) { r.wq.WakeAt(t) }
func (r *realTarget) lower(t Time) {
	if t < r.e.Horizon() {
		r.e.SetHorizon(t)
	}
}
func (r *realTarget) runUntil(t Time) { r.e.SetHorizon(MaxTime); r.e.RunUntil(t) }
func (r *realTarget) runWindow(h Time) {
	r.e.SetHorizon(h)
	if r.by != driveStep {
		r.e.RunWindow()
		return
	}
	// The horizon is read every turn: a callback may have lowered it.
	for at, ok := r.e.NextEventAt(); ok && at < r.e.Horizon() && r.e.Step(); at, ok = r.e.NextEventAt() {
	}
}
func (r *realTarget) drain() {
	r.e.SetHorizon(MaxTime)
	switch r.by {
	case driveRun:
		r.e.Run()
	case driveStep:
		for r.e.Step() {
		}
	case driveWindow:
		// A callback that lowers the horizon ends the window early; the
		// next one starts unbounded again, as a cluster's next round would.
		for r.e.Pending() > 0 {
			r.e.SetHorizon(MaxTime)
			r.e.RunWindow()
		}
	}
}

// realSleeper logs, reacts, and sleeps the reaction's delay — or parks on
// the wait queue — until the script runs out.
type realSleeper struct {
	d  *driver
	id int
	wq *WaitQueue
}

func (s *realSleeper) Step(p *Proc) {
	for {
		now := p.Env().Now()
		s.d.log = append(s.d.log, fmt.Sprintf("%d@%d", s.id, now))
		op, ok := s.d.next()
		if !ok {
			p.Return()
			return
		}
		s.d.schedule(op, now)
		if op.parks() {
			s.wq.Wait(p)
			return
		}
		s.d.sleeping(now + op.delay)
		woke := p.SleepUntil(now + op.delay)
		s.d.sleeps = s.d.sleeps[:len(s.d.sleeps)-1]
		if !woke {
			return
		}
	}
}

// refTarget drives the reference queue.
type refTarget struct {
	d *driver
	r refQueue
}

func (r *refTarget) clock() Time          { return r.r.now }
func (r *refTarget) plain(t Time, id int) { r.r.at(t, func() { r.d.fired(id) }) }
func (r *refTarget) arg(t Time, id int)   { r.r.at(t, func() { r.d.fired(id) }) }
func (r *refTarget) lane(i int, t Time)   { r.r.at(t, func() { r.d.fired(idLane + i) }) }
func (r *refTarget) timerSet(i int, t Time) {
	r.r.gens[i]++
	gen := r.r.gens[i]
	r.r.at(t, func() {
		if gen == r.r.gens[i] {
			r.d.fired(idTimer + i)
		}
	})
}
func (r *refTarget) timerStop(i int) { r.r.gens[i]++ }
func (r *refTarget) spawn(i int, t Time) {
	r.r.at(t, func() {
		r.r.at(r.r.now, func() {
			r.r.inProc = true
			r.sleeper(idProc + i)
			r.r.inProc = false
		})
	})
}
func (r *refTarget) sleeper(id int) {
	for {
		now := r.r.now
		r.d.log = append(r.d.log, fmt.Sprintf("%d@%d", id, now))
		op, ok := r.d.next()
		if !ok {
			return
		}
		r.d.schedule(op, now)
		if op.parks() {
			r.r.parked = append(r.r.parked, func() { r.sleeper(id) })
			return
		}
		if !r.r.sleepUntil(now+op.delay, func() { r.sleeper(id) }) {
			return
		}
	}
}
func (r *refTarget) wakeAt(t Time)    { r.r.wakeAt(t) }
func (r *refTarget) lower(t Time)     { r.r.lower(t) }
func (r *refTarget) runUntil(t Time)  { r.r.horizon = MaxTime; r.r.runUntil(t) }
func (r *refTarget) runWindow(h Time) { r.r.horizon = h; r.r.runWindow() }
func (r *refTarget) drain() {
	r.r.horizon = MaxTime
	for len(r.r.heap) > 0 {
		r.r.step()
	}
}

// checkQueueOrder runs script on the reference and, once per drive, on the
// real queue, and reports the first divergence in what fired, when. It
// returns the cases of nested service the real queue reached under any
// drive.
func checkQueueOrder(t testing.TB, script []byte) (reached [nestCases]bool) {
	t.Helper()
	ref := &driver{ops: script, deadline: MaxTime}
	ref.q = &refTarget{d: ref, r: refQueue{horizon: MaxTime, deadline: MaxTime}}
	ref.run()

	for by := drive(0); by < drives; by++ {
		real := &driver{ops: script, deadline: MaxTime}
		rt := newRealTarget(real, by)
		real.q = rt
		real.run()

		for i := 0; i < len(ref.log) || i < len(real.log); i++ {
			var want, got string
			if i < len(ref.log) {
				want = ref.log[i]
			}
			if i < len(real.log) {
				got = real.log[i]
			}
			if want != got {
				t.Fatalf("script %v, drive %d: firing %d is %q, reference fired %q\n real: %s\n  ref: %s",
					script, by, i, got, want, strings.Join(real.log, " "), strings.Join(ref.log, " "))
			}
		}
		if n := rt.e.Pending(); n != 0 {
			t.Fatalf("script %v, drive %d: %d events pending after the drain", script, by, n)
		}
		for i := range rt.timers {
			if rt.timers[i].Armed() {
				t.Fatalf("script %v, drive %d: timer %d still armed after the drain", script, by, i)
			}
		}
		rt.e.Reset() // panics on anything left in a lane or either tier
		for i, ok := range real.reached {
			reached[i] = reached[i] || ok
		}
	}
	return reached
}

// Hand-written scripts for the cases the design turns on; they seed the
// fuzzer and run in the property test.
var queueOrderSeeds = [][]byte{
	// Deadline moved earlier, then later: set +20, set +5, set +30, drain.
	{opTimerSet, 0, 20, opTimerSet, 0, 5, opTimerSet, 0, 30},
	// Later, then earlier but past the walking entry (+10, +30, +20): the
	// +30 deadline must still pop, or the drained clocks differ.
	{opTimerSet, 0, 10, opTimerSet, 0, 30, opTimerSet, 0, 20, opTimerStop, 0, 0},
	// Stop, then drain: the stopped deadline still sets the final clock.
	{opTimerSet, 1, 25, opAt, 0, 3, opTimerStop, 1, 0},
	// Re-arm from inside the timer's own callback: the reaction to timer
	// 0 firing is the next operation, a Set on timer 0 — twice over.
	{opTimerSet, 0, 4, opRunUntil, 0, 10, opTimerSet, 0, 6, opTimerSet, 0, 0, opAt, 1, 1},
	// Lane append from inside the lane's callback, then an out-of-order
	// time (+2 after +9) that must fall back to a plain event.
	{opLane, 0, 5, opLane, 0, 9, opLane, 0, 2, opRunUntil, 0, 5, opLane, 0, 1, opLane, 0, 0},
	// Equal times everywhere: ties break by scheduling order alone.
	{opLane, 1, 7, opAt, 0, 7, opTimerSet, 2, 7, opAtArg, 1, 7, opLane, 1, 7, opTimerSet, 2, 7},
	// A sleeper whose fast path a dead timer event would have blocked,
	// inside a window bounded by a horizon.
	{opTimerSet, 0, 3, opTimerSet, 0, 31, opSpawn, 0, 0, opRunWindow, 0, 12, opAt, 0, 9, opLane, 2, 4,
		opRunWindow, 0, 8, opTimerSet, 0, 1, opRunUntil, 0, 20},
	// Two processes park on the wait queue (reactions with targets of 128
	// and up) and are woken in order, one at a time tied with a plain
	// event, the other later: a wake is an event carrying the process.
	{opSpawn, 0, 0, opSpawn, 1, 0, opRunUntil, 0, 1, opAt, 200, 2, opAt, 201, 2, opRunUntil, 0, 4,
		opAt, 1, 3, opWake, 0, 3, opWake, 0, 9, opWake, 0, 9, opRunUntil, 0, 30},
}

// Scripts for nested service — a sleep that has to wait serving the
// events ahead of its wake where the reference parks it — each with the
// case it must reach on the real queue: checked, so a seed that drifts
// off its case fails instead of passing vacuously. They seed the fuzzer
// after queueOrderSeeds.
var queueOrderCases = []struct {
	name   string
	reach  int
	script []byte
}{
	// Process 0 sleeps to 10 past a plain event at 10; serving, it starts
	// process 1, which sleeps to 5 past a plain event at 5 and serves
	// that one two deep. The event's reaction lands at 5, behind process
	// 1's wake, which therefore advances first; process 0 then serves it
	// and the event at 10 before its own wake.
	{"two deep", nestTwoDeep, []byte{opSpawn, 0, 0, opSpawn, 1, 0, opRunUntil, 0, 30,
		opAt, 0, 10, opAt, 1, 5, opAt, 2, 0}},
	// Process 0 sleeps to 10 past a plain event at 10 and, serving,
	// starts process 1, whose sleep to 20 ends past process 0's wake: it
	// parks, and the event at 10 and process 0 go first.
	{"past the enclosing wake", nestPastEnclosing, []byte{opSpawn, 0, 0, opSpawn, 1, 0, opRunUntil, 0, 30,
		opAt, 0, 10, opAt, 1, 20}},
	// Inside RunUntil(10) a lone process sleeps to 20 with nothing queued
	// ahead of it: it parks at the deadline, and the top level's next
	// event, at 13, fires before it wakes.
	{"past the deadline", nestPastDeadline, []byte{opSpawn, 0, 0, opRunUntil, 0, 10,
		opTimerStop, 0, 20, opAt, 1, 3}},
	// Inside a window to 30, process 0 sleeps to 10 and serves a plain
	// event at 5, which lowers the horizon to 8: the wake now lies past
	// it, so the process parks and wakes in the drain.
	{"horizon lowered while serving", nestLowered, []byte{opSpawn, 0, 0, opRunWindow, 0, 30,
		opAt, 0, 10, opLower, 0, 3, opAt, 1, 0}},
}

// TestQueueOrderMatchesReference is the property test: the seeds, then
// random scripts dense in ties (five delays in eight are 0–31 ticks, the
// rest reach into the far tier) and long enough for lanes to queue and
// timers to be re-armed dozens of times.
func TestQueueOrderMatchesReference(t *testing.T) {
	for _, s := range queueOrderSeeds {
		checkQueueOrder(t, s)
	}
	for _, c := range queueOrderCases {
		if reached := checkQueueOrder(t, c.script); !reached[c.reach] {
			t.Errorf("seed %q: never reached its case on the real queue", c.name)
		}
	}
	rng := rand.New(rand.NewSource(1994))
	for i := 0; i < 3000; i++ {
		script := make([]byte, 3*(1+rng.Intn(120)))
		rng.Read(script)
		checkQueueOrder(t, script)
	}
}

// FuzzQueueOrder lets the fuzzer hunt for a script that separates the
// queue from its reference.
func FuzzQueueOrder(f *testing.F) {
	for _, s := range queueOrderSeeds {
		f.Add(s)
	}
	for _, c := range queueOrderCases {
		f.Add(c.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 3*400 {
			script = script[:3*400]
		}
		checkQueueOrder(t, script)
	})
}

// chainSleeper is one link of TestNestedChainMatchesReference: it starts,
// sleeps to wake, and logs both.
type chainSleeper struct {
	id, wake Time
	log      *[]string
	depth    *int // sleeps in progress when a link starts
	deepest  *int
	started  bool
}

func (c *chainSleeper) Step(p *Proc) {
	e := p.Env()
	if !c.started {
		c.started = true
		*c.log = append(*c.log, fmt.Sprintf("start%d@%d", c.id, e.Now()))
		*c.deepest = max(*c.deepest, *c.depth)
		*c.depth++
		woke := p.SleepUntil(c.wake)
		*c.depth--
		if !woke {
			return
		}
	}
	*c.log = append(*c.log, fmt.Sprintf("wake%d@%d", c.id, e.Now()))
	p.Return()
}

// TestNestedChainMatchesReference starts a thousand processes one
// tick apart, each sleeping to a wake earlier than the one before: every
// sleep waits behind the next process's start, so the sleeps nest one
// inside the next, 999 deep, and the wakes unwind innermost first. The
// firings must be the parking reference's.
func TestNestedChainMatchesReference(t *testing.T) {
	const n, last = 1000, 3000
	var want []string
	r := &refQueue{horizon: MaxTime, deadline: MaxTime}
	for i := Time(0); i < n; i++ {
		i := i
		wake := func() { want = append(want, fmt.Sprintf("wake%d@%d", i, r.now)) }
		r.at(i, func() {
			r.inProc = true
			want = append(want, fmt.Sprintf("start%d@%d", i, r.now))
			if r.sleepUntil(last-i, wake) {
				wake()
			}
			r.inProc = false
		})
	}
	for len(r.heap) > 0 {
		r.step()
	}

	var got []string
	depth, deepest := 0, 0
	e := NewEnv()
	for i := Time(0); i < n; i++ {
		e.SpawnAt(i, "chain", &chainSleeper{id: i, wake: last - i, log: &got, depth: &depth, deepest: &deepest})
	}
	e.Run()
	if w, g := strings.Join(want, " "), strings.Join(got, " "); g != w {
		t.Fatalf("firings differ from the parking reference\n real: %.400s\n  ref: %.400s", g, w)
	}
	if deepest != n-1 {
		t.Fatalf("sleeps nested %d deep, want %d", deepest, n-1)
	}
	if e.Now() != last || e.Pending() != 0 {
		t.Fatalf("clock %v with %d pending, want %v and none", e.Now(), e.Pending(), Time(last))
	}
}

// TestTimerOwnsOneHeapEntry pins the point of Timer: re-arming later,
// however often, leaves one entry in the heap, and the timer fires once,
// at the last deadline.
func TestTimerOwnsOneHeapEntry(t *testing.T) {
	e := NewEnv()
	var tm Timer
	var fired []Time
	tm.Bind(timerFunc(func() { fired = append(fired, e.Now()) }))
	for i := 0; i < 100; i++ {
		tm.Set(e, Time(1000+i), "t")
	}
	if len(e.events) != 1 || e.Pending() != 1 {
		t.Fatalf("100 re-arms left %d heap entries (Pending %d), want 1", len(e.events), e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 1099 {
		t.Fatalf("fired at %v, want once at 1099", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

// TestLaneBacklogIsPendingAndNamed pins what the queue readers report
// once work lives outside the heap slice: Pending counts a lane's
// backlog, PendingSummary names it, a timer shows once while armed and
// as dead once stopped, and Reset refuses while a lane holds records.
func TestLaneBacklogIsPendingAndNamed(t *testing.T) {
	e := NewEnv()
	var l Lane
	l.Bind(laneFunc(func() {}))
	for i := 0; i < 5; i++ {
		l.At(e, Time(10+i), "wire.out")
	}
	var tm Timer
	tm.Bind(timerFunc(func() {}))
	for i := 0; i < 8; i++ {
		tm.Set(e, Time(100+i), "proto.rexmt")
	}
	if len(e.events) != 2 {
		t.Fatalf("heap holds %d entries, want 2 (one lane head, one timer)", len(e.events))
	}
	if e.Pending() != 6 {
		t.Fatalf("Pending = %d, want 6 (5 lane records + 1 timer)", e.Pending())
	}
	if got, want := e.PendingSummary(4), "wire.out×5 proto.rexmt×1"; got != want {
		t.Fatalf("PendingSummary = %q, want %q", got, want)
	}
	tm.Stop()
	if got, want := e.PendingSummary(4), "wire.out×5 proto.rexmt(dead)×1"; got != want {
		t.Fatalf("PendingSummary after Stop = %q, want %q", got, want)
	}

	e.RunUntil(10) // the lane's head fires; four records still wait
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d after one lane record fired, want 5", e.Pending())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset with a lane backlog did not panic")
			}
		}()
		e.Reset()
	}()
	e.Run()
	if e.Now() != 107 {
		t.Fatalf("drained clock = %v, want 107: a stopped timer's entry still expires at its deadline", e.Now())
	}
	e.Reset()
}

// TestLaneAndTimerCarryNothingAcrossReset pins reuse: a lane's newest
// time and a timer's heap key from one run must not leak into the next,
// which starts its clock and sequence numbers over. A stale lane time
// would silently turn every record into an ordinary event until the
// clock caught up; a stale timer key would lose or misplace a deadline.
func TestLaneAndTimerCarryNothingAcrossReset(t *testing.T) {
	e := NewEnv()
	var l Lane
	var tm Timer
	var log []string
	l.Bind(laneFunc(func() { log = append(log, fmt.Sprintf("lane@%d", e.Now())) }))
	tm.Bind(timerFunc(func() { log = append(log, fmt.Sprintf("timer@%d", e.Now())) }))

	for i := 0; i < 4; i++ {
		l.At(e, Time(5000+i), "lane")
	}
	tm.Set(e, 9000, "timer")
	tm.Set(e, 7000, "timer") // leaves a dead entry at 9000
	e.Run()
	e.Reset()
	log = log[:0]

	l.At(e, 5, "lane")
	l.At(e, 6, "lane")
	tm.Set(e, 8, "timer")
	tm.Set(e, 9, "timer")
	if len(e.events) != 2 || e.Pending() != 3 {
		t.Fatalf("after Reset: %d heap entries, Pending %d; want 2 and 3 — stale lane or timer state",
			len(e.events), e.Pending())
	}
	e.Run()
	if got, want := strings.Join(log, " "), "lane@5 lane@6 timer@9"; got != want {
		t.Fatalf("after Reset fired %q, want %q", got, want)
	}
}

// TestWaitQueueFIFOAcrossCompaction wakes several hundred waiters while
// more keep arriving, so the queue's head index passes its compaction
// threshold without the queue ever draining: order must stay FIFO.
func TestWaitQueueFIFOAcrossCompaction(t *testing.T) {
	var zero WaitQueue
	t.Run("NewWaitQueue", func(t *testing.T) { e := NewEnv(); fifoAcrossCompaction(t, e, e.NewWaitQueue("q")) })
	t.Run("zero value", func(t *testing.T) { fifoAcrossCompaction(t, NewEnv(), &zero) })
}

func fifoAcrossCompaction(t *testing.T, e *Env, w *WaitQueue) {
	var woke []int
	const n = 600
	procs := make([]*Proc, n)
	for i := range procs {
		procs[i] = e.Spawn("w", &waiter{w: w, id: i, woke: &woke})
	}
	e.Run() // all parked
	if w.Len() != n {
		t.Fatalf("Len = %d, want %d", w.Len(), n)
	}
	for i := 0; i < n-1; i++ {
		w.Wake()
		if w.Len() != n-1-i {
			t.Fatalf("Len = %d after %d wakes, want %d", w.Len(), i+1, n-1-i)
		}
	}
	w.WakeAll()
	if w.Wake() {
		t.Fatal("Wake on an emptied queue reported a waiter")
	}
	e.Run()
	// Drained through the overflow and refilled: the first waiter sits
	// inline again, the next two behind it, and WakeAt keeps the order.
	for i := 0; i < 3; i++ {
		procs[i] = e.Spawn("w", &waiter{w: w, id: n + i, woke: &woke})
	}
	e.Run()
	if w.first != procs[0] || w.Len() != 3 {
		t.Fatalf("refilled queue: first waiter inline %v, Len %d; want true, 3", w.first == procs[0], w.Len())
	}
	for i := 0; i < 3; i++ {
		if !w.WakeAt(e.Now() + Time(10*(i+1))) {
			t.Fatalf("WakeAt %d found no waiter", i)
		}
	}
	e.Run()
	const total = n + 3
	for i, id := range woke {
		if id != i {
			t.Fatalf("waiter %d woke in position %d", id, i)
		}
	}
	if len(woke) != total {
		t.Fatalf("%d waiters woke, want %d", len(woke), total)
	}
}

type waiter struct {
	w      *WaitQueue
	id     int
	parked bool
	woke   *[]int
}

func (f *waiter) Step(p *Proc) {
	if !f.parked {
		f.parked = true
		f.w.Wait(p)
		return
	}
	*f.woke = append(*f.woke, f.id)
	p.Return()
}

// The two shapes' layer benchmarks, beside a plain-event burst of the
// same size. After the first pass has grown the heap slice and the
// backlog slab neither allocates; the test asserts it so a regression
// fails go test, not only a benchmark someone has to read.

func timerRearm(e *Env, tm *Timer) {
	for i := 0; i < 8; i++ {
		tm.Set(e, e.Now()+Time(100+i), "bench.timer")
	}
	e.Run()
}

func laneBurst36(e *Env, l *Lane) {
	for i := 0; i < 36; i++ {
		l.At(e, e.Now()+Time(1+i), "bench.lane")
	}
	e.Run()
}

func plainBurst36(e *Env, fn func()) {
	for i := 0; i < 36; i++ {
		e.At(e.Now()+Time(1+i), "bench.plain", fn)
	}
	e.Run()
}

func TestQueueShapesAllocateNothing(t *testing.T) {
	e := NewEnv()
	var tm Timer
	var l Lane
	tm.Bind(timerFunc(func() {}))
	l.Bind(laneFunc(func() {}))
	if n := testing.AllocsPerRun(100, func() { timerRearm(e, &tm) }); n != 0 {
		t.Errorf("Timer: Set×8 then fire allocates %v times a pass, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { laneBurst36(e, &l) }); n != 0 {
		t.Errorf("Lane: queue 36 then drain allocates %v times a pass, want 0", n)
	}
}

func BenchmarkTimerRearm(b *testing.B) {
	e := NewEnv()
	var tm Timer
	tm.Bind(timerFunc(func() {}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		timerRearm(e, &tm)
	}
}

func BenchmarkLaneBurst36(b *testing.B) {
	e := NewEnv()
	var l Lane
	l.Bind(laneFunc(func() {}))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		laneBurst36(e, &l)
	}
}

func BenchmarkPlainBurst36(b *testing.B) {
	e := NewEnv()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plainBurst36(e, fn)
	}
}

// TestFarTimersStayOutOfTheHotHeap pins the point of the two tiers on the
// staggered fan-in's shape: thousands of timers a simulated second away —
// armed, stopped, superseded — sit under a handful of live entries, and
// the heap the live ones churn through must not hold them. The near tier
// never grows past 16 while a lane and two sleepers run at microsecond
// spacing; the readers of the queue still see every far entry.
func TestFarTimersStayOutOfTheHotHeap(t *testing.T) {
	const resident, stopped, moved = 2000, 500, 100
	e := NewEnv()
	timers := make([]Timer, resident)
	expired := 0
	for i := range timers {
		timers[i].Bind(timerFunc(func() { expired++ }))
		timers[i].Set(e, Second+Time(i), "proto.rexmt")
	}
	for i := 0; i < stopped; i++ {
		timers[i].Stop()
	}
	for i := stopped; i < stopped+moved; i++ {
		timers[i].Set(e, Second/2, "proto.rexmt") // earlier: an entry of its own, the old one dead
	}
	if len(e.events) != 0 || len(e.far) != resident+moved || e.Pending() != resident+moved {
		t.Fatalf("near %d, far %d, Pending %d; want 0, %d, %d", len(e.events), len(e.far), e.Pending(), resident+moved, resident+moved)
	}
	want := fmt.Sprintf("proto.rexmt×%d proto.rexmt(dead)×%d", resident-stopped, stopped+moved)
	if got := e.PendingSummary(4); got != want {
		t.Fatalf("PendingSummary = %q, want %q", got, want)
	}

	peak, churned := 0, 0
	look := func() {
		churned++
		if n := len(e.events); n > peak {
			peak = n
		}
		if len(e.far) < resident {
			t.Fatalf("far tier fell to %d entries at %v, with the timers a second off", len(e.far), e.Now())
		}
	}
	const cells = 20000
	var wire Lane
	sent := 0
	wire.Bind(laneFunc(func() {
		look()
		if sent++; sent <= cells-8 {
			wire.At(e, e.Now()+8*Microsecond, "wire.out")
		}
	}))
	for i := 1; i <= 8; i++ {
		wire.At(e, Time(i)*Microsecond, "wire.out")
	}
	for i := 0; i < 2; i++ {
		charge := Time(3+2*i) * Microsecond
		e.Spawn("cpu", LoopN(cells/4, func(p *Proc, _ int) {
			look()
			p.Sleep(charge)
		}))
	}
	e.Run()
	t.Logf("near tier peaked at %d entries over %d churn steps under %d far timers", peak, churned, resident)
	if churned < cells {
		t.Fatalf("only %d churn steps ran", churned)
	}
	if peak > 16 {
		t.Errorf("near tier reached %d entries under %d far timers, want <= 16", peak, resident)
	}
	if expired != resident-stopped {
		t.Errorf("%d timers fired, want %d", expired, resident-stopped)
	}
	if e.Now() != Second+resident-1 {
		t.Errorf("drained clock = %v, want the last deadline, %v", e.Now(), Second+resident-1)
	}
	e.Reset()
}

// BenchmarkChurnUnderFarTimers is the tiers' layer benchmark: eight live
// entries pushed and popped a few nanoseconds apart, alone and over 2,000
// timers that never come due. The two should cost the same.
func BenchmarkChurnUnderFarTimers(b *testing.B) {
	for _, resident := range []int{0, 2000} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			e := NewEnv()
			timers := make([]Timer, resident)
			for i := range timers {
				timers[i].Bind(timerFunc(func() {}))
				timers[i].Set(e, MaxTime/2+Time(i), "bench.far")
			}
			fn := func() {}
			for i := 0; i < 8; i++ {
				e.At(Time(i), "bench.churn", fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.At(e.Now()+8, "bench.churn", fn)
				e.Step()
			}
		})
	}
}
