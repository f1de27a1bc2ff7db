// The event loop. See the package comment (time.go) for the design
// contract: the 4-ary value heap is a wall-clock optimization with zero
// effect on simulated time.
package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Named function types for the two plain callback shapes, so an event's
// one interface word can tell them apart by type. Func values are
// pointer-shaped: boxing one allocates nothing.
type (
	thunk   func()
	argFunc func(uint64)
)

// event is a scheduled callback. Events with equal timestamps fire in the
// order they were scheduled (seq breaks ties), which keeps runs
// deterministic. Stored by value in the heap slice — never individually
// heap-allocated. do is what fires: a thunk, an argFunc applied to arg
// (one bound method reused across schedulings, the context word riding
// in the event — no closure per call), a *Lane (its head, or a one-shot
// when arg is laneOneShot), the heap entry of a *Timer, or a *Proc to
// resume (arg says why it was parked and name on what, see wakeKind).
// Step dispatches on its dynamic type.
type event struct {
	at   Time
	seq  uint64
	arg  uint64
	name string
	do   any
}

// eventHeap is a 4-ary min-heap of events ordered by (at, seq), stored by
// value with the minimum at index 0. A 4-ary layout halves the tree depth
// of a binary heap, trading a few extra comparisons per level for fewer
// cache-missing levels — the standard shape for hot discrete-event
// queues. The backing slice doubles as the event free-list: pop clears
// the vacated tail slot (releasing the closure for GC) and push reuses
// it, so a simulation allocates queue memory only while growing beyond
// its high-water mark.
//
// The queue's work is kept on pointer-receiver methods of eventHeap and
// on Env's schedule… methods, queue.go's lane and timer steps and the
// choice between the two tiers included: those are the symbols the
// benchmark's profile counts as queue time (sim.heap_share), so what the
// gauge shows falling really fell.
type eventHeap []event

// farAfter splits the queue in two: an event due this far or more past
// the clock when it is scheduled goes to the far tier, anything sooner to
// the near one. A millisecond sits above every cell time, propagation
// delay, switch latency and CPU charge in the cost model and below every
// protocol timer, so the near tier holds the few events about to fire and
// none of the thousands of retransmit, 2MSL and delayed-ACK entries that
// will not for a simulated second — five levels of them under every push
// and pop on a 10,000-client fan-in. It is not a knob: any partition
// keeps the order (see sooner), and the measured gain is flat from 100 µs
// to 100 ms (docs/PERFORMANCE.md §16).
const farAfter = Millisecond

// before reports whether a fires before b: earlier timestamp, or equal
// timestamps in scheduling order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev, sifting it up to its heap position.
func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	// Sift up, moving parents down into the hole rather than swapping.
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
	*h = q
}

// pop removes the minimum event.
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // release the callback and name for GC
	*h = q[:n]
	if n > 0 {
		h.sink(&last)
	}
}

// rekey moves the root to (at, seq) — at or after its current key — and
// restores heap order: one sift-down in place of a pop and a push.
func (h *eventHeap) rekey(at Time, seq uint64) {
	ev := (*h)[0]
	ev.at, ev.seq = at, seq
	h.sink(&ev)
}

// sooner returns whichever of the two tiers holds the next event to fire —
// the root that is before the other's — or nil when both are empty. The
// minimum of two heaps is the minimum of their union, and every key was
// stamped when it was scheduled, whichever tier it then went to: the
// queue's total order is that of one heap holding everything.
func (h *eventHeap) sooner(far *eventHeap) *eventHeap {
	n, f := *h, *far
	if len(f) > 0 && (len(n) == 0 || f[0].before(&n[0])) {
		return far
	}
	if len(n) == 0 {
		return nil
	}
	return h
}

// sink overwrites the root with ev, sifting it down to its heap position.
func (h *eventHeap) sink(ev *event) {
	q := *h
	n := len(q)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if q[j].before(&q[min]) {
				min = j
			}
		}
		if !q[min].before(ev) {
			break
		}
		q[i] = q[min]
		i = min
	}
	q[i] = *ev
}

// Env is a discrete-event simulation environment. The zero value is not
// usable; create one with NewEnv.
type Env struct {
	now Time
	seq uint64
	// The queue, in two tiers (see farAfter): events holds what was due
	// soon when it was scheduled — the hot heap — and far the rest. An
	// entry stays in the tier it was pushed to until it pops.
	events  eventHeap
	far     eventHeap
	backlog backlog // lane records queued behind their lane's heap entry
	arena   Arena   // scratch for work in flight, see Arena
	locals  []any   // what packages keep once per loop, see Local
	current *Proc   // the proc currently executing, if any
	procs   int     // live (unfinished) procs
	fired   uint64  // events run since Reset
	rng     *RNG

	// keyAt and keySeq are the running activity's place in the total
	// order, what Precedes compares against: the key of the event Step is
	// running, the key the wake a SleepUntil advanced in place would have
	// had, the deadline RunUntil stopped at (past every number taken by
	// then) or, once Step has found the queue empty, past every key.
	keyAt  Time
	keySeq uint64

	// ceilAt and ceilSeq are the ceiling key: nothing may run at or past
	// it before the activity that set it resumes. A sleep serving the
	// events ahead of its wake (Proc.SleepUntil) lowers it to that wake's
	// key while it serves, RunUntil to just past its deadline; outside
	// both it lies past every key.
	ceilAt  Time
	ceilSeq uint64

	// starts steps the processes SpawnIn queued in startQ (used as a
	// plain FIFO: nothing wakes it).
	starts Lane
	startQ WaitQueue

	// horizon bounds how far this environment may advance on its own:
	// RunWindow executes only events strictly before it, and SleepUntil's
	// in-place fast path refuses to move the clock to or past it. A
	// stand-alone environment keeps the horizon at MaxTime, which makes
	// both restrictions vacuous; sharded execution (lab.Cluster) lowers it
	// to the conservative-lookahead safe time each round, so events that
	// a cross-shard message could still precede stay pending.
	horizon Time

	// wd, when non-nil, is the no-progress watchdog polled by Step. The
	// disarmed cost is one pointer comparison per event; armed, the poll
	// runs only when the clock reaches wdNext, so the per-event cost stays
	// one extra Time comparison. Cluster shards may share one Watchdog.
	wd     *Watchdog
	wdNext Time
}

// NewEnv returns a fresh simulation environment with its clock at zero
// and a deterministic default random seed.
func NewEnv() *Env {
	e := &Env{
		rng: NewRNG(1), horizon: MaxTime, ceilAt: MaxTime, ceilSeq: ^uint64(0),
		// Room a two-host testbed never outgrows, made once: growing a
		// heap from nothing is five allocations to get this far, and now
		// there are two heaps.
		events: make(eventHeap, 0, 16), far: make(eventHeap, 0, 16),
	}
	e.starts.Bind(e)
	return e
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Reset returns the environment to its just-constructed state — clock at
// zero, sequence counter at zero, default RNG seed — while retaining the
// event heaps' backing storage, so a reused environment schedules without
// regrowing to its high-water mark. Processes blocked on WaitQueues are
// untouched: a drained simulation leaves its persistent service loops
// (netisr, driver interrupt handlers, protocol timers) parked exactly
// where a fresh environment's would park after their spawn events run, so
// reuse is invisible to simulated time. The arena keeps its warm buffers
// the same way. Resetting with events still pending panics: it would
// strand scheduled work and silently corrupt the next run's measurements.
// So does resetting with arena buffers still checked out: whoever holds
// one (a driver mid-reassembly) must be reset first, or the buffer is
// lost to the loop for good.
func (e *Env) Reset() {
	if n := e.Pending(); n != 0 {
		panic(fmt.Sprintf("sim: Reset with %d events pending", n))
	}
	if n := e.arena.out; n != 0 {
		panic(fmt.Sprintf("sim: Reset with %d scratch buffers checked out", n))
	}
	e.now = 0
	e.seq = 0
	e.keyAt, e.keySeq = 0, 0
	e.ceilAt, e.ceilSeq = MaxTime, ^uint64(0)
	e.fired = 0
	e.rng = NewRNG(1)
	e.horizon = MaxTime
	e.wd = nil
	e.wdNext = 0
}

// RNG returns the environment's random number generator.
func (e *Env) RNG() *RNG { return e.rng }

// Seed reseeds the environment's random number generator.
func (e *Env) Seed(s uint64) { e.rng = NewRNG(s) }

// schedule is the single scheduling primitive every public variant folds
// into: it stamps the event with the next sequence number (the
// deterministic tie-break for equal timestamps) and inserts it into its
// tier. Scheduling in the past panics: it would violate causality and
// silently corrupt measurements. See the event comment for what do holds.
func (e *Env) schedule(t Time, name string, do any, arg uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v, before now %v", name, t, e.now))
	}
	e.seq++
	e.scheduleTier(t).push(event{at: t, seq: e.seq, name: name, do: do, arg: arg})
}

// Stamp takes the next sequence number, as scheduling would, and
// schedules nothing: the key (t, Stamp()) is the one an event scheduled
// now for t would fire at. Work that needs no event until someone looks
// at it — a cell no host notices on arrival (atm's quiet arrivals) —
// keeps the key instead, and whoever looks first asks Precedes whether
// its moment has passed. A number taken and never scheduled shifts every
// later one by one, which, like a wake SleepUntil skips, keeps every
// tie-break. Stamp returns the number's low 32 bits, all a key needs
// while Precedes compares it within 2^32 numbers of its stamping.
func (e *Env) Stamp() uint32 {
	e.seq++
	return uint32(e.seq)
}

// Precedes reports whether the key (at, s), s from Stamp, comes before
// the running activity's: whether an event with that key would have
// fired by now. A key on another instant compares by time alone; one on
// the running instant recovers the stamp's full number from the counter,
// which must not have moved 2^32 numbers past it.
func (e *Env) Precedes(at Time, s uint32) bool {
	if at != e.keyAt {
		return at < e.keyAt
	}
	return e.seq-uint64(uint32(e.seq)-s) < e.keySeq
}

// scheduleTier returns the heap an entry due at t is pushed to. No caller
// chooses a tier: every push in the package comes through here.
func (e *Env) scheduleTier(t Time) *eventHeap {
	if t-e.now >= farAfter {
		return &e.far
	}
	return &e.events
}

// At schedules fn to run at absolute virtual time t.
func (e *Env) At(t Time, name string, fn func()) {
	e.schedule(t, name, thunk(fn), 0)
}

// After schedules fn to run d after the current time. A negative delay
// panics.
func (e *Env) After(d Time, name string, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for %q", d, name))
	}
	e.schedule(e.now+d, name, thunk(fn), 0)
}

// AtArg schedules fn(arg) at absolute virtual time t. It is At for
// callbacks that need one word of context: the function can be bound
// once and reused across schedulings, with arg (an index, a parked
// message) riding in the event itself — no closure allocation per call.
func (e *Env) AtArg(t Time, name string, fn func(uint64), arg uint64) {
	e.schedule(t, name, argFunc(fn), arg)
}

// Step runs the next pending event, advancing the clock to its timestamp.
// It reports whether an event was run. One step may run more than one:
// a process the event resumes whose sleep has to wait serves the events
// ahead of its wake on its own stack (Proc.SleepUntil), in the order the
// loop would have, and the clock ends where the last of them left it.
// With a watchdog armed, Step refuses to run further events once the
// watchdog fires, so every run loop built on Step (Run, RunUntil,
// RunWindow) stops instead of executing a livelocked simulation forever.
func (e *Env) Step() bool {
	h := e.events.sooner(&e.far)
	if h == nil {
		// Nothing left to fire: whatever was stamped and never scheduled
		// has, for anyone who looks now, happened.
		e.keyAt, e.keySeq = MaxTime, ^uint64(0)
		return false
	}
	root := &(*h)[0]
	if e.wd != nil && root.at >= e.wdNext {
		if e.wd.check(e, root.at) {
			return false
		}
		e.wdNext = root.at + e.wd.pollEvery()
	}
	e.now = root.at
	e.keyAt, e.keySeq = root.at, root.seq
	e.fired++
	switch do := root.do.(type) {
	case thunk:
		h.pop()
		do()
	case argFunc:
		arg := root.arg
		h.pop()
		do(arg)
	case *Lane:
		// Step the lane before its owner runs: the owner may schedule on
		// this same lane. A one-shot is no record of the lane's.
		if root.arg == laneOneShot {
			h.pop()
		} else {
			h.advance(do, &e.backlog)
		}
		do.owner.LaneFired(do)
	case *Proc:
		h.pop()
		do.step()
	case *Timer:
		if h.expire(do, root.seq) {
			do.owner.TimerFired(do)
		}
	}
	return true
}

// Run processes events until none remain.
func (e *Env) Run() {
	for e.Step() {
	}
}

// RunUntil processes events with timestamps at or before deadline and then
// advances the clock to the deadline. Later events remain pending, and so
// does a process whose sleep ends past the deadline: the deadline is the
// ceiling (see Env.ceilAt) of every sleep the run serves, so no process
// advances in place beyond it, and the events a sleep serves on its
// stack are the ones at or before it.
func (e *Env) RunUntil(deadline Time) {
	ceilAt, ceilSeq := e.ceilAt, e.ceilSeq
	if deadline < ceilAt {
		e.ceilAt, e.ceilSeq = deadline, ^uint64(0)
	}
	defer func() { e.ceilAt, e.ceilSeq = ceilAt, ceilSeq }()
	for at, ok := e.NextEventAt(); ok && at <= deadline; at, ok = e.NextEventAt() {
		if !e.Step() {
			return // watchdog fired: leave the clock where it stopped
		}
	}
	if e.now <= deadline {
		// Every key at or before the deadline would have fired.
		e.now = deadline
		e.keyAt, e.keySeq = deadline, ^uint64(0)
	}
}

// Fired returns the number of events run since the environment was made
// or last Reset — every one a Step ran, those a sleeping process served
// on its own stack included (see Proc.SleepUntil), timer entries that
// only walk or expire too. A sleep that advanced in place, served events
// or none, is not an event: its wake never entered the queue.
func (e *Env) Fired() uint64 { return e.fired }

// Pending returns the number of scheduled events not yet run: the
// entries of both tiers plus the records lanes hold behind theirs. A
// stopped or superseded timer's entry counts until it expires, exactly as
// the dead event it replaces did. A process serving the events ahead of
// its wake (Proc.SleepUntil) has no entry while it serves: its wake is
// not scheduled unless it has to park.
func (e *Env) Pending() int { return len(e.events) + len(e.far) + e.backlog.n }

// SetHorizon sets the safe-time bound for windowed execution: RunWindow
// stops before the first event at or past t, and SleepUntil's in-place
// fast path parks instead of advancing the clock to or past t. MaxTime
// (the default) disables the bound.
func (e *Env) SetHorizon(t Time) { e.horizon = t }

// Horizon returns the current safe-time bound.
func (e *Env) Horizon() Time { return e.horizon }

// NextEventAt returns the timestamp of the earliest pending event, and
// whether one exists. Sharded execution uses it to compute each round's
// global minimum next-event time without popping anything.
func (e *Env) NextEventAt() (Time, bool) {
	h := e.events.sooner(&e.far)
	if h == nil {
		return 0, false
	}
	return (*h)[0].at, true
}

// RunWindow processes every pending event with a timestamp strictly
// before the horizon, leaving later events pending. Unlike RunUntil it
// does not advance the clock to the bound afterwards: a cross-shard
// message may still arrive anywhere in [now, horizon), so the clock must
// stay where the last executed event left it.
func (e *Env) RunWindow() {
	for at, ok := e.NextEventAt(); ok && at < e.horizon; at, ok = e.NextEventAt() {
		if !e.Step() {
			return // watchdog fired: the barrier loop surfaces the abort
		}
	}
}

// SetWatchdog arms the no-progress watchdog (nil disarms). Sharded
// execution arms every shard's environment with the same Watchdog.
func (e *Env) SetWatchdog(w *Watchdog) {
	e.wd = w
	e.wdNext = 0
}

// WatchdogErr returns the armed watchdog's abort diagnostic, or nil if
// no watchdog is armed or it has not fired.
func (e *Env) WatchdogErr() error {
	if e.wd == nil {
		return nil
	}
	return e.wd.Err()
}

// PendingSummary returns a histogram of pending event names — at most
// max entries, most frequent first — for watchdog diagnostics: a
// livelocked run's queue is typically thousands of copies of the same few
// events, and naming them identifies the spinning subsystem. A lane
// counts its whole backlog under its entry's name; an armed timer counts
// once however often it was re-armed, and entries that will only expire
// (a stopped timer, a superseded deadline) are set apart as "(dead)". A
// process about to resume is named here, not when it parked: "wake:proc"
// out of a sleep, "wakeq:queue:proc" off a wait queue, "spawn:proc" for a
// first step.
func (e *Env) PendingSummary(max int) string {
	counts := make(map[string]int)
	for _, tier := range [...]eventHeap{e.events, e.far} {
		for i := range tier {
			ev := &tier[i]
			switch do := ev.do.(type) {
			case *Lane:
				if ev.arg == laneOneShot {
					counts[ev.name]++
				} else {
					counts[ev.name] += int(do.n)
				}
			case *Timer:
				if do.armed && ev.seq == do.heapSeq {
					counts[ev.name]++
				} else {
					counts[ev.name+"(dead)"]++
				}
			case *Proc:
				counts[wakeKind(ev.arg).label(ev.name, do)]++
			default:
				counts[ev.name]++
			}
		}
	}
	type entry struct {
		name string
		n    int
	}
	ordered := make([]entry, 0, len(counts))
	for name, n := range counts {
		ordered = append(ordered, entry{name, n})
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].n != ordered[j].n {
			return ordered[i].n > ordered[j].n
		}
		return ordered[i].name < ordered[j].name
	})
	if len(ordered) > max {
		ordered = ordered[:max]
	}
	parts := make([]string, len(ordered))
	for i, en := range ordered {
		parts[i] = fmt.Sprintf("%s×%d", en.name, en.n)
	}
	return strings.Join(parts, " ")
}
