package sim

import "fmt"

// Proc is a simulated process: a stack of resumable Frames driven by the
// event loop itself. A Proc may block on virtual time (Sleep, SleepUntil)
// or on a WaitQueue; blocking parks the frame stack — a small struct, not
// a goroutine — and the event loop runs other events until a scheduled
// wake-up re-enters the stack. Exactly one frame is ever executing at a
// time, so simulations are deterministic, and a CPU charge is an ordinary
// function call with no scheduling at all: the events queued ahead of its
// end, if any, run on the charging process's stack (see SleepUntil).
//
// Procs model both user processes (the echo client and server) and
// persistent kernel service loops (the ATM receive interrupt handler and
// the IP software interrupt).
//
// # Writing frames
//
// A Frame's Step method runs the frame until it either finishes
// (p.Return()), blocks (a parking Sleep/SleepUntil/WaitQueue.Wait — the
// caller must return immediately afterwards), or invokes another frame
// (p.Call(f), again in tail position). If Step returns without doing any
// of these, the trampoline re-invokes it — so a service loop can be
// written as "do one unit of work per Step" with no explicit loop, and a
// frame resumed after a sub-call naturally re-enters Step to continue
// from its recorded state. Frames that interleave CPU charges with
// mutations keep an explicit program counter: set the resume state
// *before* a potentially-parking call, return if it parked, and keep no
// Go local live across it — a sleep that returns true may have served
// other processes' events, exactly as one that parked would have.
type Proc struct {
	env  *Env
	name string
	tags []Tag

	// stack starts out inside inline and moves to the heap only if the
	// process ever nests deeper: a Proc is one allocation. inline[0] keeps
	// the root frame for good — Name may ask it.
	stack  []Frame
	inline [procInline]Frame

	// hook, when armed, runs before the next wake-up re-enters the frame
	// stack; kern.SleepOn charges the scheduler's wakeup path there. It is
	// one-shot: cleared before it runs, so a hook whose own charge parks
	// resumes straight into the frame stack.
	hook WakeHook

	op   ctlOp
	done bool
}

// procInline is the frame depth a process reaches without a second
// allocation. The deepest path in the stack is the netisr answering a
// segment: netisr, tcp input, connection input, tcp output, ip output,
// driver output.
const procInline = 6

// Namer is something that can say what it is called when a diagnostic
// asks — a root frame, for a process spawned without a name. Composing
// "host4017.netisr" for each of ten thousand hosts up front costs more
// than all the diagnostics that will ever print one.
type Namer interface{ Name() string }

// WakeHook is what OnWake arms: Woken runs in the process's context when
// it next resumes and returns false if it parked the process again.
type WakeHook interface{ Woken(p *Proc) bool }

// Frame is one resumable activation record of a simulated process. See
// the Proc comment for the Step protocol.
type Frame interface {
	Step(p *Proc)
}

// ctlOp is the directive a frame leaves for the trampoline when its Step
// method returns.
type ctlOp uint8

const (
	ctlNone   ctlOp = iota // nothing noted: re-enter the same frame
	ctlReturn              // frame finished: pop it, resume the caller
	ctlCall                // a frame was pushed: enter it
	ctlPark                // the proc blocked: leave the trampoline
)

// Name returns the process name given at Spawn time, or, when that was
// empty, the name its root frame gives itself (see Namer).
func (p *Proc) Name() string {
	if p.name == "" {
		if n, ok := p.inline[0].(Namer); ok {
			return n.Name()
		}
	}
	return p.name
}

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done reports whether the process's frame stack has emptied.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a process with root as its initial frame and schedules it
// to start at the current virtual time. An empty name leaves naming to
// the root frame, if it is a Namer.
func (e *Env) Spawn(name string, root Frame) *Proc { return e.SpawnAt(e.now, name, root) }

// SpawnAt creates a process whose first step runs at absolute time at
// (now, if at has passed): SpawnIn on a Proc of its own.
func (e *Env) SpawnAt(at Time, name string, root Frame) *Proc {
	p := new(Proc)
	e.SpawnIn(p, at, name, root)
	return p
}

// SpawnIn starts p, a zero or finished Proc the caller holds — by value in
// whatever the process serves, a stack or the root frame itself, so that
// starting it allocates nothing — with root as its initial frame, first
// stepped at absolute time at (now, if at has passed): where a spawn-now
// process that opens with SleepUntil(at) would resume, without a wake
// parked in the heap meanwhile. Starts requested in non-decreasing time
// order (a workload staggering ten thousand clients) share one lane — one
// heap entry, the processes waiting in startQ; an earlier one is an
// ordinary event.
func (e *Env) SpawnIn(p *Proc, at Time, name string, root Frame) {
	if p.env != nil && !p.done {
		panic(fmt.Sprintf("sim: spawning %q into a live proc", name))
	}
	*p = Proc{env: e, name: name}
	p.inline[0] = root
	p.stack = p.inline[:1]
	e.procs++
	if at < e.now {
		at = e.now
	}
	if e.starts.n > 0 && at < e.starts.last {
		e.schedule(at, "", p, uint64(wakeSpawn))
		return
	}
	e.startQ.push(p)
	e.starts.At(e, at, "spawn")
}

// LaneFired implements LaneOwner for the starts lane, the environment's
// one: step the longest-queued process for the first time.
func (e *Env) LaneFired(*Lane) { e.startQ.pop().step() }

// wakeKind rides in the arg word of an event whose do is a *Proc: why the
// process was parked. With the event's name (the wait queue's, for
// wakeQueue) and the process itself it is everything PendingSummary needs
// to label the wake, so no label is composed until one is printed.
type wakeKind uint64

const (
	wakeSleep wakeKind = iota // SleepUntil's deadline
	wakeSpawn                 // a first step outside the starts lane
	wakeQueue                 // WaitQueue.Wake
)

func (k wakeKind) label(queue string, p *Proc) string {
	switch k {
	case wakeSpawn:
		return "spawn:" + p.Name()
	case wakeQueue:
		return "wakeq:" + queue + ":" + p.Name()
	}
	return "wake:" + p.Name()
}

// step is the trampoline: it drives the top frame until the process
// parks or its stack empties. It runs in event context — spawn events,
// wake events and wait-queue wakes all carry the process itself.
func (p *Proc) step() {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %q", p.Name()))
	}
	e := p.env
	prev := e.current
	e.current = p
	if h := p.hook; h != nil {
		p.hook = nil // one-shot: a parked hook resumes into the stack
		if !h.Woken(p) {
			e.current = prev
			return
		}
	}
	for {
		n := len(p.stack)
		if n == 0 {
			p.done = true
			e.procs--
			break
		}
		p.op = ctlNone
		p.stack[n-1].Step(p)
		switch p.op {
		case ctlReturn:
			if n > 1 {
				p.stack[n-1] = nil // the root stays, for Name
			}
			p.stack = p.stack[:n-1]
		case ctlPark:
			e.current = prev
			return
		}
		// ctlNone re-enters the same frame; ctlCall enters the new top.
	}
	e.current = prev
}

// Call pushes f onto the process's frame stack and runs it; the calling
// frame's Step is re-invoked after f returns. Call must be the frame's
// last action before Step returns.
func (p *Proc) Call(f Frame) {
	p.stack = append(p.stack, f)
	p.op = ctlCall
}

// Return pops the frame when its Step method returns: the frame is
// finished and control resumes in its caller (or the process exits if
// this was the root frame).
func (p *Proc) Return() { p.op = ctlReturn }

// park suspends the process; something must already have arranged its
// resumption (a scheduled wake event or a WaitQueue entry).
func (p *Proc) park() { p.op = ctlPark }

// OnWake arms h to run when the process next resumes, before its frame
// stack re-enters. The hook returns false if it parked the process again
// (its own CPU charge had to wait); it is cleared either way.
func (p *Proc) OnWake(h WakeHook) { p.hook = h }

// SleepUntil advances the process to virtual time t and reports whether
// it completed without parking. Sleeping into the past is a no-op.
//
// The wake takes its sequence number first, exactly as scheduling it
// would: (t, that number) is the key the process resumes at. Every event
// queued before that key would run ahead of the wake, and nothing else
// can: events are only created by running code, and the events the wake
// waits behind are all there is to run. So the process serves them
// itself, on its own stack, one Step each, in the order the loop would
// have — a process among them that sleeps in turn serves its own, nested
// one level deeper — until the next event is at or past the key. Then
// the clock advances to t in place and SleepUntil returns true: to the
// frame the charge was an ordinary function call, and the wake was never
// an event. An uncontended sleep is the case with nothing to serve. An
// event queued exactly at t was scheduled earlier, so it is served
// first. Taking the number and never scheduling it shifts later
// sequence numbers uniformly, which preserves every tie-break — the
// queue's total order, and therefore simulated time, is unchanged.
//
// A true return therefore does not mean that nothing ran: whatever the
// served events did has happened, just as if the process had parked and
// been woken. A frame must record the state it resumes at before the
// call and must not keep a Go local that other code may change live
// across it — continuing after true must be what re-entering Step at the
// recorded state would do.
//
// The process parks instead — a wake event under the number it took, and
// SleepUntil returns false; the frame must immediately return from Step
// — when it cannot serve up to its wake: the wake lies at or past the
// ceiling key (an enclosing sleeper's wake, or RunUntil's deadline, see
// Env.ceilAt), which it must not overtake; an event ahead of it lies at
// or past the horizon, which RunWindow would not run either; the wake
// itself lies at or past the horizon, checked again after serving since
// a callback may lower it (in a sharded run a cross-shard message may
// still land anywhere in [now, horizon)); or an event ahead of it is due
// for the armed watchdog's poll, which then sees every wake in the queue.
func (p *Proc) SleepUntil(t Time) bool {
	e := p.env
	if t <= e.now {
		return true
	}
	e.seq++
	s := e.seq
	if e.current == p && t < e.horizon && (t < e.ceilAt || t == e.ceilAt && s < e.ceilSeq) {
		if h := e.events.sooner(&e.far); h == nil || !(*h)[0].ahead(t, s) || e.serve(t, s) {
			e.now = t
			e.keyAt, e.keySeq = t, s
			return true
		}
	}
	e.scheduleTier(t).push(event{at: t, seq: s, do: p, arg: uint64(wakeSleep)})
	p.park()
	return false
}

// ahead reports whether ev fires before the key (t, s).
func (ev *event) ahead(t Time, s uint64) bool {
	return ev.at < t || ev.at == t && ev.seq < s
}

// serve is SleepUntil's service: it runs the events queued ahead of the
// key (t, s), one Step each, with the key as the ceiling and no process
// current, and reports whether the sleeper may advance to the key
// afterwards (see the method comment for what stops it).
func (e *Env) serve(t Time, s uint64) bool {
	ceilAt, ceilSeq, cur := e.ceilAt, e.ceilSeq, e.current
	e.ceilAt, e.ceilSeq = t, s
	e.current = nil // a served event that is no process runs with none
	served := true
	for h := e.events.sooner(&e.far); h != nil && (*h)[0].ahead(t, s); h = e.events.sooner(&e.far) {
		if at := (*h)[0].at; at >= e.horizon || e.wd != nil && at >= e.wdNext || !e.Step() {
			served = false
			break
		}
	}
	e.ceilAt, e.ceilSeq, e.current = ceilAt, ceilSeq, cur
	return served && t < e.horizon
}

// Sleep advances the process by duration d of virtual time, reporting
// whether it completed without parking (see SleepUntil).
func (p *Proc) Sleep(d Time) bool { return p.SleepUntil(p.env.now + d) }

// Tag is an annotation on a process's tag stack: two words a layer above
// packs its identity into (trace.PacketID.Tag), kept by value so that
// pushing one allocates nothing once the stack has its room.
type Tag [2]uint64

// PushTag pushes an annotation onto the process's tag stack. Tags mark
// the logical unit of work the process is currently performing — the
// trace instrumentation pushes a packet identity around each segment's
// processing, so CPU time charged while the tag is live attributes to
// that packet even though the charge itself happens layers below.
// The stack nests: a TCP input handler that transmits an ACK pushes the
// ACK's identity on top and pops back to the inbound segment's.
//
// The stack is per process, not per host: two processes on one host
// (the echo client inside tcp_output and the netisr inside tcp_input,
// say) interleave in virtual time, and a host-global context would
// bleed one packet's identity into the other's charges.
func (p *Proc) PushTag(t Tag) { p.tags = append(p.tags, t) }

// PopTag removes the top tag. Popping an empty stack is a no-op so
// instrumentation may enable mid-run without unbalancing anything.
func (p *Proc) PopTag() {
	if n := len(p.tags); n > 0 {
		p.tags = p.tags[:n-1]
	}
}

// Tag returns the top of the tag stack, or the zero Tag when empty.
func (p *Proc) Tag() Tag {
	if n := len(p.tags); n > 0 {
		return p.tags[n-1]
	}
	return Tag{}
}

// Current returns the process currently executing, or nil when called from
// plain event context.
func (e *Env) Current() *Proc { return e.current }

// WaitQueue is a FIFO queue of blocked processes, analogous to a kernel
// sleep channel. Wake moves the process at the head of the queue back onto
// the event queue at the current time; WakeAll drains the queue.
//
// The zero WaitQueue is ready to use and is meant to be embedded by value
// in whatever owns it — a socket buffer has one, a connection several —
// so it is four words: a name for diagnostics (Init), the longest waiter
// inline (most queues never hold two), and the rest behind a pointer made
// the first time two processes wait at once. It holds no environment: a
// wake is scheduled on the loop of the process it wakes.
type WaitQueue struct {
	name  string
	first *Proc    // the longest waiter
	rest  *waiters // those behind it, oldest first
}

// waiters is a wait queue's overflow: procs[head:] in arrival order.
// Popping neither shifts nor allocates.
type waiters struct {
	procs []*Proc
	head  int
}

// Init names the queue for diagnostics: a pending wake off it shows in
// PendingSummary as "wakeq:name:process". Pass what the queue is
// ("ipq", "so.rcv"), not whose — the process says that.
func (w *WaitQueue) Init(name string) { w.name = name }

// NewWaitQueue returns an empty, named wait queue on the heap, for
// callers with nothing to embed one in.
func (e *Env) NewWaitQueue(name string) *WaitQueue { return &WaitQueue{name: name} }

// Len returns the number of processes blocked on the queue.
func (w *WaitQueue) Len() int {
	n := 0
	if w.first != nil {
		n = 1
	}
	if w.rest != nil {
		n += len(w.rest.procs) - w.rest.head
	}
	return n
}

// Wait parks p until another part of the simulation calls Wake or
// WakeAll. The calling frame must return from Step immediately; its Step
// re-enters — from the state it recorded — when the wake event fires.
func (w *WaitQueue) Wait(p *Proc) {
	w.push(p)
	p.park()
}

// push appends p behind every process already waiting.
func (w *WaitQueue) push(p *Proc) {
	if w.first == nil {
		w.first = p // rest is empty whenever first is
		return
	}
	if w.rest == nil {
		w.rest = new(waiters)
	}
	w.rest.procs = append(w.rest.procs, p)
}

// wake dequeues the longest-waiting process, if any, and schedules its
// resumption at absolute time t. It reports whether a process was woken.
func (w *WaitQueue) wake(t Time) bool {
	if w.first == nil {
		return false
	}
	p := w.pop()
	p.env.schedule(t, w.name, p, uint64(wakeQueue))
	return true
}

// pop removes the longest-waiting process from a non-empty queue.
func (w *WaitQueue) pop() *Proc {
	p := w.first
	w.first = nil
	if r := w.rest; r != nil && r.head < len(r.procs) {
		w.first = r.procs[r.head]
		r.procs[r.head] = nil // release for GC
		r.head++
		switch {
		case r.head == len(r.procs):
			r.procs, r.head = r.procs[:0], 0
		case r.head >= 128 && r.head*2 >= len(r.procs):
			// Never quite drained: compact once the dead prefix dominates.
			n := copy(r.procs, r.procs[r.head:])
			clear(r.procs[n:])
			r.procs, r.head = r.procs[:n], 0
		}
	}
	return p
}

// Wake schedules the longest-waiting process, if any, to resume at the
// current virtual time. It reports whether a process was woken.
func (w *WaitQueue) Wake() bool {
	if w.first == nil {
		return false
	}
	return w.wake(w.first.env.now)
}

// WakeAll wakes every waiting process, preserving FIFO order.
func (w *WaitQueue) WakeAll() {
	for w.Wake() {
	}
}

// WakeAt schedules the longest-waiting process, if any, to resume at
// absolute time t. It reports whether a process was scheduled.
func (w *WaitQueue) WakeAt(t Time) bool { return w.wake(t) }
