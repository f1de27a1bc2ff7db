package sim

import "fmt"

// Proc is a simulated process: a stack of resumable Frames driven by the
// event loop itself. A Proc may block on virtual time (Sleep, SleepUntil)
// or on a WaitQueue; blocking parks the frame stack — a small struct, not
// a goroutine — and the event loop runs other events until a scheduled
// wake-up re-enters the stack. Exactly one frame is ever executing at a
// time, so simulations are deterministic, and a CPU charge that does not
// need to wait is an ordinary function call with no scheduling at all.
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
// *before* a potentially-parking call, and return if it parked.
type Proc struct {
	env  *Env
	name string
	done bool
	tags []any

	stack []Frame
	op    ctlOp

	// hook, when armed, runs before the next wake-up re-enters the frame
	// stack; kern.SleepOn charges the scheduler's wakeup path there. It is
	// one-shot: cleared before it runs, so a hook whose own charge parks
	// resumes straight into the frame stack.
	hook func(*Proc) bool

	// stepFn and wakeName are bound once at Spawn so that the hot
	// park/wake paths can schedule the process's resumption without
	// allocating a fresh closure or concatenating an event name per
	// wakeup — every CPU charge that waits for the CPU parks.
	stepFn   func()
	wakeName string
}

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

// Name returns the process name given at Spawn time.
func (p *Proc) Name() string { return p.name }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Done reports whether the process's frame stack has emptied.
func (p *Proc) Done() bool { return p.done }

// Spawn creates a process with root as its initial frame and schedules it
// to start at the current virtual time.
func (e *Env) Spawn(name string, root Frame) *Proc { return e.SpawnAt(e.now, name, root) }

// SpawnAt creates a process whose first step runs at absolute time at
// (now, if at has passed): where a spawn-now process that opens with
// SleepUntil(at) would resume, without a wake parked in the heap
// meanwhile. Starts requested in non-decreasing time order (a workload
// staggering ten thousand clients) share one lane — one heap entry, the
// processes waiting in startQ; an earlier one is an ordinary event.
func (e *Env) SpawnAt(at Time, name string, root Frame) *Proc {
	p := &Proc{
		env:      e,
		name:     name,
		stack:    make([]Frame, 1, 8),
		wakeName: "wake:" + name,
	}
	p.stack[0] = root
	p.stepFn = p.step
	e.procs++
	if at < e.now {
		at = e.now
	}
	if e.starts.n > 0 && at < e.starts.last {
		e.At(at, "spawn:"+name, p.stepFn)
		return p
	}
	e.startQ.procs = append(e.startQ.procs, p)
	e.starts.At(e, at, "spawn")
	return p
}

// startNext is the starts lane's callback: step the longest-queued
// process for the first time.
func (e *Env) startNext() { e.startQ.pop().step() }

// step is the trampoline: it drives the top frame until the process
// parks or its stack empties. It runs in event context — spawn events,
// wake events and wait-queue wakes all schedule this one bound method.
func (p *Proc) step() {
	if p.done {
		panic(fmt.Sprintf("sim: resuming finished proc %q", p.name))
	}
	e := p.env
	prev := e.current
	e.current = p
	if h := p.hook; h != nil {
		p.hook = nil // one-shot: a parked hook resumes into the stack
		if !h(p) {
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
			p.stack[n-1] = nil
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

// OnWake arms fn to run when the process next resumes, before its frame
// stack re-enters. The hook returns false if it parked the process again
// (its own CPU charge had to wait); it is cleared either way.
func (p *Proc) OnWake(fn func(*Proc) bool) { p.hook = fn }

// SleepUntil advances the process to virtual time t and reports whether
// it completed without parking. Sleeping into the past is a no-op.
//
// Fast path: when no queued event fires before t, nothing can run in the
// interval — events are only created by running code, and all of it is
// suspended until this process resumes. The clock advances to t directly
// and SleepUntil returns true: the charge was an ordinary function call.
// An event queued exactly at t still forces the slow path: it was
// scheduled earlier, so the total order says it runs first. Skipping the
// wake event shifts later sequence numbers uniformly, which preserves
// every tie-break — the queue's total order, and therefore simulated
// time, is unchanged.
//
// Slow path: a wake event is scheduled at t and the process parks;
// SleepUntil returns false and the frame must immediately return from
// Step, having recorded the state to resume at.
func (p *Proc) SleepUntil(t Time) bool {
	e := p.env
	if t <= e.now {
		return true
	}
	// The fast path additionally requires t to lie inside the safe-time
	// horizon: in a sharded run, a cross-shard message may still be
	// delivered anywhere in [now, horizon∞), so advancing the clock past
	// the horizon in place could jump over an arrival. Parking instead
	// adds one wake event, which shifts later sequence numbers uniformly —
	// every tie-break, and therefore simulated time, is unchanged.
	if e.current == p && t < e.horizon && (len(e.events) == 0 || e.events[0].at > t) {
		e.now = t
		return true
	}
	e.At(t, p.wakeName, p.stepFn)
	p.park()
	return false
}

// Sleep advances the process by duration d of virtual time, reporting
// whether it completed without parking (see SleepUntil).
func (p *Proc) Sleep(d Time) bool { return p.SleepUntil(p.env.now + d) }

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
func (p *Proc) PushTag(v any) { p.tags = append(p.tags, v) }

// PopTag removes the top tag. Popping an empty stack is a no-op so
// instrumentation may enable mid-run without unbalancing anything.
func (p *Proc) PopTag() {
	if n := len(p.tags); n > 0 {
		p.tags = p.tags[:n-1]
	}
}

// Tag returns the top of the tag stack, or nil when empty.
func (p *Proc) Tag() any {
	if n := len(p.tags); n > 0 {
		return p.tags[n-1]
	}
	return nil
}

// Current returns the process currently executing, or nil when called from
// plain event context.
func (e *Env) Current() *Proc { return e.current }

// WaitQueue is a FIFO queue of blocked processes, analogous to a kernel
// sleep channel. Wake moves the process at the head of the queue back onto
// the event queue at the current time; WakeAll drains the queue.
type WaitQueue struct {
	env      *Env
	wakeName string // "wakeq:"+name, precomputed off the wake hot path
	procs    []*Proc
	head     int // longest waiter; popping neither shifts nor allocates
}

// NewWaitQueue returns an empty wait queue.
func (e *Env) NewWaitQueue(name string) *WaitQueue {
	return &WaitQueue{env: e, wakeName: "wakeq:" + name}
}

// Len returns the number of processes blocked on the queue.
func (w *WaitQueue) Len() int { return len(w.procs) - w.head }

// Wait parks p until another part of the simulation calls Wake or
// WakeAll. The calling frame must return from Step immediately; its Step
// re-enters — from the state it recorded — when the wake event fires.
func (w *WaitQueue) Wait(p *Proc) {
	w.procs = append(w.procs, p)
	p.park()
}

// wake dequeues the longest-waiting process, if any, and schedules its
// resumption at absolute time t. It reports whether a process was woken.
func (w *WaitQueue) wake(t Time) bool {
	if w.head == len(w.procs) {
		return false
	}
	w.env.At(t, w.wakeName, w.pop().stepFn)
	return true
}

// pop removes the longest-waiting process from a non-empty queue.
func (w *WaitQueue) pop() *Proc {
	p := w.procs[w.head]
	w.procs[w.head] = nil // release for GC
	w.head++
	switch {
	case w.head == len(w.procs):
		w.procs, w.head = w.procs[:0], 0
	case w.head >= 128 && w.head*2 >= len(w.procs):
		// Never quite drained: compact once the dead prefix dominates.
		n := copy(w.procs, w.procs[w.head:])
		clear(w.procs[n:])
		w.procs, w.head = w.procs[:n], 0
	}
	return p
}

// Wake schedules the longest-waiting process, if any, to resume at the
// current virtual time. It reports whether a process was woken.
func (w *WaitQueue) Wake() bool { return w.wake(w.env.now) }

// WakeAll wakes every waiting process, preserving FIFO order.
func (w *WaitQueue) WakeAll() {
	for w.Wake() {
	}
}

// WakeAt schedules the longest-waiting process, if any, to resume at
// absolute time t. It reports whether a process was scheduled.
func (w *WaitQueue) WakeAt(t Time) bool { return w.wake(t) }
