// Package sim provides a deterministic discrete-event simulation engine:
// a virtual clock, an event queue, coroutine-style simulated processes,
// wait queues, and a seedable random number generator.
//
// The engine is single-threaded: a simulated process is a stack of
// resumable frames (proc.go) that the event loop itself drives, on its own
// goroutine, until the process blocks — there is no goroutine per process
// and nothing to hand control to. Exactly one frame executes at a time, so
// every run with the same seed and the same program produces the same
// event ordering and the same virtual timestamps. This determinism is what
// lets the latency experiments in the rest of the repository report exact,
// reproducible microsecond breakdowns.
//
// # The event queue
//
// The queue is engineered for wall-clock speed, because every CPU charge,
// timer, cell transmission, and process wakeup in the testbed passes
// through it (see docs/PERFORMANCE.md). Events are stored BY VALUE in
// 4-ary min-heaps (env.go): scheduling appends into a heap's backing
// slice and popping moves values within it, so the steady-state event
// loop performs no per-event allocation (the one interface word an event
// carries holds only pointer-shaped values, which box for free), and the
// slice's reusable storage is the event free-list. A process's wake-up is
// an event that carries the process itself (proc.go) — no closure, no
// label until a diagnostic prints one — making the sleep/wake cycle, the
// single hottest path in the simulator, allocation-free; a process is one
// allocation, or none when SpawnIn starts it in its owner's storage, and a
// wait queue none (it embeds by value in its owner).
// A sleeping process's wake need not be an event either: SleepUntil takes
// the wake's sequence number, runs the events queued ahead of that key on
// the sleeper's own stack — one Step each, so one step of the loop may
// serve nested events, and Fired counts every one — and then advances the
// clock in place: the CPU charge was an ordinary function call, with
// neither a push nor a pop for the wake (and the total order provably
// unchanged — see the method comment). A process only parks when it may
// not serve up to its wake: past an enclosing sleeper's wake or
// RunUntil's deadline (the ceiling key), past the horizon, or at the
// watchdog's next poll. An environment is also reusable: Env.Reset
// rewinds the clock, sequence counter, and RNG while keeping the heaps'
// backing storage and any processes parked on wait queues, the
// foundation of testbed reuse (lab.Lab.Reset).
//
// # Who owns scratch memory
//
// Exactly one frame runs on a loop at a time, so memory that is needed
// only while a unit of work is in flight belongs to the loop, not to the
// host doing the work: each Env has one Arena (arena.go) of byte buffers
// that are checked out for a datagram or held by a queue while it is
// non-empty, and go back when the work drains. An idle host, channel or
// port then holds none, however many of them a topology has. Local
// extends the same ownership to typed per-loop state other packages keep
// (the mbuf free-lists). Neither takes a lock: every loop runs on one
// goroutine, sharded execution gives every shard its own Env, and
// nothing checked out of one loop's arena is ever returned to another's.
//
// # Ways to schedule, and one not to
//
// The heap should hold live work only: its depth is paid under every
// push and pop, and every event costs a pop. First rule: no event for
// what a cursor can answer. Work whose finish time is known when it is
// committed — a CPU charge, a cell clocked out of a FIFO — is a
// busy-until cursor read by whoever asks next (kern.Kernel, atm's
// transmitter), not a completion event. For the rest, pick the shape:
//
//   - A plain event — At/After, or AtArg when one bound callback needs a
//     word of context (no closure per call) — for anything that happens
//     once at a time of its own: a process wake, a fault, a cross-shard
//     arrival. A sleep's wake is one only when the sleep has to park;
//     otherwise the sleeper serves the events ahead of it, so one Step
//     may run many events (nested ones, each counted by Fired) and a
//     sleep that had to wait costs neither a push nor a pop.
//   - A Lane for one owner fired over and over at times that
//     never decrease — a link's cells, a transmitter's frames. However
//     many are in flight the lane keeps one heap entry; the rest queue
//     outside the heap and take that entry over as it fires. SpawnIn has
//     one inside the Env: staggered process starts share an entry.
//   - A Timer for a deadline that is re-armed or cancelled far more
//     often than it fires — a retransmission timeout, a delayed ACK.
//     While the deadline only moves later the timer keeps one heap
//     entry, which walks to the live deadline instead of leaving a dead
//     event behind at every superseded one.
//   - A stamp for work nobody notices until they look — a cell that
//     lands in a receive FIFO without interrupting the host: Env.Stamp
//     takes the number an event would have had, the owner keeps the
//     key with the work, and whoever looks first asks Env.Precedes
//     whether it is behind the running activity's key and, if so, does
//     the work then, in key order. No heap entry at all.
//
// Behind all three the queue is two heaps, and a caller never chooses
// between them: an entry due a millisecond or more past the clock when it
// is scheduled (farAfter — above every cell time, propagation delay and
// CPU charge in the cost model, below every protocol timer) goes to the
// far tier, anything sooner to the near one, and it stays where it was
// pushed until it pops — a timer that walks re-keys in its own tier. The
// next event is whichever root is before the other. The live work of a
// 10,000-client fan-in is about ten entries; the thousands of armed,
// stopped and superseded protocol timers under them are a second away,
// and with the tiers apart the pushes and pops of the live ten no longer
// sift through them.
//
// None of this affects simulated time. Events fire in exactly the order
// defined by (timestamp, scheduling sequence number), a total order, so
// any correct priority queue produces the identical simulation; and
// Lane.At and Timer.Set take the next sequence number at the moment of
// the call, just as At does, so every callback keeps the key — and the
// place in that order — an event per call would have had. Stamp takes
// one the same way for an event never scheduled, and Precedes compares
// against the firing event's key or, after a sleep advanced in place,
// the key its wake would have had — served events or none. A lane only
// defers *inserting* keys that are already in order among themselves; a
// timer only drops entries that would have popped as no-ops, and still
// lets its last deadline pop so a drained clock stops where it did. Any
// partition of the entries keeps the order too: every key is stamped
// before a tier is chosen, and the minimum of two heaps is the minimum of
// their union. What can differ is which no-ops a sleeping process sees
// ahead of it, and whether it serves them or parks behind them changes
// no key (see Proc.SleepUntil). That contract is what lets the
// wall-clock work promise byte-identical paper tables (enforced by the
// golden-output tests in cmd/tables, cmd/load, and cmd/pkttrace) and is
// checked against a plain-heap reference that parks every sleep that has
// to wait — under Run, under a bare Step loop and under windows whose
// horizon a callback lowers — by the property test and fuzzer in
// queue_test.go.
package sim

import "fmt"

// Time is a point in virtual time, measured in nanoseconds since the start
// of the simulation. It is also used for durations. The paper's measurement
// clock had a 40 ns period; 1 ns resolution comfortably exceeds that.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros returns the time as a floating-point number of microseconds,
// the unit used throughout the paper's tables.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Millis returns the time as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// String formats the time in microseconds, matching the paper's unit.
func (t Time) String() string { return fmt.Sprintf("%.1fµs", t.Micros()) }

// Micros converts a floating-point number of microseconds to a Time.
// It is the inverse of Time.Micros and is used by the cost model, whose
// calibration constants are naturally expressed in microseconds.
func Micros(us float64) Time { return Time(us * float64(Microsecond)) }

// MaxTime is the largest representable virtual time.
const MaxTime = Time(1<<63 - 1)
