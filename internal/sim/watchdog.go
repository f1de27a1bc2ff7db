// The no-progress watchdog: the repo's answer to silent livelocks.
// Three of them were flushed out by accident in earlier work (the
// unrouted-first-cell retransmission loop, the orphaned-teardown storm,
// the sub-MSS bulk collapse), each presenting as a run that simply never
// returned. The watchdog converts that failure mode into a failing run
// with a diagnostic: if simulated time advances past a horizon with zero
// workload progress — only retransmission and timer events firing — the
// event loop refuses to continue and the workload surfaces an error
// naming the stuck state.
package sim

import "fmt"

// Watchdog aborts a simulation that advances through virtual time
// without making workload progress. Workloads report progress (one call
// per completed unit of useful work — a measured request, a finished
// transfer) via Progress; Env.Step polls the watchdog at coarse
// intervals and stops the loop once the gap between the clock and the
// last progress stamp exceeds the horizon.
//
// The horizon is simulated time, not wall-clock time: a livelocked run
// burns through virtual hours in wall-clock seconds, so the watchdog
// fires quickly in real terms while legitimate quiet stretches (backoff
// recovery after a fault, the bounded post-completion retransmission
// drain that transport give-up guarantees) pass untouched as long as the
// horizon exceeds them.
//
// One Watchdog may be shared by the environments of a sharded run, which
// all step on one goroutine.
type Watchdog struct {
	horizon  Time
	progress uint64 // completions reported via Progress
	lastSeen uint64 // progress count at the last stamp
	lastAt   Time   // clock at the last stamp
	fired    bool
	err      error
	onFire   func(*Env) string
}

// DefaultWatchdogHorizon is the no-progress bound workloads arm by
// default: one simulated hour. The longest legitimate quiet stretch in
// the suite is the post-completion retransmission drain of orphaned
// teardowns, bounded by transport give-up at roughly half a simulated
// hour; the default clears it with margin while still catching an
// unbounded livelock in wall-clock seconds.
const DefaultWatchdogHorizon = Time(3600) * Second

// NewWatchdog returns a watchdog that fires after horizon of simulated
// time passes with no progress report (0 selects the default horizon).
func NewWatchdog(horizon Time) *Watchdog {
	if horizon <= 0 {
		horizon = DefaultWatchdogHorizon
	}
	return &Watchdog{horizon: horizon}
}

// OnFire installs the diagnostic builder invoked once when the watchdog
// fires; its output is appended to the watchdog error. The environment
// passed is the one whose Step detected the stall.
func (w *Watchdog) OnFire(fn func(*Env) string) { w.onFire = fn }

// Progress records one unit of workload progress, pushing the
// no-progress deadline out by the horizon.
func (w *Watchdog) Progress() { w.progress++ }

// Fired reports whether the watchdog has aborted the run.
func (w *Watchdog) Fired() bool { return w.fired }

// Err returns the abort diagnostic, or nil if the watchdog has not
// fired.
func (w *Watchdog) Err() error { return w.err }

// pollEvery is the clock interval between watchdog polls: coarse enough
// to keep the armed per-event cost at one Time comparison, fine enough
// that a stall is detected within a small fraction of the horizon past
// the deadline.
func (w *Watchdog) pollEvery() Time { return w.horizon / 8 }

// check is Env.Step's poll: it stamps fresh progress, or fires if the
// next event's timestamp has moved more than the horizon past the last
// stamp. It returns true once fired, permanently.
func (w *Watchdog) check(e *Env, next Time) bool {
	if w.fired {
		return true
	}
	if w.progress != w.lastSeen {
		w.lastSeen = w.progress
		w.lastAt = next
		return false
	}
	if next-w.lastAt <= w.horizon {
		return false
	}
	w.fired = true
	stalled, done := next-w.lastAt, w.lastSeen
	diag := ""
	if w.onFire != nil {
		diag = w.onFire(e)
	}
	w.err = fmt.Errorf("sim: watchdog: no workload progress for %v of simulated time (clock %v, %d completions); aborting instead of hanging%s",
		stalled, next, done, diag)
	return true
}
