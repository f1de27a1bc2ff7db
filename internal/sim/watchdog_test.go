package sim

import (
	"strings"
	"testing"
)

// spin schedules a self-rescheduling timer: ticks of the given period,
// at most n of them (the bound keeps a broken watchdog from hanging the
// test), invoking fn on each tick when non-nil.
func spin(e *Env, period Time, n int, fn func()) {
	var tick func()
	tick = func() {
		if fn != nil {
			fn()
		}
		if n--; n > 0 {
			e.After(period, "spin.tick", tick)
		}
	}
	e.After(period, "spin.tick", tick)
}

// TestWatchdogFiresOnStall pins the core contract: virtual time
// advancing past the horizon with zero progress reports aborts the run
// with a diagnostic, instead of executing the livelock to completion.
func TestWatchdogFiresOnStall(t *testing.T) {
	e := NewEnv()
	w := NewWatchdog(100 * Millisecond)
	w.OnFire(func(fe *Env) string {
		if fe != e {
			t.Errorf("OnFire env = %p, want the stalled env %p", fe, e)
		}
		return "\n  DIAG: " + fe.PendingSummary(4)
	})
	e.SetWatchdog(w)
	spin(e, 10*Millisecond, 1000, nil) // would run to 10s unchecked
	e.Run()

	if !w.Fired() {
		t.Fatal("watchdog did not fire on a 10s no-progress spin with a 100ms horizon")
	}
	err := e.WatchdogErr()
	if err == nil {
		t.Fatal("WatchdogErr = nil after firing")
	}
	for _, want := range []string{"no workload progress", "DIAG:", "spin.tick"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("diagnostic %q missing %q", err, want)
		}
	}
	if e.Now() >= 10*Second {
		t.Fatalf("run executed to completion (clock %v); watchdog should have stopped it", e.Now())
	}
	// Firing is permanent: further stepping stays refused.
	if e.Step() {
		t.Fatal("Step ran an event after the watchdog fired")
	}
}

// TestWatchdogStopsServiceAheadOfAWake: a self-rescheduling event that
// stays ahead of a sleeper's wake is served on the sleeper's own stack,
// and the watchdog still stops it. Service ends at the first event due
// for a poll and the sleeper parks under the number its wake took, so the
// poll — and the diagnostic it builds — sees the wake in the queue, as
// it would had the sleep parked from the start. (A loop of zero-delay
// events never moves the clock, so no simulated-time watchdog can see
// it; the spin's ticks are 10 ms apart.)
func TestWatchdogStopsServiceAheadOfAWake(t *testing.T) {
	e := NewEnv()
	w := NewWatchdog(100 * Millisecond)
	w.OnFire(func(fe *Env) string { return "\n  DIAG: " + fe.PendingSummary(4) })
	e.SetWatchdog(w)
	e.Spawn("sleeper", Steps(func(p *Proc) {
		spin(e, 10*Millisecond, 1000, nil) // to 10 s, all of it ahead of the wake
		if p.SleepUntil(20 * Second) {
			t.Error("the sleep served the spin to its wake: the watchdog never stopped it")
		}
	}, func(p *Proc) {}))
	e.Run()

	if !w.Fired() {
		t.Fatal("watchdog did not fire on a spin served ahead of a sleeper's wake")
	}
	for _, want := range []string{"no workload progress", "spin.tick", "wake:sleeper"} {
		if err := e.WatchdogErr(); !strings.Contains(err.Error(), want) {
			t.Errorf("diagnostic %q missing %q", err, want)
		}
	}
	if got := e.PendingSummary(4); !strings.Contains(" "+got+" ", " wake:sleeper×1 ") {
		t.Errorf("PendingSummary = %q, missing the sleeper's wake", got)
	}
	if e.Now() >= Second {
		t.Fatalf("clock %v: the spin ran far past the 100 ms horizon", e.Now())
	}
}

// TestWatchdogProgressDefersFiring pins the other half: a run that
// keeps reporting progress never fires, no matter how long it gets.
func TestWatchdogProgressDefersFiring(t *testing.T) {
	e := NewEnv()
	w := NewWatchdog(100 * Millisecond)
	e.SetWatchdog(w)
	spin(e, 10*Millisecond, 1000, w.Progress) // 10s of steady progress
	e.Run()

	if w.Fired() {
		t.Fatalf("watchdog fired on a run with progress every tick: %v", w.Err())
	}
	if e.Now() != 10*Second {
		t.Fatalf("clock = %v, want 10s (run to completion)", e.Now())
	}
	if err := e.WatchdogErr(); err != nil {
		t.Fatalf("WatchdogErr = %v, want nil", err)
	}
}

// TestWatchdogQuietStretchWithinHorizon: legitimate quiet periods
// shorter than the horizon (fault downtime, backoff recovery) pass
// untouched.
func TestWatchdogQuietStretchWithinHorizon(t *testing.T) {
	e := NewEnv()
	w := NewWatchdog(Second)
	e.SetWatchdog(w)
	e.At(10*Millisecond, "work", w.Progress)
	// 900ms of silence — inside the 1s horizon — then more work.
	e.At(910*Millisecond, "work", w.Progress)
	e.Run()
	if w.Fired() {
		t.Fatalf("watchdog fired across a sub-horizon quiet stretch: %v", w.Err())
	}
}

// TestWatchdogDefaultHorizon pins the default: one simulated hour,
// selected by a zero horizon.
func TestWatchdogDefaultHorizon(t *testing.T) {
	if DefaultWatchdogHorizon != Time(3600)*Second {
		t.Fatalf("DefaultWatchdogHorizon = %v, want 1h", DefaultWatchdogHorizon)
	}
	if w := NewWatchdog(0); w.horizon != DefaultWatchdogHorizon {
		t.Fatalf("NewWatchdog(0) horizon = %v, want default", w.horizon)
	}
}

// TestCrashScheduleShape pins the canonical recovery plan: crash then
// restart.
func TestCrashScheduleShape(t *testing.T) {
	s := CrashSchedule(3, 500*Millisecond, Second)
	want := FaultSchedule{
		{At: 500 * Millisecond, Kind: FaultHostCrash, Host: 3},
		{At: 1500 * Millisecond, Kind: FaultHostRestart, Host: 3},
	}
	if len(s) != len(want) {
		t.Fatalf("schedule = %v, want %v", s, want)
	}
	for i := range s {
		if s[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, s[i], want[i])
		}
	}
	if err := s.Validate(4); err != nil {
		t.Fatalf("Validate(4) = %v", err)
	}
	if err := s.Validate(3); err == nil {
		t.Fatal("Validate(3) accepted an out-of-range host")
	}
}

// TestLinkFlapsDeterministic pins the per-entity stream construction:
// same base seed and hosts give a byte-identical schedule; each host's
// flaps come from its private stream, so listing hosts in a different
// order changes nothing.
func TestLinkFlapsDeterministic(t *testing.T) {
	mk := func(base uint64, hosts []int) FaultSchedule {
		return LinkFlaps(base, hosts, 3, 20*Millisecond, 500*Microsecond)
	}
	a := mk(42, []int{1, 2, 3})
	b := mk(42, []int{3, 1, 2}) // construction order must not matter
	if len(a) != 18 {
		t.Fatalf("len = %d, want 18 (3 hosts x 3 flaps x down+up)", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs across host orderings: %v vs %v", i, a[i], b[i])
		}
	}
	c := mk(43, []int{1, 2, 3})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different base seeds produced identical schedules")
	}
	// Canonical order: non-decreasing time, ties by host then kind.
	for i := 1; i < len(a); i++ {
		p, q := a[i-1], a[i]
		if p.At > q.At || (p.At == q.At && p.Host > q.Host) ||
			(p.At == q.At && p.Host == q.Host && p.Kind > q.Kind) {
			t.Fatalf("schedule not in canonical order at %d: %v then %v", i, p, q)
		}
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("Validate = %v", err)
	}
	if err := (FaultSchedule{{At: -1, Kind: FaultLinkDown, Host: 0}}).Validate(1); err == nil {
		t.Fatal("Validate accepted a negative-time event")
	}
	if err := (FaultSchedule{{Kind: FaultControllerFlip + 1, Host: 0}}).Validate(1); err == nil {
		t.Fatal("Validate accepted an unknown fault kind")
	}
	if err := (FaultSchedule{{Kind: FaultWireFlip, Host: 0, Bit: -1}}).Validate(1); err == nil {
		t.Fatal("Validate accepted a negative bit")
	}
	if err := (FaultSchedule{{Kind: FaultControllerFlip, Host: 0, Bit: 11519}}).Validate(1); err != nil {
		t.Fatalf("Validate refused a controller flip: %v", err)
	}
}

// namedFrame is a root frame that names its own process (Namer) and
// runs a fixed script of steps.
type namedFrame struct {
	name  string
	steps Frame
}

func (f *namedFrame) Name() string { return f.name }
func (f *namedFrame) Step(p *Proc) { f.steps.Step(p) }

// TestPendingSummaryNamesLazyWakes pins what the watchdog's histogram
// says about processes waiting to run now that no wake label is built
// until one is printed: a sleeper's wake names the process, a wait-queue
// wake names the queue and the process, a first step outside the starts
// lane names the process — whether the process was named at Spawn or
// names itself through its root frame.
func TestPendingSummaryNamesLazyWakes(t *testing.T) {
	e := NewEnv()
	var ipq WaitQueue
	ipq.Init("ipq")
	heapq := e.NewWaitQueue("so.rcv")

	e.At(1, "blocker", func() {}) // keeps the sleepers off the in-place fast path
	e.Spawn("", &namedFrame{name: "host7.netisr", steps: Steps(func(p *Proc) { ipq.Wait(p) }, func(p *Proc) {})})
	e.Spawn("client.fanin", Steps(func(p *Proc) { heapq.Wait(p) }, func(p *Proc) {}))
	e.Spawn("", &namedFrame{name: "host7.tcptimer", steps: Steps(func(p *Proc) { p.SleepUntil(50) }, func(p *Proc) {})})
	e.Spawn("sleeper", Steps(func(p *Proc) { p.SleepUntil(60) }, func(p *Proc) {}))
	e.RunUntil(2) // everyone has parked
	ipq.WakeAt(40)
	heapq.WakeAt(41)
	e.SpawnAt(90, "", &namedFrame{name: "client9.fanin", steps: Steps()})
	e.SpawnAt(70, "early", Steps()) // before the lane's newest: an event of its own

	got := e.PendingSummary(16)
	for _, want := range []string{
		"wakeq:ipq:host7.netisr×1", "wakeq:so.rcv:client.fanin×1",
		"wake:host7.tcptimer×1", "wake:sleeper×1",
		"spawn×1", "spawn:early×1",
	} {
		if !strings.Contains(" "+got+" ", " "+want+" ") {
			t.Errorf("PendingSummary = %q, missing %q", got, want)
		}
	}
	if e.Pending() != 6 {
		t.Errorf("Pending = %d, want 6", e.Pending())
	}
	e.Run()
	if e.procs != 0 {
		t.Errorf("%d processes never finished", e.procs)
	}
}
