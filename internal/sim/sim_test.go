package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d, want 1000", int64(Microsecond))
	}
	if Second != 1e9 {
		t.Fatalf("Second = %d, want 1e9", int64(Second))
	}
	if got := Time(1500).Micros(); got != 1.5 {
		t.Fatalf("Micros = %v, want 1.5", got)
	}
	if got := Micros(2.5); got != 2500 {
		t.Fatalf("Micros(2.5) = %v, want 2500ns", got)
	}
	if got := (2 * Millisecond).Millis(); got != 2 {
		t.Fatalf("Millis = %v, want 2", got)
	}
	if s := (3 * Microsecond).String(); s != "3.0µs" {
		t.Fatalf("String = %q", s)
	}
}

func TestEventOrdering(t *testing.T) {
	e := NewEnv()
	var order []int
	e.At(30, "c", func() { order = append(order, 3) })
	e.At(10, "a", func() { order = append(order, 1) })
	e.At(20, "b", func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %v, want 30", e.Now())
	}
}

func TestEventTieBreakFIFO(t *testing.T) {
	e := NewEnv()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, "tie", func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEnv()
	e.At(100, "x", func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, "past", func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEnv()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, "neg", func() {})
}

func TestRunUntil(t *testing.T) {
	e := NewEnv()
	ran := 0
	e.At(10, "a", func() { ran++ })
	e.At(20, "b", func() { ran++ })
	e.At(30, "c", func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// RunUntil advances the clock even with no events in range.
	e.RunUntil(25)
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEnv()
	var hits []Time
	e.At(10, "outer", func() {
		e.After(5, "inner", func() { hits = append(hits, e.Now()) })
	})
	e.Run()
	if len(hits) != 1 || hits[0] != 15 {
		t.Fatalf("hits = %v, want [15]", hits)
	}
}

func TestProcSleep(t *testing.T) {
	e := NewEnv()
	var marks []Time
	e.Spawn("sleeper", Steps(
		func(p *Proc) { marks = append(marks, e.Now()); p.Sleep(100) },
		func(p *Proc) { marks = append(marks, e.Now()); p.Sleep(50) },
		func(p *Proc) { marks = append(marks, e.Now()) },
	))
	e.Run()
	want := []Time{0, 100, 150}
	if len(marks) != 3 {
		t.Fatalf("marks = %v", marks)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
}

func TestProcSleepUntilPastIsNoop(t *testing.T) {
	e := NewEnv()
	done := false
	e.Spawn("p", Steps(
		func(p *Proc) { p.Sleep(10) },
		func(p *Proc) {
			if !p.SleepUntil(5) { // in the past: completes inline
				t.Error("SleepUntil into the past parked")
			}
			done = true
		},
	))
	e.Run()
	if !done {
		t.Fatal("proc did not finish")
	}
}

func TestSleepFastPathInline(t *testing.T) {
	// With no event scheduled before the target time, a Sleep is an
	// ordinary function call: the clock advances inline, nothing is
	// pushed onto the event queue, and the frame keeps running.
	e := NewEnv()
	var trace []string
	e.Spawn("p", Steps(func(p *Proc) {
		if !p.Sleep(100) {
			t.Error("uncontended Sleep parked")
		}
		trace = append(trace, "after-sleep")
		if e.Pending() != 0 {
			t.Errorf("fast-path Sleep left %d events pending", e.Pending())
		}
		if e.Now() != 100 {
			t.Errorf("Now = %v, want 100", e.Now())
		}
	}))
	e.Run()
	if len(trace) != 1 {
		t.Fatalf("trace = %v", trace)
	}
}

// TestContendedSleep pins the two outcomes of a sleep with an event
// queued ahead of its wake. Served in place: the sleeper runs the event
// on its own stack and advances to its wake without parking, so the
// order and the clock are those of a park and a wake, and nothing is
// left pending. Parked: a sleeper started from inside another's service
// whose wake lies past the enclosing sleeper's must not overtake it.
func TestContendedSleep(t *testing.T) {
	t.Run("served in place", func(t *testing.T) {
		e := NewEnv()
		var order []string
		e.At(50, "mid", func() { order = append(order, fmt.Sprintf("mid@%d", e.Now())) })
		e.Spawn("p", Steps(func(p *Proc) {
			if !p.Sleep(100) {
				t.Error("a sleep with one plain event ahead of it parked")
			}
			order = append(order, fmt.Sprintf("woke@%d", e.Now()))
			if n := e.Pending(); n != 0 {
				t.Errorf("%d events pending after the served sleep, want 0", n)
			}
		}))
		e.Run()
		if got, want := strings.Join(order, " "), "mid@50 woke@100"; got != want {
			t.Fatalf("order = %q, want %q", got, want)
		}
		if e.Now() != 100 {
			t.Fatalf("Now = %v, want 100", e.Now())
		}
		// The spawn and the event at 50 ran; the wake never was an event.
		if e.Fired() != 2 {
			t.Fatalf("Fired = %d, want 2", e.Fired())
		}
	})
	t.Run("past the enclosing wake parks", func(t *testing.T) {
		e := NewEnv()
		var order []string
		mark := func(s string) { order = append(order, fmt.Sprintf("%s@%d", s, e.Now())) }
		e.SpawnAt(10, "b", Steps(func(p *Proc) {
			mark("b")
			if p.SleepUntil(150) {
				t.Error("a sleep ending past the enclosing sleeper's wake did not park")
			}
		}, func(p *Proc) { mark("b") }))
		e.Spawn("a", Steps(func(p *Proc) {
			mark("a")
			if !p.SleepUntil(100) {
				t.Error("the enclosing sleep parked")
			}
			mark("a")
		}))
		e.Run()
		if got, want := strings.Join(order, " "), "a@0 b@10 a@100 b@150"; got != want {
			t.Fatalf("order = %q, want %q", got, want)
		}
	})
}

func TestTwoProcsInterleave(t *testing.T) {
	e := NewEnv()
	var order []string
	e.Spawn("a", Steps(
		func(p *Proc) { order = append(order, "a0"); p.Sleep(10) },
		func(p *Proc) { order = append(order, "a10"); p.Sleep(20) },
		func(p *Proc) { order = append(order, "a30") },
	))
	e.Spawn("b", Steps(
		func(p *Proc) { order = append(order, "b0"); p.Sleep(15) },
		func(p *Proc) { order = append(order, "b15") },
	))
	e.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcCallStack(t *testing.T) {
	// A Call pushes the callee; Return pops back into the caller, which
	// resumes at its recorded state — all within one event when nothing
	// parks, and across parks when the callee sleeps.
	e := NewEnv()
	var order []string
	callee := Steps(
		func(p *Proc) { order = append(order, "callee0"); p.Sleep(10) },
		func(p *Proc) { order = append(order, "callee10") },
	)
	e.Spawn("caller", Steps(
		func(p *Proc) { order = append(order, "caller0"); p.Call(callee) },
		func(p *Proc) {
			if e.Now() != 10 {
				t.Errorf("resumed caller at %d, want 10", int64(e.Now()))
			}
			order = append(order, "back")
		},
	))
	e.Run()
	want := []string{"caller0", "callee0", "callee10", "back"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestOnWakeHookRunsBeforeResume(t *testing.T) {
	// The one-shot wake hook runs before the frame stack re-enters —
	// the mechanism kern.SleepOn uses to charge the scheduler's wakeup
	// path on the woken process's own clock.
	e := NewEnv()
	wq := e.NewWaitQueue("wq")
	var order []string
	e.Spawn("sleeper", Steps(
		func(p *Proc) {
			wq.Wait(p)
			p.OnWake(hookFunc(func(p *Proc) bool {
				order = append(order, "hook")
				return true
			}))
		},
		func(p *Proc) { order = append(order, "resumed") },
	))
	e.Spawn("waker", Steps(
		func(p *Proc) { p.Sleep(5) },
		func(p *Proc) { wq.Wake() },
	))
	e.Run()
	if len(order) != 2 || order[0] != "hook" || order[1] != "resumed" {
		t.Fatalf("order = %v, want [hook resumed]", order)
	}
}

// hookFunc adapts a function to WakeHook.
type hookFunc func(p *Proc) bool

func (f hookFunc) Woken(p *Proc) bool { return f(p) }

func TestWaitQueue(t *testing.T) {
	e := NewEnv()
	wq := e.NewWaitQueue("test")
	var woken []string
	e.Spawn("w1", Steps(
		func(p *Proc) { wq.Wait(p) },
		func(p *Proc) { woken = append(woken, "w1@"+e.Now().String()) },
	))
	e.Spawn("w2", Steps(
		func(p *Proc) { wq.Wait(p) },
		func(p *Proc) { woken = append(woken, "w2@"+e.Now().String()) },
	))
	e.Spawn("waker", Steps(
		func(p *Proc) { p.Sleep(100 * Microsecond) },
		func(p *Proc) {
			if !wq.Wake() {
				t.Error("Wake found nobody")
			}
			p.Sleep(100 * Microsecond)
		},
		func(p *Proc) { wq.WakeAll() },
	))
	e.Run()
	if len(woken) != 2 {
		t.Fatalf("woken = %v", woken)
	}
	if woken[0] != "w1@100.0µs" || woken[1] != "w2@200.0µs" {
		t.Fatalf("woken = %v", woken)
	}
}

func TestWaitQueueWakeEmpty(t *testing.T) {
	e := NewEnv()
	wq := e.NewWaitQueue("empty")
	if wq.Wake() {
		t.Fatal("Wake on empty queue returned true")
	}
	wq.WakeAll() // must not panic or loop
	if wq.Len() != 0 {
		t.Fatalf("Len = %d", wq.Len())
	}
}

func TestWaitQueueWakeAt(t *testing.T) {
	e := NewEnv()
	wq := e.NewWaitQueue("at")
	var at Time = -1
	e.Spawn("w", Steps(
		func(p *Proc) { wq.Wait(p) },
		func(p *Proc) { at = e.Now() },
	))
	e.Spawn("k", Steps(
		func(p *Proc) { p.Sleep(10) },
		func(p *Proc) { wq.WakeAt(500) },
	))
	e.Run()
	if at != 500 {
		t.Fatalf("woke at %v, want 500", at)
	}
}

func TestProcDone(t *testing.T) {
	e := NewEnv()
	p := e.Spawn("d", Steps(func(p *Proc) { p.Sleep(5) }))
	if p.Done() {
		t.Fatal("Done before running")
	}
	e.Run()
	if !p.Done() {
		t.Fatal("not Done after running")
	}
	if p.Name() != "d" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEnv()
		var ts []Time
		for i := 0; i < 5; i++ {
			e.Spawn("p", LoopN(4, func(p *Proc, j int) {
				if j > 0 {
					ts = append(ts, e.Now())
				}
				if j < 3 {
					p.Sleep(Time(e.RNG().Intn(100) + 1))
				}
			}))
		}
		e.Run()
		return ts
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zeros")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint8) bool {
		m := int(n%100) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGFill(t *testing.T) {
	r := NewRNG(11)
	b := make([]byte, 37)
	r.Fill(b)
	zero := 0
	for _, v := range b {
		if v == 0 {
			zero++
		}
	}
	if zero > 10 {
		t.Fatalf("suspiciously many zero bytes: %d of %d", zero, len(b))
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(13)
	n, hits := 10000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / float64(n)
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("Bool(0.25) hit rate %v", frac)
	}
}

// stressFrame is TestManyProcsStress's per-process body: ten sleeps with
// a monotonic-clock check, an optional barrier wait, then a finish mark.
type stressFrame struct {
	t        *testing.T
	e        *Env
	wq       *WaitQueue
	i        int
	finished *int
	lastSeen *Time

	pc, j int
}

func (f *stressFrame) Step(p *Proc) {
	for {
		switch f.pc {
		case 0: // sleep loop
			if f.j >= 10 {
				f.pc = 1
				continue
			}
			if f.e.Now() < *f.lastSeen {
				f.t.Error("clock went backwards")
			}
			*f.lastSeen = f.e.Now()
			d := Time(1 + (f.i*7+f.j*13)%50)
			f.j++
			if !p.Sleep(d) {
				return
			}
		case 1: // every tenth proc blocks on the barrier
			f.pc = 2
			if f.i%10 == 0 {
				f.wq.Wait(p)
				return
			}
		case 2:
			*f.finished++
			p.Return()
			return
		}
	}
}

func TestManyProcsStress(t *testing.T) {
	// 100 processes interleaving sleeps and wait queues: all must finish
	// and the clock must advance monotonically through every resumption.
	e := NewEnv()
	wq := e.NewWaitQueue("barrier")
	finished := 0
	var lastSeen Time
	for i := 0; i < 100; i++ {
		e.Spawn("p", &stressFrame{t: t, e: e, wq: wq, i: i,
			finished: &finished, lastSeen: &lastSeen})
	}
	e.Spawn("waker", Steps(
		func(p *Proc) {
			p.Call(While(
				func() bool { return finished < 90 },
				func(p *Proc) { p.Sleep(100) },
			))
		},
		func(p *Proc) { wq.WakeAll() },
	))
	e.Run()
	if finished != 100 {
		t.Fatalf("finished = %d, want 100", finished)
	}
}

func TestEventHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEnv()
		var fired []Time
		for _, d := range delays {
			e.After(Time(d), "x", func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSpawnAtMatchesSpawnThenSleep pins SpawnAt to what it replaces: a
// process spawned now that opens with SleepUntil(at). Starts in order,
// out of order, tied, already past, and requested mid-run must produce
// the same (clock, process) sequence either way — and the in-order ones
// must share one heap entry while they wait, visible to Pending,
// PendingSummary and Reset's panic.
func TestSpawnAtMatchesSpawnThenSleep(t *testing.T) {
	starts := []Time{0, 0, 40, 40, 90, 20, 90, 300, 10, 300, 1000}
	late := []Time{5, 130, 130, 60, 400, 250} // requested at t=100: two already past
	build := func(spawnAt bool) (*Env, *[]string) {
		e, log := NewEnv(), new([]string)
		spawn := func(id int, at Time) {
			body := Steps(
				func(p *Proc) {
					*log = append(*log, fmt.Sprintf("%d starts@%d", id, e.Now()))
					p.Sleep(Time(7 * (id%4 + 1)))
				},
				func(p *Proc) { *log = append(*log, fmt.Sprintf("%d ends@%d", id, e.Now())) },
			)
			if spawnAt {
				e.SpawnAt(at, "p", body)
			} else {
				e.Spawn("p", Steps(func(p *Proc) { p.SleepUntil(at) }, func(p *Proc) { p.Call(body) }))
			}
		}
		for i, at := range starts {
			spawn(i, at)
		}
		e.At(100, "late", func() {
			for i, at := range late {
				spawn(100+i, at)
			}
		})
		return e, log
	}

	// 0 0 40 40 90 | 20 | 90 300 | 10 | 300 1000: nine ride the lane.
	e, got := build(true)
	if len(e.events) != 1+2+1 || e.Pending() != len(starts)+1 {
		t.Fatalf("%d heap entries, %d pending: want 4 (the lane, two early starts, the late spawner) and %d",
			len(e.events), e.Pending(), len(starts)+1)
	}
	if s := e.PendingSummary(1); s != "spawn×9" {
		t.Fatalf("PendingSummary = %q, want the queued starts under one name", s)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Reset with starts queued did not panic")
			}
		}()
		e.Reset()
	}()
	e.Run()

	ref, want := build(false)
	ref.Run()
	if len(*got) != 2*(len(starts)+len(late)) || !reflect.DeepEqual(*got, *want) {
		t.Fatalf("SpawnAt:             %v\nSpawn+SleepUntil(at): %v", *got, *want)
	}
	if e.Now() != ref.Now() || e.Pending() != 0 || e.procs != 0 {
		t.Fatalf("ends at %v with %d pending, %d procs live; reference at %v", e.Now(), e.Pending(), e.procs, ref.Now())
	}
}

// selfHosted is a root frame that holds its own process, as a service
// loop's owner or a workload client does.
type selfHosted struct {
	proc  Proc
	steps int
}

func (f *selfHosted) Name() string { return "self" }

func (f *selfHosted) Step(p *Proc) {
	f.steps++
	p.Return()
}

// TestSpawnInAllocatesNothing pins SpawnIn's point: a process started in
// storage its owner already has costs the heap nothing once the start
// queue has grown, runs like any other, answers Name from its root, and
// its Proc may start again once finished — but never while it is live.
func TestSpawnInAllocatesNothing(t *testing.T) {
	e := NewEnv()
	var f selfHosted
	n := testing.AllocsPerRun(100, func() {
		e.SpawnIn(&f.proc, e.Now()+5, "", &f)
		e.Run()
	})
	if n != 0 {
		t.Errorf("SpawnIn and a run to completion allocate %v times, want 0", n)
	}
	if f.steps != 101 || !f.proc.Done() || f.proc.Name() != "self" || f.proc.Env() != e {
		t.Fatalf("%d steps, done %v, named %q: want 101 steps of a finished proc named by its root",
			f.steps, f.proc.Done(), f.proc.Name())
	}
	e.SpawnIn(&f.proc, e.Now(), "", &f)
	defer func() {
		if recover() == nil {
			t.Fatal("SpawnIn into a live proc did not panic")
		}
	}()
	e.SpawnIn(&f.proc, e.Now(), "", &f)
}

// TestPrecedesRunningKey pins what Precedes compares a stamped key
// against: the running event's key, the key a sleep that advanced in
// place would have woken with, RunUntil's deadline, and — once the queue
// is empty — nothing at all. On the running instant a key stamped before
// the activity was scheduled precedes it and one stamped after does not.
func TestPrecedesRunningKey(t *testing.T) {
	e := NewEnv()
	early := e.Stamp()
	if e.Precedes(0, early) {
		t.Error("a key stamped now precedes the instant it was stamped on before anything ran")
	}
	var late uint32
	e.At(10, "reader", func() {
		switch {
		case !e.Precedes(10, early):
			t.Error("at 10: a key stamped before the event was scheduled does not precede it")
		case e.Precedes(10, late):
			t.Error("at 10: a key stamped after the event was scheduled precedes it")
		case !e.Precedes(9, late) || e.Precedes(11, early):
			t.Error("at 10: another instant does not compare by time alone")
		}
	})
	late = e.Stamp()
	var before, after uint32
	e.Spawn("sleeper", Steps(
		func(p *Proc) {
			p.SleepUntil(20) // parks: the reader at 10 is queued
		},
		func(p *Proc) {
			before = e.Stamp()
			if !p.SleepUntil(30) {
				t.Error("the sleep to 30 parked: nothing queued should have stopped it")
				return
			}
			if !e.Precedes(30, before) {
				t.Error("after a sleep advanced in place: a key stamped before the sleep does not precede its would-be wake")
			}
			after = e.Stamp()
			if e.Precedes(30, after) {
				t.Error("after a sleep advanced in place: a key stamped after it precedes the would-be wake")
			}
		}))
	e.RunUntil(30)
	if !e.Precedes(30, after) || e.Precedes(31, after) {
		t.Error("after RunUntil(30): the deadline is not the running key")
	}
	e.Run()
	if !e.Precedes(1<<40, e.Stamp()) {
		t.Error("after Run: a drained loop is not past every key")
	}
}
