package kern

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

func newKernel() (*sim.Env, *Kernel) {
	env := sim.NewEnv()
	k := New(env, cost.DECstation5000(), "host")
	k.Trace.EnablePackets() // an armed recorder keeps every charge
	return env, k
}

// charges returns the EvCPU events k recorded.
func charges(k *Kernel) []trace.Event {
	var out []trace.Event
	for _, e := range k.Trace.Events() {
		if e.Kind == trace.EvCPU {
			out = append(out, e)
		}
	}
	return out
}

func TestUseAdvancesBusyCursor(t *testing.T) {
	env, k := newKernel()
	env.Spawn("p", sim.Steps(func(p *sim.Proc) {
		// With nothing else queued both charges complete inline: the CPU
		// charge is an ordinary function call, no park, no wake event.
		if !k.Use(p, trace.LayerIPTx, 100*sim.Microsecond) {
			t.Error("uncontended charge parked")
		}
		if !k.Use(p, trace.LayerIPTx, 50*sim.Microsecond) {
			t.Error("second charge parked")
		}
	}))
	env.Run()
	// Back-to-back charges to one layer are recorded as one event (the
	// recorder extends the previous charge when the next abuts it).
	cpu := charges(k)
	if len(cpu) != 1 {
		t.Fatalf("charges = %v", cpu)
	}
	if cpu[0].At != 0 || cpu[0].End() != 150*sim.Microsecond {
		t.Fatalf("charges cover [%v,%v], want [0,150us]", cpu[0].At, cpu[0].End())
	}
	if k.BusyUntil() != cpu[0].End() {
		t.Fatalf("BusyUntil = %v", k.BusyUntil())
	}
}

func TestUseSerializesAcrossProcs(t *testing.T) {
	env, k := newKernel()
	env.Spawn("a", sim.Steps(func(p *sim.Proc) {
		k.Use(p, trace.LayerIPTx, 200*sim.Microsecond)
	}))
	env.Spawn("b", sim.Steps(func(p *sim.Proc) {
		k.Use(p, trace.LayerIPRx, 10*sim.Microsecond)
	}))
	env.Run()
	// b spawned second at t=0: its charge must start when a's ends.
	var endA, startB sim.Time = -1, -1
	for _, e := range charges(k) {
		switch e.Layer {
		case trace.LayerIPTx:
			endA = e.End()
		case trace.LayerIPRx:
			startB = e.At
		}
	}
	if startB != endA {
		t.Fatalf("b started at %v, a ended at %v: CPU not serialized", startB, endA)
	}
}

func TestNegativeChargePanics(t *testing.T) {
	env, k := newKernel()
	env.Spawn("p", sim.Steps(func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative charge did not panic")
			}
		}()
		k.Use(p, trace.LayerIPTx, -1)
	}))
	env.Run()
}

func TestSleepOnChargesWakeup(t *testing.T) {
	env, k := newKernel()
	wq := env.NewWaitQueue("w")
	var resumed sim.Time
	env.Spawn("sleeper", sim.Steps(
		func(p *sim.Proc) { k.SleepOn(p, wq) },
		func(p *sim.Proc) { resumed = env.Now() },
	))
	env.Spawn("waker", sim.Steps(
		func(p *sim.Proc) { p.Sleep(1 * sim.Millisecond) },
		func(p *sim.Proc) { wq.Wake() },
	))
	env.Run()
	want := 1*sim.Millisecond + k.Cost.Wakeup
	if resumed != want {
		t.Fatalf("resumed at %v, want %v", resumed, want)
	}
	found := false
	for _, e := range charges(k) {
		if e.Layer == trace.LayerWakeup && e.Dur == k.Cost.Wakeup {
			found = true
		}
	}
	if !found {
		t.Fatal("Wakeup charge not recorded")
	}
}

func TestAllocChargeAndFreeChainCost(t *testing.T) {
	// The allocation idiom after the run-to-completion redesign: charge
	// the CPU with Use, then perform the pool operation inline.
	env, k := newKernel()
	env.Spawn("p", sim.Steps(func(p *sim.Proc) {
		k.Use(p, trace.LayerUserTx, k.Cost.MbufAlloc)
		m := k.Pool.Alloc()
		k.Use(p, trace.LayerUserTx, k.Cost.ClusterAlloc)
		c := k.Pool.AllocCluster()
		m.SetNext(c)
		if cst := k.FreeChainCost(m); cst > 0 {
			k.Use(p, trace.LayerMbuf, cst)
		}
		k.Pool.Free(m)
	}))
	env.Run()
	st := k.Pool.Stats
	if st.MbufAllocs != 2 || st.MbufFrees != 2 || st.ClusterAllocs != 1 || st.ClusterFrees != 1 {
		t.Fatalf("stats %+v", st)
	}
	if k.BusyUntil() != k.Cost.MbufAlloc+k.Cost.ClusterAlloc+2*k.Cost.MbufFree {
		t.Fatalf("charge total %v", k.BusyUntil())
	}
}

func TestFreeChainCostNilIsZero(t *testing.T) {
	_, k := newKernel()
	if c := k.FreeChainCost(nil); c != 0 {
		t.Fatalf("FreeChainCost(nil) = %v, want 0", c)
	}
}

func TestMbufAllocFreeCostMatchesPaper(t *testing.T) {
	// §2.2.1: "the measured time to allocate and free an mbuf ... is
	// just over 7µs".
	m := cost.DECstation5000()
	got := m.MbufAllocFree().Micros()
	if got < 7.0 || got > 7.5 {
		t.Fatalf("mbuf alloc+free = %.2fµs, paper says just over 7", got)
	}
}
