package lab

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// echoAllocs runs one 1400-byte ATM echo lab to completion and returns
// how many Go heap allocations it performed.
func echoAllocs(t *testing.T, iters int) uint64 {
	t.Helper()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := New(Config{Link: LinkATM, Seed: 1994})
	res, err := l.RunEcho(1400, iters, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes != 0 {
		// A recycled mbuf or cluster aliasing an in-flight segment would
		// corrupt echoed payloads end to end; zero proves the pool never
		// hands live storage to a new writer under real traffic.
		t.Fatalf("echo corrupted %d times — pool aliasing?", res.CorruptEchoes)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// TestEchoSteadyStateAllocs pins the hot-path overhaul's allocation
// contract end to end: the marginal cost of an extra steady-state echo
// round trip — event scheduling, mbuf traffic, cell segmentation and
// reassembly, trace spans — must stay two orders of magnitude below the
// pre-overhaul ~880 allocations per round trip. The bound (176, an 80%
// drop) is deliberately loose against the measured ~12 so unrelated
// runtime changes do not flake it; a reintroduced per-event or
// per-packet allocation moves the number by hundreds and trips it
// immediately.
func TestEchoSteadyStateAllocs(t *testing.T) {
	short := echoAllocs(t, 8)
	long := echoAllocs(t, 108)
	// Signed: the marginal cost is now zero, and a background allocation
	// during the short run must read as -0.01, not as 2^64/100.
	perRTT := (float64(long) - float64(short)) / 100
	t.Logf("steady-state echo: %.1f allocs per round trip", perRTT)
	if perRTT > 176 {
		t.Fatalf("steady-state echo allocates %.1f per round trip, want <= 176", perRTT)
	}
}

// TestEchoQueueStaysShallow is the depth tripwire for the event queue:
// across 250 steady 8000-byte ATM echoes — ~180 cells each way, a
// retransmit timer re-armed per segment and a delayed-ACK timer per
// arrival — a probe samples the queue every simulated millisecond, and
// nothing it sees may exceed 64 pending events. With one event per cell
// and a dead event per timer re-arm the same run averages ~390 and
// peaks far higher, which is what made the heap the simulator's largest
// cost; a pile-up reintroduced anywhere fails here, not only in the
// benchmark.
func TestEchoQueueStaysShallow(t *testing.T) {
	l := New(Config{Link: LinkATM, Seed: 1994})
	env := l.Env
	peak, samples := 0, 0
	var probe func()
	probe = func() {
		n := env.Pending()
		if n == 0 {
			return // drained: stop probing so the run can end
		}
		samples++
		if n > peak {
			peak = n
		}
		env.After(sim.Millisecond, "test.probe", probe)
	}
	env.After(sim.Millisecond, "test.probe", probe)
	res, err := l.RunEcho(8000, 250, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes != 0 {
		t.Fatalf("echo corrupted %d times", res.CorruptEchoes)
	}
	t.Logf("peak %d pending events over %d samples", peak, samples)
	if samples < 1000 {
		t.Fatalf("only %d samples: the probe stopped before the echoes did", samples)
	}
	if peak > 64 {
		t.Fatalf("peak queue depth %d, want <= 64", peak)
	}
}

// TestOneEventPerCellPerHop is the event-count tripwire beside the depth
// one: 252 round trips of 8000 bytes on the switchless ATM pair are
// ~47,000 cells each way, and a cell costs the event loop its far-end
// arrival and nothing else — "transmit complete" is arithmetic on the
// transmitter's cursor (atm's transmitter), not an event. With a
// completion event per cell as well the same run fired 322,706.
func TestOneEventPerCellPerHop(t *testing.T) {
	l := New(Config{Link: LinkATM, Seed: 1994})
	if _, err := l.RunEcho(8000, 250, 2); err != nil {
		t.Fatal(err)
	}
	cells := l.Hosts[0].ATMAdapter.CellsSent + l.Hosts[1].ATMAdapter.CellsSent
	t.Logf("%d events for %d cells", l.Env.Fired(), cells)
	if n := l.Env.Fired(); n > 210000 {
		t.Fatalf("%d events, want <= 210000", n)
	}
}
