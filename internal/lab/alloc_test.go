package lab_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/sim"
)

// echoAllocs runs one echo lab, over TCP or UDP, to completion and
// returns how many Go heap allocations it performed.
func echoAllocs(t *testing.T, cfg lab.Config, size int, udp bool, iters int) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	l := lab.New(cfg)
	run := l.RunEcho
	if udp {
		run = l.RunUDPEcho
	}
	res, err := run(size, iters, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes != 0 {
		// A recycled mbuf, cluster or arena buffer aliasing an in-flight
		// datagram would corrupt echoed payloads end to end; zero proves
		// the pools never hand live storage to a new writer under real
		// traffic.
		t.Fatalf("echo corrupted %d times — pool aliasing?", res.CorruptEchoes)
	}
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// steadyStateAllocs is the marginal allocation count of one echo round
// trip: the allocations of a 108-iteration run less those of an
// 8-iteration one, over the 100 extra round trips, so that topology setup
// and warmup cancel exactly. It holds the collector off across the two
// counted runs, after one uncounted run: a GC cycle empties the
// sync.Pools, and refilling one inside either run would be the whole
// number.
func steadyStateAllocs(t *testing.T, cfg lab.Config, size int, udp bool) float64 {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	echoAllocs(t, cfg, size, udp, 8)
	short := echoAllocs(t, cfg, size, udp, 8)
	long := echoAllocs(t, cfg, size, udp, 108)
	// Signed: a stray allocation during the short run must read as
	// -0.01, not as 2^64/100.
	return (float64(long) - float64(short)) / 100
}

// TestEchoSteadyStateAllocs pins the hot-path allocation contract end to
// end: an extra steady-state echo round trip — event scheduling, mbuf
// traffic, cell segmentation and reassembly or framing, socket buffers,
// trace spans — allocates nothing (880 over TCP before the hot-path
// overhaul; 2 over UDP when udp_input copied each datagram into a fresh
// slice). The rows span the sweep grid's axes: sizes from one cell to a
// multi-segment transfer, the three checksum modes, an 8 KB socket
// buffer, header prediction off, Ethernet, and the UDP twin, whose
// datagram waits on the endpoint's queue as its mbuf chain and is copied
// out at recvfrom into an arena checkout the receiver releases. Packet
// tracing records events, so its row grows the recorder's buffer.
func TestEchoSteadyStateAllocs(t *testing.T) {
	atm := lab.Config{Link: lab.LinkATM, Seed: 1994}
	for _, row := range []struct {
		name string
		cfg  lab.Config
		size int
		udp  bool
		max  float64
	}{
		{name: "tcp/20", cfg: atm, size: 20},
		{name: "tcp/1400", cfg: atm, size: 1400},
		{name: "tcp/4000", cfg: atm, size: 4000},
		{name: "tcp/8000", cfg: atm, size: 8000},
		{name: "tcp/8000/cksum-none", cfg: lab.Config{Link: lab.LinkATM, Seed: 1994, Mode: cost.ChecksumNone}, size: 8000},
		{name: "tcp/8000/cksum-integrated", cfg: lab.Config{Link: lab.LinkATM, Seed: 1994, Mode: cost.ChecksumIntegrated}, size: 8000},
		{name: "tcp/8000/sockbuf-8192", cfg: lab.Config{Link: lab.LinkATM, Seed: 1994, SockBuf: 8192}, size: 8000},
		{name: "tcp/1400/nopred", cfg: lab.Config{Link: lab.LinkATM, Seed: 1994, DisablePrediction: true}, size: 1400},
		{name: "tcp/1400/ether", cfg: lab.Config{Link: lab.LinkEther, Seed: 1994}, size: 1400},
		{name: "tcp/8000/ether", cfg: lab.Config{Link: lab.LinkEther, Seed: 1994}, size: 8000},
		{name: "udp/1400", cfg: atm, size: 1400, udp: true},
		// Nothing a packet: a packet ID rides on its sim.Proc tag by
		// value. The 0.04 is the recorder's event buffer, which keeps
		// every event and so grows with the run: the long run grows it
		// four more times than the short one.
		{name: "tcp/1400/traced", cfg: lab.Config{Link: lab.LinkATM, Seed: 1994, PacketTrace: true}, size: 1400, max: 0.04},
	} {
		t.Run(row.name, func(t *testing.T) {
			bound := row.max
			if raceEnabled {
				bound += 0.1 // the race runtime's own, now and then: 0.06 seen once in ~370 row runs
			}
			perRTT := steadyStateAllocs(t, row.cfg, row.size, row.udp)
			t.Logf("%.2f allocs per round trip", perRTT)
			if perRTT > bound {
				t.Fatalf("a steady-state round trip allocates %.2f, want <= %v", perRTT, bound)
			}
		})
	}
}

// TestEchoQueueStaysShallow is the depth tripwire for the event queue:
// across 250 steady 8000-byte ATM echoes — ~180 cells each way, a
// retransmit timer re-armed per segment and a delayed-ACK timer per
// arrival — a probe samples the queue every simulated millisecond, and
// nothing it sees may exceed 16 pending events. With one event per cell
// and a dead event per timer re-arm the same run averaged ~390 and
// peaked far higher, which is what made the heap the simulator's largest
// cost; with an event per arriving cell it peaked at 34, with one per
// frame end at 9, and with contended sleeps served in place, their wakes
// no longer queued, it peaks at 8. A pile-up reintroduced anywhere fails
// here, not only in the benchmark.
func TestEchoQueueStaysShallow(t *testing.T) {
	l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1994})
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
	if peak > 16 {
		t.Fatalf("peak queue depth %d, want <= 16", peak)
	}
}

// TestOneEventPerCellPerHop is the event-count tripwire beside the depth
// one: 252 round trips of 8000 bytes on the switchless ATM pair are
// ~47,000 cells each way, and a cell costs the event loop nothing unless
// the receiving host could notice it arrive — in this run, only the cell
// that ends a frame, so one arrival event per frame end. "Transmit
// complete" is arithmetic on the transmitter's cursor, and a quiet cell
// waits in the transmit queue until the receiver reads or its frame's
// end arrives (atm's Adapter.LaunchTx). The same run fired 322,706 events
// with a completion event per cell as well, 204,760 with an arrival
// event per cell, and 49,522 with a wake event for every sleep that had
// to wait; it fires 27,299 now that such a sleep serves the events ahead
// of its wake on its own stack.
func TestOneEventPerCellPerHop(t *testing.T) {
	l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1994})
	if _, err := l.RunEcho(8000, 250, 2); err != nil {
		t.Fatal(err)
	}
	cells := l.Hosts[0].ATMAdapter.CellsSent + l.Hosts[1].ATMAdapter.CellsSent
	t.Logf("%d events for %d cells", l.Env.Fired(), cells)
	if n := l.Env.Fired(); n > 52000 {
		t.Fatalf("%d events, want <= 52000", n)
	}
}
