package lab

import (
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestEchoATMBasic(t *testing.T) {
	l := New(Config{Link: LinkATM})
	res, err := l.RunEcho(4, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	rtt := res.MeanRTTMicros()
	t.Logf("4-byte ATM RTT = %.1f µs", rtt)
	// The paper measures 1021 µs; require the right ballpark.
	if rtt < 500 || rtt > 2000 {
		t.Fatalf("4-byte ATM RTT = %.1f µs, expected ~1000", rtt)
	}
}

func TestEchoATMSizes(t *testing.T) {
	var prev float64
	for _, size := range []int{4, 20, 80, 200, 500, 1400, 4000, 8000} {
		l := New(Config{Link: LinkATM})
		res, err := l.RunEcho(size, 5, 2)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		rtt := res.MeanRTTMicros()
		t.Logf("size %5d: RTT %8.1f µs", size, rtt)
		if rtt <= prev {
			t.Fatalf("RTT not monotonically increasing at size %d", size)
		}
		prev = rtt
	}
}

func TestEchoEther(t *testing.T) {
	l := New(Config{Link: LinkEther})
	res, err := l.RunEcho(4, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	rtt := res.MeanRTTMicros()
	t.Logf("4-byte Ethernet RTT = %.1f µs", rtt)
	if rtt < 1000 || rtt > 4000 {
		t.Fatalf("4-byte Ethernet RTT = %.1f µs, expected ~1940", rtt)
	}
}

func TestEchoDataIntegrity(t *testing.T) {
	// The harness itself verifies the echoed bytes arrive; run a larger
	// multi-segment case over both links.
	for _, link := range []LinkKind{LinkATM, LinkEther} {
		l := New(Config{Link: link})
		if _, err := l.RunEcho(8000, 3, 1); err != nil {
			t.Fatalf("%v: %v", link, err)
		}
	}
}

func TestEchoDeterminism(t *testing.T) {
	run := func() []sim.Time {
		l := New(Config{Link: LinkATM, Seed: 42})
		res, err := l.RunEcho(200, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.RTTs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEchoChecksumModes(t *testing.T) {
	rtt := func(m cost.ChecksumMode, size int) float64 {
		l := New(Config{Link: LinkATM, Mode: m})
		res, err := l.RunEcho(size, 5, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanRTTMicros()
	}
	std := rtt(cost.ChecksumStandard, 8000)
	none := rtt(cost.ChecksumNone, 8000)
	integ := rtt(cost.ChecksumIntegrated, 8000)
	t.Logf("8000B: standard %.0f, integrated %.0f, none %.0f", std, integ, none)
	if !(none < integ && integ < std) {
		t.Fatalf("expected none < integrated < standard at 8000 bytes: %0.f %0.f %0.f",
			none, integ, std)
	}
	// At 4 bytes the integrated path must LOSE (the paper's -22%).
	std4 := rtt(cost.ChecksumStandard, 4)
	integ4 := rtt(cost.ChecksumIntegrated, 4)
	t.Logf("4B: standard %.0f, integrated %.0f", std4, integ4)
	if integ4 <= std4 {
		t.Fatal("integrated mode should be slower at 4 bytes")
	}
}

func TestEchoCellLossRecovery(t *testing.T) {
	l := New(Config{Link: LinkATM, Seed: 7, BurstLoss: sim.GEParams{LossGood: 0.001}})
	res, err := l.RunEcho(4000, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRTT() <= 0 {
		t.Fatal("no RTTs measured")
	}
	errs := l.Client.ATMDriver.ReassemblyErrors + l.Server.ATMDriver.ReassemblyErrors
	drops := l.Client.ATMAdapter.CellsDropped + l.Server.ATMAdapter.CellsDropped
	t.Logf("drops=%d reassembly errors=%d retransmits=%d",
		drops, errs, l.Client.TCP.Stats.Retransmits+l.Server.TCP.Stats.Retransmits)
	if drops == 0 {
		t.Skip("no cells dropped at this seed; loss injection untested")
	}
	// All 30 echoes completed despite loss: recovery works by definition
	// of reaching here.
}

func TestUDPEcho(t *testing.T) {
	l := New(Config{Link: LinkATM})
	res, err := l.RunUDPEcho(200, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes != 0 {
		t.Fatal("UDP echo corrupted")
	}
	rtt := res.MeanRTTMicros()
	t.Logf("200-byte UDP RTT = %.1f µs", rtt)
	if rtt <= 0 || rtt > 2000 {
		t.Fatalf("implausible UDP RTT %.1f", rtt)
	}
	// UDP must beat TCP for the same workload.
	l2 := New(Config{Link: LinkATM})
	tcpRes, err := l2.RunEcho(200, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rtt >= tcpRes.MeanRTTMicros() {
		t.Fatalf("UDP (%.0f) not faster than TCP (%.0f)", rtt, tcpRes.MeanRTTMicros())
	}
}

// TestUDPEchoSizeLimit: on each link the largest payload one datagram
// carries echoes, and one byte more is refused with ErrDatagramTooLarge
// instead of reaching ip_output, which panics on a datagram over the MTU
// (a 1480-byte echo on Ethernet did).
// TestPacketEventsAreTheMeasuredWindow: a traced echo reports the
// measured window as a span of time, cut the way Tables 2–3 cut theirs.
// No reported event starts before the first measured write, and each
// host's CPU time per layer is what BreakdownFromEvents finds in that
// host's own recorder from that instant to the end of the run — so a
// charge the server's busy CPU queued before the window opened counts
// for the part inside it, and a warmup segment's arrival is not reported.
// An 8000-byte ATM echo is the case where both happen.
func TestPacketEventsAreTheMeasuredWindow(t *testing.T) {
	l := New(Config{Link: LinkATM, PacketTrace: true})
	res, err := l.RunEcho(8000, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	start := res.Windows[0].WriteStart
	type row struct {
		host  string
		layer trace.Layer
	}
	got := make(map[row]sim.Time)
	for _, e := range l.PacketEvents() {
		if e.At < start {
			t.Fatalf("%s %s on %s at %d ns, before the first measured write at %d ns",
				e.Kind, e.Layer, e.Host, e.At, start)
		}
		if e.Kind == trace.EvCPU && e.Dur > 0 {
			got[row{e.Host, e.Layer}] += e.Dur
		}
	}
	want := make(map[row]sim.Time)
	for _, h := range l.Hosts {
		for layer, d := range trace.BreakdownFromEvents(h.Trace().Events(), start, sim.MaxTime) {
			want[row{h.Kern.Name(), layer}] = d
		}
	}
	for r, d := range want {
		if got[r] != d {
			t.Errorf("%s %s: %d ns in PacketEvents, %d ns in its recorder's window", r.host, r.layer, got[r], d)
		}
	}
	for r, d := range got {
		if _, ok := want[r]; !ok {
			t.Errorf("%s %s: %d ns in PacketEvents, none in its recorder's window", r.host, r.layer, d)
		}
	}
}

func TestUDPEchoSizeLimit(t *testing.T) {
	for _, link := range []LinkKind{LinkATM, LinkEther} {
		l := New(Config{Link: link})
		limit := l.MTU() - 28 // IP and UDP headers
		if link == LinkEther && limit != 1472 {
			t.Fatalf("Ethernet carries %d-byte UDP payloads, want 1472", limit)
		}
		if _, err := l.RunUDPEcho(limit+1, 4, 1); !errors.Is(err, ErrDatagramTooLarge) {
			t.Errorf("%v: a %d-byte echo: %v, want ErrDatagramTooLarge", link, limit+1, err)
		}
		res, err := l.RunUDPEcho(limit, 4, 1)
		if err != nil || res.CorruptEchoes != 0 {
			t.Errorf("%v: a %d-byte echo: %v, %+v", link, limit, err, res)
		}
	}
}

func TestEchoVerifiesPayload(t *testing.T) {
	// Controller flips with the checksum eliminated must be counted by
	// the harness (and only then).
	l := New(Config{Link: LinkATM, Mode: cost.ChecksumNone, Seed: 3})
	var s sim.FaultSchedule
	for i := 0; i < 4; i++ { // payload bits of the datagrams each host receives next
		s = append(s, sim.FaultEvent{At: sim.Time(i+2) * sim.Millisecond, Kind: sim.FaultControllerFlip, Host: i % 2, Bit: 8 * (40 + 100*i)})
	}
	if err := l.ScheduleFaults(s); err != nil {
		t.Fatal(err)
	}
	res, err := l.RunEcho(500, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes == 0 {
		t.Fatal("harness failed to detect corrupted echoes")
	}
	l2 := New(Config{Link: LinkATM, Seed: 3})
	res2, err := l2.RunEcho(500, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CorruptEchoes != 0 {
		t.Fatal("clean run reported corruption")
	}
}

func TestWireCorruptionRecovered(t *testing.T) {
	// Wire noise: the HEC and the AAL CRC drop cells, TCP retransmits,
	// zero corrupt echoes regardless of checksum mode.
	for _, mode := range []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone} {
		l := New(Config{Link: LinkATM, Mode: mode, Seed: 5})
		if err := l.ScheduleFaults(flips(sim.FaultWireFlip, 8, 33*424)); err != nil {
			t.Fatal(err)
		}
		res, err := l.RunEcho(1400, 40, 0)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.CorruptEchoes != 0 {
			t.Fatalf("%v: corruption reached the application", mode)
		}
		if n := l.Client.ATMAdapter.CellsCorrupted + l.Server.ATMAdapter.CellsCorrupted; n != 8 {
			t.Fatalf("%v: %d cells flipped, want 8", mode, n)
		}
	}
}

func TestMedianRTT(t *testing.T) {
	l := New(Config{Link: LinkATM})
	res, err := l.RunEcho(4, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	med := res.MedianRTTMicros()
	if med <= 0 || med > res.MeanRTTMicros()*2 {
		t.Fatalf("median %.1f implausible vs mean %.1f", med, res.MeanRTTMicros())
	}
}

func TestHashPCBConfig(t *testing.T) {
	// End to end: with 800 PCBs and no prediction, the hash-table
	// organization erases the list-search penalty exactly. Each of a
	// round trip's 2 lookups walks past the 800 entries to the benchmark
	// connection's own, 801 × 1.3 µs past the list's fixed cost, where
	// the hash table pays its fixed cost alone.
	rtts := func(hash bool) []sim.Time {
		l := New(Config{Link: LinkATM, DisablePrediction: true, LivePCBs: 800, HashPCBs: hash})
		res, err := l.RunEcho(4, 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.RTTs
	}
	list, hash := rtts(false), rtts(true)
	m := cost.DECstation5000()
	want := 2 * (m.PCBLookupFixed + 801*m.PCBLookupPerEntry - m.PCBHashLookup)
	for i := range list {
		if d := list[i] - hash[i]; d != want {
			t.Errorf("round trip %d: list %v, hash %v: the hash saves %v, want %v", i, list[i], hash[i], d, want)
		}
	}
}

func TestEtherEchoDeterminism(t *testing.T) {
	run := func() sim.Time {
		l := New(Config{Link: LinkEther, Seed: 9})
		res, err := l.RunEcho(1400, 5, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanRTT()
	}
	if run() != run() {
		t.Fatal("Ethernet echo not deterministic")
	}
}

func TestTopologyTwoHostAliases(t *testing.T) {
	l := New(Config{Link: LinkATM})
	if len(l.Hosts) != 2 || l.Client != l.Hosts[0] || l.Server != l.Hosts[1] {
		t.Fatal("two-host lab does not alias Hosts[0]/Hosts[1]")
	}
	if l.Switch != nil {
		t.Fatal("two-host ATM lab should use the switchless fiber")
	}
	if HostAddr(0) != ClientAddr || HostAddr(1) != ServerAddr {
		t.Fatal("HostAddr disagrees with the two-host constants")
	}
}

func TestTopologyEchoThroughSwitch(t *testing.T) {
	// The echo pair still works when it reaches its peer through the
	// switch of a larger topology; the switch adds fabric latency, so
	// the RTT must exceed the switchless fiber's.
	direct := New(Config{Link: LinkATM})
	dres, err := direct.RunEcho(200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	l := NewTopology(Config{Link: LinkATM}, 4)
	if l.Switch == nil {
		t.Fatal("4-host ATM topology missing its switch")
	}
	res, err := l.RunEcho(200, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptEchoes != 0 {
		t.Fatal("echo through the switch corrupted")
	}
	if res.MeanRTT() <= dres.MeanRTT() {
		t.Fatalf("switched RTT %v not above switchless %v", res.MeanRTT(), dres.MeanRTT())
	}
	if l.Switch.CellsSwitched == 0 {
		t.Fatal("echo cells did not traverse the switch")
	}
}

func TestTopologyEtherSharedSegment(t *testing.T) {
	l := NewTopology(Config{Link: LinkEther}, 3)
	if l.Segment == nil || l.Segment.NumStations() != 3 {
		t.Fatal("3-host Ethernet topology not on one shared segment")
	}
	if _, err := l.RunEcho(200, 3, 1); err != nil {
		t.Fatal(err)
	}
	// Unicast filtering: the third host must see none of the echo pair's
	// frames.
	if got := l.Hosts[2].EthAdapter.FramesRecv; got != 0 {
		t.Fatalf("bystander station received %d frames", got)
	}
}

func TestLivePCBPopulationSlowsLookup(t *testing.T) {
	// Each live entry ahead of the benchmark connection slows
	// demultiplexing with prediction off: 400 of them add 2 lookups ×
	// 400 entries × 1.3 µs to every round trip.
	rtts := func(live int) []sim.Time {
		l := New(Config{Link: LinkATM, DisablePrediction: true, LivePCBs: live})
		res, err := l.RunEcho(4, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		return res.RTTs
	}
	base, populated := rtts(0), rtts(400)
	want := 2 * 400 * cost.DECstation5000().PCBLookupPerEntry
	for i := range base {
		if d := populated[i] - base[i]; d != want {
			t.Errorf("round trip %d: 0 PCBs %v, 400 PCBs %v: the population adds %v, want %v", i, base[i], populated[i], d, want)
		}
	}
}

func TestMTUBelowFloorRefused(t *testing.T) {
	// Config.MTU below MinMTU cannot hold the protocol headers; the lab
	// must refuse it, naming the field, instead of building a stack whose
	// MSS is zero or negative — on construction and on Reset alike. The
	// floor itself runs.
	var ce *ConfigError
	if _, err := NewCluster(Config{Link: LinkATM, MTU: MinMTU - 1}, 2, 1); !errors.As(err, &ce) || ce.Field != "MTU" {
		t.Fatalf("NewCluster with MTU %d: %v, want a ConfigError naming MTU", MinMTU-1, err)
	}
	l := New(Config{Link: LinkATM, MTU: MinMTU})
	if _, err := l.RunEcho(200, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset(Config{Link: LinkATM, MTU: MinMTU - 1}, 0); !errors.As(err, &ce) || ce.Field != "MTU" {
		t.Fatalf("Reset to MTU %d: %v, want a ConfigError naming MTU", MinMTU-1, err)
	}
}
