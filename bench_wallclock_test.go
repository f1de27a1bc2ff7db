// Wall-clock benchmarks of the simulator itself — the tier behind
// BENCH_wallclock.json. Where bench_test.go reports *simulated*
// microseconds (exact, machine-independent, gated by benchdiff's strict
// tolerance), this file reports how allocation-hungry the simulator is:
// B/op, allocs/rtt, barrier rounds and peak heap for the sweep engine,
// the fan-in topology, and the traced and untraced echo paths, and
// allocs/run where no cmd/alloccensus golden runs the configuration.
// Those are gated; the ns/op and allocs/op columns `go test` prints
// beside them are for reading while working — where a workload allocates
// is the census goldens' to pin, and wall-clock claims are bench/'s. The
// gated numbers move when the event loop, the mbuf pool, or the trace
// engine changes — and must NOT move any sim-µs metric, which is exactly
// what `make benchdiff` plus `make bench-wallclock` together enforce (see
// docs/PERFORMANCE.md).
//
// Run with:
//
//	go test -run='^$' -bench=Wallclock -benchmem .
package repro_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// BenchmarkWallclockSweepSerial is the wall-clock cost of the 40-cell
// benchmark grid (sweepBenchTrials) on one worker — the reference
// number the ISSUE-4 hot-path overhaul is measured against.
func BenchmarkWallclockSweepSerial(b *testing.B) {
	b.ReportAllocs()
	defer reportAllocsPerRun(b, mallocs())
	benchSweep(b, 1)
}

// BenchmarkWallclockFanIn16 builds the 17-host ATM topology and runs the
// 16-client fan-in once per op — the per-packet hot path under live
// demultiplexing pressure.
func BenchmarkWallclockFanIn16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 1994}, 17)
		if _, err := (workload.FanIn{Size: 200, Requests: 4, Warmup: 1}).Run(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWallclockEchoTraced runs the 1400-byte echo with per-packet
// event recording armed, measuring what tracing costs in host time (it
// charges no simulated time; TestPacketTraceDoesNotPerturbTiming).
func BenchmarkWallclockEchoTraced(b *testing.B) {
	b.ReportAllocs()
	defer reportAllocsPerRun(b, mallocs())
	for i := 0; i < b.N; i++ {
		l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1994, PacketTrace: true})
		if _, err := l.RunEcho(1400, 16, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWallclockFanInLoaded is the loaded-tier hot path: the
// 16-client fan-in with every switch egress port behind RED,
// Gilbert–Elliott burst loss armed on every link, and two heavy-tailed
// cross-traffic flows contending for the server's egress. Its ns/op
// prices what the impairment layer costs per run — RED's EWMA update
// and drop lottery per cell arrival, the GE chain's two draws per cell,
// the cross flows' extra connections. The unloaded FanIn16 number
// above is the control: work on the loaded path must not move it.
func BenchmarkWallclockFanInLoaded(b *testing.B) {
	b.ReportAllocs()
	cfg := lab.Config{Link: lab.LinkATM, Seed: 1994,
		Qdisc:     lab.QdiscConfig{Kind: lab.QdiscRED},
		BurstLoss: sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
	}
	gen := workload.FanIn{Size: 200, Requests: 4, Warmup: 1,
		Cross: &workload.CrossTraffic{Flows: 2}}
	for i := 0; i < b.N; i++ {
		l := lab.NewTopology(cfg, 17)
		if _, err := gen.Run(l); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWallclockFanIn10k is the scale benchmark the routed-fabric
// and streaming-statistics work exists for: 10,000 clients against one
// server on a fat-tree fabric, VCs installed on demand, per-request
// latencies folded into constant-memory aggregates, client starts
// staggered 5ms apart — above the server CPU's ~3.5ms per-connection
// service time — so the run measures traffic rather than
// SYN-retransmission collapse. Besides ns/op it reports peak-heap-MB —
// live heap after the run — which benchdiff carries into the baseline's
// metadata: the number that blows up if per-pair VC state or per-request
// latency retention ever creeps back in.
func BenchmarkWallclockFanIn10k(b *testing.B) { benchFanIn10k(b, 1) }

// BenchmarkWallclockFanIn10kSharded is the 10,000-client fan-in driven
// through the 4-shard cluster executor: identical simulated results
// (the sharded bit-identity tests pin this) from four per-partition
// event loops synchronized under conservative lookahead, their windows
// run in turn on one goroutine. Its ns/op against
// BenchmarkWallclockFanIn10k prices the barrier. "rounds" (barrier
// rounds a run) is deterministic and says so on every run; see
// docs/PERFORMANCE.md §11.
func BenchmarkWallclockFanIn10kSharded(b *testing.B) { benchFanIn10k(b, 4) }

// benchFanIn10k is the one body of both 10k benchmarks: the serial run is
// the one-shard cluster.
func benchFanIn10k(b *testing.B, shards int) {
	b.ReportAllocs()
	if shards > 1 { // the serial run is the fanin golden's configuration
		defer reportAllocsPerRun(b, mallocs())
	}
	gen := workload.FanIn{
		Size:     200,
		Requests: 1,
		Warmup:   0,
		Stagger:  5000 * sim.Microsecond,
		Stats:    stats.Config{Streaming: true},
	}
	cfg := lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}
	var peak uint64
	for i := 0; i < b.N; i++ {
		c, err := lab.NewCluster(cfg, 10001, shards)
		if err != nil {
			b.Fatal(err)
		}
		res, err := gen.Run(c.Lab)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != 10000 {
			b.Fatalf("completed %d of 10000 requests", res.Requests)
		}
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if m.HeapAlloc > peak {
			peak = m.HeapAlloc
		}
		if r := c.Rounds(); r > 0 { // one shard has no barrier
			b.ReportMetric(float64(r), "rounds")
		}
		runtime.KeepAlive(c)
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
}

// mallocs returns the heap allocations the process has made.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// reportAllocsPerRun reports as "allocs/run" the heap allocations made
// since mallocs() read m0, a loop iteration at a time: the allocation
// count benchdiff gates for a configuration no cmd/alloccensus golden
// runs.
func reportAllocsPerRun(b *testing.B, m0 uint64) {
	b.ReportMetric(float64(mallocs()-m0)/float64(b.N), "allocs/run")
}

// echoMallocs runs one 1400-byte echo lab to completion and returns the
// number of heap allocations it performed.
func echoMallocs(b *testing.B, iters int) uint64 {
	m0 := mallocs()
	l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1994})
	if _, err := l.RunEcho(1400, iters, 2); err != nil {
		b.Fatal(err)
	}
	return mallocs() - m0
}

// BenchmarkWallclockEchoSteady measures the steady-state echo round
// trip: the marginal allocations between a 108-iteration and an
// 8-iteration run, divided by the 100 extra round trips, so topology
// setup and warmup cancel out exactly. The "allocs/rtt" metric is the
// one the mbuf pool and event-loop overhaul drive toward zero; ns/op
// times the 108-iteration run. The collector is held off across the two
// counted runs, after one uncounted run: every GC cycle empties the
// sync.Pools (fmt's printers among them), refilling one is three
// allocations, and with the marginal count at or near zero a cycle
// landing before or inside either run would be the whole gated number.
// With the pools warm and no cycle the count repeats exactly.
func BenchmarkWallclockEchoSteady(b *testing.B) {
	b.ReportAllocs()
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	echoMallocs(b, 8)
	short := echoMallocs(b, 8)
	long := echoMallocs(b, 108)
	debug.SetGCPercent(gcPercent)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1994})
		if _, err := l.RunEcho(1400, 108, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Signed: at zero marginal allocations one stray malloc in the short
	// run must read as -0.01, not wrap.
	b.ReportMetric((float64(long)-float64(short))/100, "allocs/rtt")
}
