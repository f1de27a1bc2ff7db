// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus wall-clock benchmarks of the real checksum routines
// and ablations of the harness design choices documented in README.md's
// fidelity notes. The simulator's own wall-clock tier lives in
// bench_wallclock_test.go (see docs/PERFORMANCE.md).
//
// The table benchmarks report simulated microseconds via b.ReportMetric
// (suffix "sim-µs/..."); ns/op for those measures the simulator itself,
// not the DECstation. Run with:
//
//	go test -bench=. -benchmem
package repro_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/checksum"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchOpts keeps per-iteration cost low; the simulation is deterministic
// so small counts are exact.
var benchOpts = core.Options{Iterations: 10, Warmup: 2}

// benchReport runs the whole evaluation. Tables 1–4, 6 and 7 are views of
// its one grid measurement, so each table benchmark reads its table here.
func benchReport(b *testing.B) *core.Report {
	b.Helper()
	r, err := core.RunAll(benchOpts)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkTable1_ATMvsEthernet regenerates Table 1 and reports the
// 4-byte round-trip times for both links.
func BenchmarkTable1_ATMvsEthernet(b *testing.B) {
	var atm4, eth4 float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table1
		for _, row := range r.Rows {
			if row.Size == 4 {
				eth4, atm4 = row.A, row.B
			}
		}
	}
	b.ReportMetric(atm4, "sim-µs/rtt4B-atm")
	b.ReportMetric(eth4, "sim-µs/rtt4B-ether")
}

// BenchmarkTable2_TransmitBreakdown regenerates the transmit-side
// decomposition and reports the 8000-byte checksum row.
func BenchmarkTable2_TransmitBreakdown(b *testing.B) {
	var ck float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table2
		ck = r.PerSize[8000].Rows[core.TxLayers[1]]
	}
	b.ReportMetric(ck, "sim-µs/cksum8000B")
}

// BenchmarkTable3_ReceiveBreakdown regenerates the receive-side
// decomposition and reports the 4000-byte ATM row.
func BenchmarkTable3_ReceiveBreakdown(b *testing.B) {
	var atm float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table3
		atm = r.PerSize[4000].Rows[core.RxLayers[0]]
	}
	b.ReportMetric(atm, "sim-µs/atmrx4000B")
}

// BenchmarkTable4_HeaderPrediction regenerates Table 4 / Figure 1 and
// reports the 4-byte improvement percentage.
func BenchmarkTable4_HeaderPrediction(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table4
		pct = r.Rows[0].DecreasePercent
	}
	b.ReportMetric(pct, "%improvement-4B")
}

// BenchmarkPCBLookupScaling regenerates the §3 search study and reports
// the fitted per-entry slope (the paper measures ~1.3 µs/entry).
func BenchmarkPCBLookupScaling(b *testing.B) {
	var slope float64
	for i := 0; i < b.N; i++ {
		slope = core.RunPCBExperiment().PerEntryMicros
	}
	b.ReportMetric(slope, "sim-µs/entry")
}

// BenchmarkTable5_CopyChecksum regenerates the user-level copy/checksum
// study (Table 5 / Figure 2) and reports the integrated saving at 8 KB.
func BenchmarkTable5_CopyChecksum(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := core.RunTable5()
		if err != nil {
			b.Fatal(err)
		}
		saving = r.Rows[len(r.Rows)-1].SavingsPercent
	}
	b.ReportMetric(saving, "%savings-8000B")
}

// BenchmarkTable6_IntegratedKernel regenerates Table 6 and reports the
// 8000-byte improvement of the combined copy-and-checksum kernel.
func BenchmarkTable6_IntegratedKernel(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table6
		pct = r.Rows[len(r.Rows)-1].DecreasePercent
	}
	b.ReportMetric(pct, "%improvement-8000B")
}

// BenchmarkTable7_NoChecksum regenerates Table 7 and reports the
// 8000-byte saving from eliminating the checksum.
func BenchmarkTable7_NoChecksum(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		r := benchReport(b).Table7
		pct = r.Rows[len(r.Rows)-1].DecreasePercent
	}
	b.ReportMetric(pct, "%savings-8000B")
}

// --- The sweep engine: serial reference versus the worker pool. ---

// sweepBenchTrials is the 40-cell grid (2 modes × 2 prediction ×
// 5 sizes × 2 socket buffers) with enough per-cell work that sharding
// dominates scheduling overhead.
func sweepBenchTrials() []runner.EchoTrial {
	g := runner.Grid{
		Modes:      []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone},
		NoPred:     []bool{false, true},
		Sizes:      []int{20, 200, 1400, 4000, 8000},
		SockBufs:   []int{0, 8192},
		Iterations: 20,
		Warmup:     2,
	}
	return g.Trials()
}

func benchSweep(b *testing.B, workers int) {
	trials := sweepBenchTrials()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs, err := runner.RunEchoSweep(context.Background(), trials,
			runner.Options{Workers: workers, BaseSeed: 1994})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range outs {
			if o.Error != "" {
				b.Fatalf("cell %s: %s", o.Label, o.Error)
			}
		}
	}
	b.ReportMetric(float64(len(trials)), "cells")
	b.ReportMetric(float64(workersOrMax(workers)), "workers")
}

func workersOrMax(w int) int {
	if w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// BenchmarkSweepSerial is the single-worker reference execution of the
// benchmark grid.
func BenchmarkSweepSerial(b *testing.B) { benchSweep(b, 1) }

// BenchmarkSweepParallel shards the same grid across GOMAXPROCS workers;
// the trials are independent simulations, so ns/op here versus
// BenchmarkSweepSerial shows near-linear speedup on multi-core hardware
// (the outputs are bit-identical either way, asserted by
// TestSerialParallelIdentical and cmd/tcplat's sweep test).
func BenchmarkSweepParallel(b *testing.B) { benchSweep(b, 0) }

// BenchmarkFanIn regenerates the 16-client fan-in cell of the topology
// study under both PCB organizations and reports the mean request
// latency of each — the §3 list-versus-hash prediction measured on a
// live connection population. The gap between the two metrics is the
// demultiplexing cost the hash table erases.
func BenchmarkFanIn(b *testing.B) {
	run := func(hash bool) float64 {
		l := lab.NewTopology(lab.Config{Link: lab.LinkATM, HashPCBs: hash, Seed: 1994}, 17)
		res, err := workload.FanIn{Size: 200, Requests: 8, Warmup: 1}.Run(l)
		if err != nil {
			b.Fatal(err)
		}
		return res.Sample().Mean()
	}
	var list, hash float64
	for i := 0; i < b.N; i++ {
		list = run(false)
		hash = run(true)
	}
	b.ReportMetric(list, "sim-µs/fanin16-list")
	b.ReportMetric(hash, "sim-µs/fanin16-hash")
}

// --- Wall-clock benchmarks of the real routines (Figure 2's shape on the
// machine running the tests; absolute values are of course not the
// DECstation's). ---

func benchBuf(n int) []byte {
	buf := make([]byte, n)
	sim.NewRNG(42).Fill(buf)
	return buf
}

func BenchmarkChecksumULTRIX8000(b *testing.B) {
	buf := benchBuf(8000)
	b.SetBytes(8000)
	var s uint16
	for i := 0; i < b.N; i++ {
		s = checksum.SumULTRIX(buf)
	}
	_ = s
}

func BenchmarkChecksumOptimized8000(b *testing.B) {
	buf := benchBuf(8000)
	b.SetBytes(8000)
	var s uint16
	for i := 0; i < b.N; i++ {
		s = checksum.SumOptimized(buf)
	}
	_ = s
}

func BenchmarkBcopy8000(b *testing.B) {
	buf := benchBuf(8000)
	dst := make([]byte, 8000)
	b.SetBytes(8000)
	for i := 0; i < b.N; i++ {
		copy(dst, buf)
	}
}

func BenchmarkCopyAndSum8000(b *testing.B) {
	// The integrated routine: one pass instead of copy + sum. Its
	// throughput should beat SumOptimized + copy run separately.
	buf := benchBuf(8000)
	dst := make([]byte, 8000)
	b.SetBytes(8000)
	var s uint16
	for i := 0; i < b.N; i++ {
		s = checksum.CopyAndSum(dst, buf)
	}
	_ = s
}

func BenchmarkSeparateCopyThenSum8000(b *testing.B) {
	buf := benchBuf(8000)
	dst := make([]byte, 8000)
	b.SetBytes(8000)
	var s uint16
	for i := 0; i < b.N; i++ {
		copy(dst, buf)
		s = checksum.SumOptimized(dst)
	}
	_ = s
}

// --- Ablations of the harness design choices (README fidelity notes). ---

// BenchmarkAblation_PCBHashVsList contrasts the end-to-end RTT effect of
// the two PCB organizations under a 500-entry table with prediction off —
// quantifying the paper's "a simple hash table implementation could
// eliminate the lookup problem entirely".
func BenchmarkAblation_PCBHashVsList(b *testing.B) {
	run := func(hash bool) float64 {
		cfg := lab.Config{
			Link:              lab.LinkATM,
			DisablePrediction: true,
			LivePCBs:          500,
			HashPCBs:          hash,
		}
		rtt, err := core.MeasureRTT(cfg, 4, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		return rtt
	}
	var list, hash float64
	for i := 0; i < b.N; i++ {
		list = run(false)
		hash = run(true)
	}
	b.ReportMetric(list, "sim-µs/list500")
	b.ReportMetric(hash, "sim-µs/hash500")
}

// BenchmarkAblation_NagleRPC contrasts RPC latency with Nagle on and off;
// single-write RPCs are unaffected, validating that the harness default
// (off) is not distorting the tables.
func BenchmarkAblation_NagleRPC(b *testing.B) {
	var on, off float64
	for i := 0; i < b.N; i++ {
		var err error
		off, err = core.MeasureRTT(lab.Config{Link: lab.LinkATM}, 200, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		on, err = core.MeasureRTT(lab.Config{Link: lab.LinkATM, Nagle: true}, 200, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(off, "sim-µs/nodelay")
	b.ReportMetric(on, "sim-µs/nagle")
}

// BenchmarkAblation_ChecksumModes reports the three kernel checksum
// configurations side by side at 4000 bytes.
func BenchmarkAblation_ChecksumModes(b *testing.B) {
	vals := map[cost.ChecksumMode]float64{}
	for i := 0; i < b.N; i++ {
		for _, m := range []cost.ChecksumMode{
			cost.ChecksumStandard, cost.ChecksumIntegrated, cost.ChecksumNone,
		} {
			rtt, err := core.MeasureRTT(lab.Config{Link: lab.LinkATM, Mode: m}, 4000, benchOpts)
			if err != nil {
				b.Fatal(err)
			}
			vals[m] = rtt
		}
	}
	b.ReportMetric(vals[cost.ChecksumStandard], "sim-µs/standard")
	b.ReportMetric(vals[cost.ChecksumIntegrated], "sim-µs/integrated")
	b.ReportMetric(vals[cost.ChecksumNone], "sim-µs/none")
}

// BenchmarkSimulatorSpeed measures the simulator's own performance: wall
// time per simulated 200-byte round trip, including stack setup.
func BenchmarkSimulatorSpeed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		l := lab.New(lab.Config{Link: lab.LinkATM})
		if _, err := l.RunEcho(200, 10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_TCPvsUDP reports the same echo workload over both
// transports — the extension experiment behind examples/transports.
func BenchmarkAblation_TCPvsUDP(b *testing.B) {
	var tcpRTT, udpRTT float64
	for i := 0; i < b.N; i++ {
		var err error
		tcpRTT, err = core.MeasureRTT(lab.Config{Link: lab.LinkATM}, 200, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		l := lab.New(lab.Config{Link: lab.LinkATM})
		res, err := l.RunUDPEcho(200, benchOpts.Iterations, benchOpts.Warmup)
		if err != nil {
			b.Fatal(err)
		}
		udpRTT = res.MeanRTTMicros()
	}
	b.ReportMetric(tcpRTT, "sim-µs/tcp200B")
	b.ReportMetric(udpRTT, "sim-µs/udp200B")
}
