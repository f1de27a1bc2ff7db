package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/paperdata"
	"repro/internal/trace"
)

// fastOpts keeps unit-test runtime low; the simulation is deterministic,
// so small iteration counts are stable.
func fastOpts() Options { return Options{Iterations: 6, Warmup: 2} }

// fastReport is RunAll(fastOpts()), measured once per test binary; the
// table tests each read their table from it.
var fastReport = sync.OnceValues(func() (*Report, error) { return RunAll(fastOpts()) })

func report(t *testing.T) *Report {
	t.Helper()
	r, err := fastReport()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTable1Shape(t *testing.T) {
	r := report(t).Table1
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		// ATM must beat Ethernet at every size (the paper's 45-55%).
		if row.B >= row.A {
			t.Errorf("size %d: ATM (%.0f) not faster than Ethernet (%.0f)",
				row.Size, row.B, row.A)
		}
		if row.DecreasePercent < 25 || row.DecreasePercent > 70 {
			t.Errorf("size %d: decrease %.0f%% outside the paper's band (45-55%%, tolerance 25-70)",
				row.Size, row.DecreasePercent)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	r := report(t).Table2
	t.Log("\n" + r.Render())
	// Checksum dominates TCP processing at large sizes.
	b8000 := r.PerSize[8000]
	if b8000.Rows[trace.LayerTCPCksumTx] < b8000.Rows[trace.LayerTCPSegmentTx] {
		t.Error("8000B: checksum should dominate segment processing")
	}
	// The mcopy row must drop between 500 and 1400 bytes (cluster
	// refcount copies), the paper's §2.2.1 nonlinearity.
	if r.PerSize[1400].Rows[trace.LayerTCPMcopy] >= r.PerSize[500].Rows[trace.LayerTCPMcopy] {
		t.Error("mcopy did not drop at the cluster switch (500→1400)")
	}
	// Totals within 2x of the paper at every size.
	for _, size := range Sizes {
		meas := r.PerSize[size].Total
		paper := paperdata.Table2["Total"][size]
		if meas < paper/2 || meas > paper*2 {
			t.Errorf("size %d: transmit total %.0f vs paper %.0f (out of 2x band)",
				size, meas, paper)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	r := report(t).Table3
	t.Log("\n" + r.Render())
	// At 8000 bytes both segments' processing lands after the final
	// arrival: the checksum row must cover two segments (the paper
	// measures 1172 = 2x578) while the ATM row stays at least one
	// segment's worth. (The paper's 1783 ATM row reflects a driver
	// overlap our timeline only partially reproduces; the README's
	// fidelity notes record the deviation.)
	ck4000 := r.PerSize[4000].Rows[trace.LayerTCPCksumRx]
	ck8000 := r.PerSize[8000].Rows[trace.LayerTCPCksumRx]
	if ck8000 < ck4000*1.7 {
		t.Errorf("receive checksum row: 8000B (%.0f) should be ~2x 4000B (%.0f)",
			ck8000, ck4000)
	}
	atm4000 := r.PerSize[4000].Rows[trace.LayerATMRx]
	atm8000 := r.PerSize[8000].Rows[trace.LayerATMRx]
	if atm8000 < atm4000*0.9 {
		t.Errorf("receive ATM row: 8000B (%.0f) collapsed below 4000B (%.0f)",
			atm8000, atm4000)
	}
	// At 8000 bytes the two segments leave back to back (§2.2.1), and in
	// this timeline the driver's per-cell processing of the first segment
	// outlasts the second segment's wire time, so both segments' TCP
	// input — one slow-path (the data+ACK first segment), one fast-path
	// (the final pure-data segment) — lands after the final arrival. The
	// row is therefore bounded by one slow plus one fast input. (The
	// paper's 59 µs reflects TCA-100 DMA/host overlap this model
	// reproduces only partially, the same deviation recorded for the ATM
	// row.)
	seg4000 := r.PerSize[4000].Rows[trace.LayerTCPSegmentRx]
	seg8000 := r.PerSize[8000].Rows[trace.LayerTCPSegmentRx]
	if seg8000 < seg4000 || seg8000 > seg4000*1.7 {
		t.Errorf("receive TCP segment row at 8000B (%.0f) outside [1x, 1.7x] of 4000B (%.0f)",
			seg8000, seg4000)
	}
	for _, size := range Sizes {
		meas := r.PerSize[size].Total
		paper := paperdata.Table3["Total"][size]
		if meas < paper/2 || meas > paper*2 {
			t.Errorf("size %d: receive total %.0f vs paper %.0f (out of 2x band)",
				size, meas, paper)
		}
	}
}

func TestTable4Shape(t *testing.T) {
	r := report(t).Table4
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		// Prediction must never lose, and the improvement must be small
		// (the paper: 0-8%, "basically independent of data size").
		if row.B > row.A {
			t.Errorf("size %d: prediction slower (%.0f vs %.0f)", row.Size, row.B, row.A)
		}
		if row.DecreasePercent > 15 {
			t.Errorf("size %d: prediction improvement %.0f%% implausibly large",
				row.Size, row.DecreasePercent)
		}
	}
}

func TestTable5Values(t *testing.T) {
	r, err := RunTable5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		paper := paperdata.Table5
		within := func(name string, got, want float64) {
			tol := want * 0.25
			if tol < 2 {
				tol = 2
			}
			if got < want-tol || got > want+tol {
				t.Errorf("size %d %s: %.1f vs paper %.1f", row.Size, name, got, want)
			}
		}
		within("ULTRIX checksum", row.ULTRIXChecksum, paper["ULTRIXChecksum"][row.Size])
		within("bcopy", row.ULTRIXBcopy, paper["ULTRIXBcopy"][row.Size])
		within("optimized", row.OptimizedChecksum, paper["OptimizedChecksum"][row.Size])
		within("integrated", row.IntegratedCopyCk, paper["IntegratedCopyCk"][row.Size])
		// Integrated must beat separate at every size.
		if row.IntegratedCopyCk >= row.OptimizedChecksum+row.ULTRIXBcopy {
			t.Errorf("size %d: integrated not faster than separate", row.Size)
		}
	}
}

func TestTable6Crossover(t *testing.T) {
	r := report(t).Table6
	t.Log("\n" + r.Render())
	bys := map[int]CompareRow{}
	for _, row := range r.Rows {
		bys[row.Size] = row
	}
	// Small sizes: combined must LOSE (paper: -22% at 4 bytes).
	if bys[4].DecreasePercent >= 0 {
		t.Error("combined copy+checksum should be slower at 4 bytes")
	}
	// Large sizes: combined must WIN (paper: +21%/+24% at 4000/8000).
	if bys[4000].DecreasePercent <= 0 || bys[8000].DecreasePercent <= 0 {
		t.Error("combined copy+checksum should be faster at 4000/8000 bytes")
	}
	// Break-even between 500 and 1400 bytes.
	if bys[500].DecreasePercent > 5 {
		t.Errorf("500B should be at or below break-even, got %.1f%%", bys[500].DecreasePercent)
	}
	if bys[1400].DecreasePercent < 0 {
		t.Errorf("1400B should be past break-even, got %.1f%%", bys[1400].DecreasePercent)
	}
}

func TestTable7Shape(t *testing.T) {
	r := report(t).Table7
	t.Log("\n" + r.Render())
	var prev float64 = -1
	for _, row := range r.Rows {
		if row.B > row.A {
			t.Errorf("size %d: eliminating the checksum made latency worse", row.Size)
		}
		// Savings must grow with size (paper: 0.1% → 41%); allow a
		// small dip at 8000 where the two-segment pipeline shifts
		// which costs sit on the critical path.
		if row.DecreasePercent < prev-5 {
			t.Errorf("size %d: savings %.1f%% not growing (prev %.1f%%)",
				row.Size, row.DecreasePercent, prev)
		}
		prev = row.DecreasePercent
	}
	last := r.Rows[len(r.Rows)-1]
	if last.DecreasePercent < 25 {
		t.Errorf("8000B saving %.1f%% too small (paper: 41%%)", last.DecreasePercent)
	}
}

func TestPCBExperiment(t *testing.T) {
	r := RunPCBExperiment()
	t.Log("\n" + r.Render())
	// Linear slope near the paper's 1.3 µs/entry.
	if r.PerEntryMicros < 1.0 || r.PerEntryMicros > 1.6 {
		t.Errorf("slope %.2f µs/entry, paper ~1.3", r.PerEntryMicros)
	}
	for _, row := range r.Rows {
		// The hash and cache organizations must be flat and cheap.
		if row.HashMicros > 20 || row.CacheMicros > 20 {
			t.Errorf("entries %d: hash %.1f / cache %.1f µs not constant-time",
				row.Entries, row.HashMicros, row.CacheMicros)
		}
		if row.Entries >= 100 && row.ListMicros <= row.HashMicros {
			t.Errorf("entries %d: list (%.1f) should cost more than hash (%.1f)",
				row.Entries, row.ListMicros, row.HashMicros)
		}
	}
}

func TestPCBPopulationEffect(t *testing.T) {
	rtts, err := PCBPopulationEffect([]int{0, 250, 1000}, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("population→RTT: %v", rtts)
	if !(rtts[0] < rtts[250] && rtts[250] < rtts[1000]) {
		t.Error("RTT should grow with PCB population when prediction is off")
	}
}

func TestSun3Comparison(t *testing.T) {
	r := RunSun3Comparison()
	t.Log("\n" + r.Render())
	if r.Sun3SavingPercent < 30 || r.Sun3SavingPercent > 40 {
		t.Errorf("Sun-3 saving %.0f%%, paper 35%%", r.Sun3SavingPercent)
	}
	if r.DECSavingPercent < 50 || r.DECSavingPercent > 85 {
		t.Errorf("DEC saving %.0f%%, paper 68%%", r.DECSavingPercent)
	}
}

func TestMeasureBreakdownsConsistency(t *testing.T) {
	// Both links: each driver stamps its own wire-arrival events, the
	// receive window's origin.
	for _, link := range []lab.LinkKind{lab.LinkATM, lab.LinkEther} {
		tx, rx, err := MeasureBreakdowns(lab.Config{Link: link}, 200, 4, 1)
		if err != nil {
			t.Fatalf("%v: %v", link, err)
		}
		if tx.Total <= 0 || rx.Total <= 0 {
			t.Fatalf("%v: empty breakdown windows", link)
		}
		// Attributed rows must not exceed the window (no double counting
		// beyond the documented overlap classes).
		sumTx := 0.0
		for _, l := range TxLayers {
			sumTx += tx.Rows[l]
		}
		if sumTx > tx.Total*1.05 {
			t.Errorf("%v: transmit rows (%.0f) exceed window (%.0f)", link, sumTx, tx.Total)
		}
	}
}

func TestTransportComparison(t *testing.T) {
	r, err := RunTransportComparison(cost.ChecksumStandard, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + r.Render())
	for _, row := range r.Rows {
		if row.UDPMicros >= row.TCPMicros {
			t.Errorf("size %d: UDP (%.0f) not faster than TCP (%.0f)",
				row.Size, row.UDPMicros, row.TCPMicros)
		}
		if row.TCPOverheadPct > 100 {
			t.Errorf("size %d: TCP overhead %.0f%% implausibly large",
				row.Size, row.TCPOverheadPct)
		}
	}
}

func TestFiguresRender(t *testing.T) {
	rep := report(t)
	f1 := RenderFigure1(rep.Table4)
	if len(f1) < 100 || !containsAll(f1, "Figure 1", "With Prediction", "#") {
		t.Fatalf("figure 1 render suspect:\n%s", f1)
	}
	f2 := RenderFigure2(rep.Table5)
	if len(f2) < 100 || !containsAll(f2, "Figure 2", "Integrated", "#") {
		t.Fatalf("figure 2 render suspect:\n%s", f2)
	}
}

// TestParallelBitIdentical is the sweep engine's acceptance check at the
// report level: for the same base seed, 8 workers must produce the same
// report as the serial reference — every table, study and sweep cell.
func TestParallelBitIdentical(t *testing.T) {
	serial := Options{Iterations: 5, Warmup: 1, Parallel: 1, BaseSeed: 0x5eed}
	parallel := serial
	parallel.Parallel = 8

	s, err := RunAll(serial)
	if err != nil {
		t.Fatal(err)
	}
	p, err := RunAll(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if sr, pr := s.Render(), p.Render(); sr != pr || !reflect.DeepEqual(s, p) {
		t.Errorf("the report diverged between serial and 8 workers:\n--- serial\n%s\n--- parallel\n%s", sr, pr)
	}
}

// TestPaperGridMeasuredOnce pins the evaluation as one grid: its union is
// 47 distinct echoes — baseline, Ethernet, no-prediction, integrated and
// no-checksum at every size, UDP at the seven it carries — the baseline
// column of Tables 1, 4, 6 and 7 and the transport comparison's TCP column
// read one number per size, and the transport comparison run alone is its
// view of the whole report.
func TestPaperGridMeasuredOnce(t *testing.T) {
	if n := len(distinct(paperGrid())); n != 47 {
		t.Fatalf("the paper grid has %d distinct echoes, want 47", n)
	}
	o := Options{Iterations: 4, Warmup: 1, BaseSeed: 7}
	all, err := RunAll(o)
	if err != nil {
		t.Fatal(err)
	}
	for i, size := range Sizes {
		base := all.Table1.Rows[i].B
		cols := map[string]float64{
			"Table 4": all.Table4.Rows[i].B, "Table 6": all.Table6.Rows[i].A, "Table 7": all.Table7.Rows[i].A,
		}
		if i < len(all.Transport.Rows) {
			cols["transport TCP"] = all.Transport.Rows[i].TCPMicros
		}
		for name, v := range cols {
			if v != base {
				t.Errorf("%dB: %s reads %v, Table 1 %v: the baseline echo measured twice", size, name, v, base)
			}
		}
	}

	alone, err := RunTransportComparison(cost.ChecksumStandard, o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(alone, all.Transport) {
		t.Error("the transport comparison run alone differs from RunAll's view of it")
	}
}

// TestExtendedSweepShape sanity-checks the beyond-paper grid: every cell
// completes, and the MTU and socket-buffer dimensions visibly shift the
// large-transfer cells.
func TestExtendedSweepShape(t *testing.T) {
	outs, err := RunExtendedSweep(Options{Iterations: 4, Warmup: 1})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]float64{}
	for _, o := range outs {
		if o.N == 0 {
			t.Fatalf("cell %s measured nothing", o.Label)
		}
		byLabel[o.Label] = o.MeanMicros
	}
	base := byLabel["ATM/standard/8000B"]
	if base == 0 {
		t.Fatalf("baseline 8000B cell missing; labels: %v", byLabel)
	}
	if v := byLabel["ATM/standard/mtu=1500/8000B"]; v <= base {
		t.Errorf("mtu=1500 cell %.0fµs not above baseline %.0fµs", v, base)
	}
	if v := byLabel["ATM/standard/buf=4096/8000B"]; v <= base {
		t.Errorf("buf=4096 cell %.0fµs not above baseline %.0fµs", v, base)
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		found := false
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
