package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkTable1_ATMvsEthernet-8   	       1	  51724260 ns/op	       470.1 sim-µs/rtt4B-atm	       894.7 sim-µs/rtt4B-ether
BenchmarkTable4_HeaderPrediction-8	       1	  49000000 ns/op	         3.100 %improvement-4B
BenchmarkSweepParallel-8          	       1	 860884515 ns/op	        40.00 cells	         8.000 workers
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkTable1_ATMvsEthernet/sim-µs/rtt4B-atm":   470.1,
		"BenchmarkTable1_ATMvsEthernet/sim-µs/rtt4B-ether": 894.7,
		"BenchmarkTable4_HeaderPrediction/%improvement-4B": 3.1,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d metrics (%v), want %d", len(got), got, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestWriteThenCompareClean(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	var out bytes.Buffer
	if err := run([]string{"-write", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-baseline", path}, strings.NewReader(sampleBench), &out); err != nil {
		t.Fatalf("clean comparison failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0 failures") {
		t.Fatalf("unexpected summary:\n%s", out.String())
	}
}

func TestCompareFlagsDrift(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := run([]string{"-write", path}, strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	drifted := strings.Replace(sampleBench, "470.1", "520.3", 1)
	var out bytes.Buffer
	err := run([]string{"-baseline", path}, strings.NewReader(drifted), &out)
	if err == nil {
		t.Fatalf("drift not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DRIFT") ||
		!strings.Contains(out.String(), "rtt4B-atm") {
		t.Fatalf("drift report missing:\n%s", out.String())
	}
}

func TestCompareFlagsMissing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "base.json")
	if err := run([]string{"-write", path}, strings.NewReader(sampleBench), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	truncated := strings.SplitAfter(sampleBench, "rtt4B-ether\n")[0] + "PASS\n"
	var out bytes.Buffer
	if err := run([]string{"-baseline", path}, strings.NewReader(truncated), &out); err == nil {
		t.Fatalf("missing metric not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("missing report absent:\n%s", out.String())
	}
}

func TestEmptyInputRejected(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("empty bench output accepted")
	}
}

const sampleWallclock = `goos: linux
goarch: amd64
pkg: repro
BenchmarkWallclockSweepSerial-8   	       2	 288152656 ns/op	     28791 allocs/run	        40.00 cells	         1.000 workers	33812764 B/op	   28784 allocs/op
BenchmarkWallclockEchoSteady-8    	       2	  20063557 ns/op	        12.21 allocs/rtt	 2755016 B/op	    1696 allocs/op
BenchmarkSweepSerial-8            	       2	 289856962 ns/op	        40.00 cells	   28787 allocs/op
PASS
`

func TestParseWallclock(t *testing.T) {
	got, err := parseWallclock(strings.NewReader(sampleWallclock))
	if err != nil {
		t.Fatal(err)
	}
	// Only the Wallclock tier counts, B/op is gated alongside the
	// allocation counts, ns/op is bench/'s to claim and allocs/op the
	// census goldens': neither is read here.
	want := map[string]float64{
		"BenchmarkWallclockSweepSerial/B/op":       33812764,
		"BenchmarkWallclockSweepSerial/allocs/run": 28791,
		"BenchmarkWallclockEchoSteady/allocs/rtt":  12.21,
		"BenchmarkWallclockEchoSteady/B/op":        2755016,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d metrics (%v), want %d", len(got), got, len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

// echoSteadyLine is the allocs/rtt every baseline the tier writes must
// carry.
const echoSteadyLine = "BenchmarkWallclockEchoSteady-2   	       2	  20063557 ns/op	         0 allocs/rtt	   53544 B/op	      87 allocs/op\n"

// sampleSharded is the 10k fan-in pair's output shape.
const sampleSharded = `goos: linux
BenchmarkWallclockFanIn10k-2   	       1	2400000000 ns/op	       108.0 peak-heap-MB	370000000 B/op	 2000000 allocs/op
BenchmarkWallclockFanIn10kSharded-2   	       1	1560000000 ns/op	   3800012 allocs/run	       108.0 peak-heap-MB	      5549 handoffs	    879574 rounds	470000000 B/op	 3800000 allocs/op
` + echoSteadyLine + `PASS
`

func TestShardedRoundsMetricGated(t *testing.T) {
	got, err := parseWallclock(strings.NewReader(sampleSharded))
	if err != nil {
		t.Fatal(err)
	}
	if got["BenchmarkWallclockFanIn10kSharded/rounds"] != 879574 {
		t.Fatalf("rounds not parsed as a gated metric: %v", got)
	}
	if got["BenchmarkWallclockFanIn10kSharded/handoffs"] != 5549 {
		t.Fatalf("handoffs not parsed as a gated metric: %v", got)
	}
	// Rounds are deterministic: a 30% swing means the horizon algorithm
	// changed, which must force a deliberate re-baseline.
	path := filepath.Join(t.TempDir(), "wall.json")
	if err := run([]string{"-wallclock", "-write", path},
		strings.NewReader(sampleSharded), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	swollen := strings.ReplaceAll(sampleSharded, "879574 rounds", "1143446 rounds")
	var out bytes.Buffer
	if err := run([]string{"-wallclock", "-baseline", path},
		strings.NewReader(swollen), &out); err == nil {
		t.Fatalf("30%% round-count swing not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DRIFT") || !strings.Contains(out.String(), "rounds") {
		t.Fatalf("rounds drift report missing:\n%s", out.String())
	}
}

func TestWallclockMetaRecordedAndExcluded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wall.json")
	if err := run([]string{"-wallclock", "-write", path},
		strings.NewReader(sampleSharded), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "meta/peak_heap_mb") || strings.Contains(string(b), "ns/op") ||
		strings.Contains(string(b), "gomaxprocs") {
		t.Fatalf("baseline must carry the peak heap and nothing about the machine's speed:\n%s", b)
	}
	// A run on different hardware (other GOMAXPROCS, other ns/op) and one
	// that never measured the peak heap both compare clean: the meta key
	// never counts as two-sided drift or as missing.
	other := strings.ReplaceAll(strings.ReplaceAll(sampleSharded, "-2 ", "-8 "), "00000 ns/op", "12345 ns/op")
	noPeak := strings.ReplaceAll(sampleSharded, "108.0 peak-heap-MB", "")
	for _, in := range []string{other, noPeak} {
		var out bytes.Buffer
		if err := run([]string{"-wallclock", "-baseline", path}, strings.NewReader(in), &out); err != nil {
			t.Fatalf("must compare clean: %v\n%s", err, out.String())
		}
		if strings.Contains(out.String(), "meta/") {
			t.Errorf("meta keys leaked into the drift comparison:\n%s", out.String())
		}
	}
}

func TestWallclockToleranceBands(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wall.json")
	if err := run([]string{"-wallclock", "-write", path},
		strings.NewReader(sampleWallclock), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A 3x ns/op swing is not this gate's business.
	slower := strings.Replace(sampleWallclock, "288152656", "864457968", 1)
	var out bytes.Buffer
	if err := run([]string{"-wallclock", "-baseline", path},
		strings.NewReader(slower), &out); err != nil {
		t.Fatalf("an ns/op swing should pass: %v\n%s", err, out.String())
	}
	// So is one in allocs/op: where the tier allocates is the census
	// goldens' to pin.
	out.Reset()
	if err := run([]string{"-wallclock", "-baseline", path},
		strings.NewReader(strings.Replace(sampleWallclock, "   28784 allocs/op", "   37419 allocs/op", 1)), &out); err != nil {
		t.Fatalf("an allocs/op swing should pass: %v\n%s", err, out.String())
	}
	// A 30% allocs/run regression breaks the tight allocation band.
	leaky := strings.Replace(sampleWallclock, "28791 allocs/run", "37428 allocs/run", 1)
	out.Reset()
	err := run([]string{"-wallclock", "-baseline", path}, strings.NewReader(leaky), &out)
	if err == nil {
		t.Fatalf("allocation regression not detected:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "DRIFT") ||
		!strings.Contains(out.String(), "allocs/run") {
		t.Fatalf("drift report missing:\n%s", out.String())
	}
}

func TestWallclockWriteRejectsMissingAllocs(t *testing.T) {
	// Input without allocs/rtt — part of the tier run, or none of it —
	// would write a baseline that disables the steady-state gate, so it
	// must refuse, allocs/op or not.
	for _, in := range []string{
		"BenchmarkWallclockFanIn10kSharded-8   2   288152656 ns/op   5549 handoffs\nPASS\n",
		"BenchmarkWallclockFanIn16-8   2   8000000 ns/op   495168 B/op   474 allocs/op\nPASS\n",
	} {
		path := filepath.Join(t.TempDir(), "wall.json")
		err := run([]string{"-wallclock", "-write", path},
			strings.NewReader(in), &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "allocs/rtt") {
			t.Fatalf("wallclock baseline without allocs/rtt accepted: %v", err)
		}
		if _, statErr := os.Stat(path); statErr == nil {
			t.Fatal("baseline file written despite rejection")
		}
	}
}

// sampleScale is the 10k fan-in scale benchmark's output shape: B/op
// rides the gate with its own band and peak-heap-MB lands in the
// baseline as machine metadata.
const sampleScale = `goos: linux
BenchmarkWallclockFanIn10k-2   	       1	31000000000 ns/op	        62.00 peak-heap-MB	 9800000000 B/op	  61000000 allocs/op
` + echoSteadyLine + `PASS
`

func TestWallclockBytesBandAndPeakHeapMeta(t *testing.T) {
	got, err := parseWallclock(strings.NewReader(sampleScale))
	if err != nil {
		t.Fatal(err)
	}
	if got["meta/peak_heap_mb"] != 62 {
		t.Fatalf("peak-heap-MB not recorded as metadata: %v", got)
	}
	if got["BenchmarkWallclockFanIn10k/B/op"] != 9800000000 {
		t.Fatalf("B/op not parsed: %v", got)
	}

	path := filepath.Join(t.TempDir(), "wall.json")
	if err := run([]string{"-wallclock", "-write", path},
		strings.NewReader(sampleScale), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	// A 25% B/op swing stays inside the default 35% band.
	swung := strings.Replace(sampleScale, " 9800000000 B/op", "12250000000 B/op", 1)
	var out bytes.Buffer
	if err := run([]string{"-wallclock", "-baseline", path},
		strings.NewReader(swung), &out); err != nil {
		t.Fatalf("25%% B/op swing should pass: %v\n%s", err, out.String())
	}
	// A 2x B/op regression — per-request latency retention creeping back
	// in — breaks it.
	bloated := strings.Replace(sampleScale, " 9800000000 B/op", "19600000000 B/op", 1)
	out.Reset()
	if err := run([]string{"-wallclock", "-baseline", path},
		strings.NewReader(bloated), &out); err == nil {
		t.Fatalf("2x B/op regression not detected:\n%s", out.String())
	}
	// -tol-bytes widens the band explicitly.
	out.Reset()
	if err := run([]string{"-wallclock", "-tol-bytes", "0.6", "-baseline", path},
		strings.NewReader(bloated), &out); err != nil {
		t.Fatalf("-tol-bytes=0.6 should admit the 2x swing (rel diff 0.5): %v\n%s", err, out.String())
	}
	// Peak heap is what the program retains after a forced GC, not a
	// property of the runner: a fall is a note (the baseline predates a
	// saving), a rise within the B/op band is a note, a rise beyond it is
	// drift — and -tol-bytes is the band.
	for _, tc := range []struct {
		mb    string
		args  []string
		drift bool
	}{
		{"41.00", nil, false},
		{"70.00", nil, false},
		{"91.00", nil, false}, // rel diff 0.32
		{"99.00", nil, true},  // rel diff 0.37
		{"99.00", []string{"-tol-bytes", "0.6"}, false},
	} {
		other := strings.Replace(sampleScale, "62.00 peak-heap-MB", tc.mb+" peak-heap-MB", 1)
		out.Reset()
		args := append([]string{"-wallclock", "-baseline", path}, tc.args...)
		err := run(args, strings.NewReader(other), &out)
		if tc.drift {
			if err == nil || !strings.Contains(out.String(), "DRIFT   meta/peak_heap_mb: 99 vs baseline 62") {
				t.Errorf("peak heap %s MB %v: a rise past the band must be drift: %v\n%s", tc.mb, tc.args, err, out.String())
			}
			continue
		}
		if err != nil {
			t.Errorf("peak heap %s MB %v must be non-fatal: %v\n%s", tc.mb, tc.args, err, out.String())
		}
		want := "note: baseline meta/peak_heap_mb=62 but this run has " + strings.TrimSuffix(tc.mb, ".00")
		if !strings.Contains(out.String(), want) || strings.Contains(out.String(), "DRIFT") {
			t.Errorf("peak heap %s MB %v: want a note and no drift:\n%s", tc.mb, tc.args, out.String())
		}
	}
}

// TestFlags: a tolerance the mode does not read, a baseline a -write does
// not compare against, a negative or NaN tolerance, and a baseline or
// output path that cannot be used are refused naming the flag.
func TestFlags(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing", "base.json")
	run := func(args []string, w io.Writer) error { return run(args, strings.NewReader(sampleBench), w) }
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-wallclock", "-tol", "0.01"}, Flag: "-tol"},
		{Args: []string{"-tol-bytes", "0.5"}, Flag: "-tol-bytes"},
		{Args: []string{"-write", missing, "-baseline", "BENCH_baseline.json"}, Flag: "-baseline"},
		{Args: []string{"-tol", "-0.1"}, Flag: "-tol"},
		{Args: []string{"-tol", "NaN"}, Flag: "-tol"},
		{Args: []string{"-baseline", missing}, Flag: "-baseline"},
		{Args: []string{"-write", missing}, Flag: "-write"},
	})
}

// FuzzFlags reads both tiers' sample output and compares against an empty
// baseline, which every run passes: what is left to fail is the flags.
// The baseline is set only where a -write does not make it moot.
func FuzzFlags(f *testing.F) {
	base := filepath.Join(f.TempDir(), "base.json")
	if err := os.WriteFile(base, []byte("{}"), 0o644); err != nil {
		f.Fatal(err)
	}
	clitest.Fuzz(f, &flags, func(args []string, w io.Writer) error {
		if !strings.Contains(strings.Join(args, " "), "-write=") {
			args = append([]string{"-baseline", base}, args...)
		}
		return run(args, strings.NewReader(sampleBench+sampleWallclock), w)
	}, nil, "wallclock", "write")
}
