package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

// chromeFile mirrors the trace_event shape the Chrome/Perfetto loaders
// require: a traceEvents array whose records carry name/ph/ts/pid.
type chromeFile struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		S    string  `json:"s"`
		Args map[string]any
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// checkChrome validates the structural contract of a chrome-format run.
func checkChrome(t *testing.T, out []byte) chromeFile {
	t.Helper()
	var f chromeFile
	if err := json.Unmarshal(out, &f); err != nil {
		t.Fatalf("invalid Chrome trace_event JSON: %v", err)
	}
	if len(f.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	hosts := map[int]bool{}
	var durations, instants int
	for i, e := range f.TraceEvents {
		switch e.Ph {
		case "M":
			hosts[e.Pid] = true
		case "X":
			durations++
			if e.Dur <= 0 {
				t.Fatalf("event %d (%q): ph=X with dur %g", i, e.Name, e.Dur)
			}
		case "i":
			instants++
			if e.S == "" {
				t.Fatalf("event %d (%q): instant without scope", i, e.Name)
			}
		default:
			t.Fatalf("event %d (%q): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Name == "" {
			t.Fatalf("event %d has no name", i)
		}
		if e.Ph != "M" && !hosts[e.Pid] {
			t.Fatalf("event %d (%q) references pid %d with no process_name", i, e.Name, e.Pid)
		}
		if e.Ts < 0 {
			t.Fatalf("event %d (%q): negative ts", i, e.Name)
		}
	}
	if durations == 0 || instants == 0 {
		t.Fatalf("want both duration and instant events, got %d/%d", durations, instants)
	}
	return f
}

func TestEchoChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "echo", "-size", "1400", "-iters", "3",
		"-seed", "1994", "-format", "chrome"}, &buf); err != nil {
		t.Fatal(err)
	}
	f := checkChrome(t, buf.Bytes())
	// The two-host echo must show both hosts' lanes.
	pids := map[int]bool{}
	for _, e := range f.TraceEvents {
		if e.Ph == "M" {
			pids[e.Pid] = true
		}
	}
	if len(pids) != 2 {
		t.Fatalf("echo trace has %d process lanes, want 2", len(pids))
	}
}

func TestFanInChromeTraceValid(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "fanin", "-hosts", "5", "-iters", "2",
		"-seed", "7", "-format", "chrome"}, &buf); err != nil {
		t.Fatal(err)
	}
	f := checkChrome(t, buf.Bytes())
	pids := map[int]bool{}
	for _, e := range f.TraceEvents {
		pids[e.Pid] = true
	}
	if len(pids) != 5 {
		t.Fatalf("fan-in trace has %d process lanes, want 5", len(pids))
	}
}

func TestEchoSpansOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-size", "200", "-iters", "2", "-seed", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	var set struct {
		Packets []struct {
			Label  string `json:"label"`
			Events []struct {
				Kind string `json:"kind"`
			} `json:"events"`
			Spans struct {
				Name     string `json:"name"`
				StartNS  int64  `json:"start_ns"`
				EndNS    int64  `json:"end_ns"`
				Children []struct {
					Name    string `json:"name"`
					StartNS int64  `json:"start_ns"`
					EndNS   int64  `json:"end_ns"`
				} `json:"children"`
			} `json:"spans"`
		} `json:"packets"`
	}
	if err := json.Unmarshal(buf.Bytes(), &set); err != nil {
		t.Fatalf("invalid span JSON: %v", err)
	}
	if len(set.Packets) == 0 {
		t.Fatal("no packets reconstructed")
	}
	sawWire := false
	for _, p := range set.Packets {
		if len(p.Events) == 0 {
			t.Fatalf("packet %s has no events", p.Label)
		}
		root := p.Spans
		if root.EndNS < root.StartNS {
			t.Fatalf("packet %s: inverted root span", p.Label)
		}
		for _, c := range root.Children {
			if c.StartNS < root.StartNS || c.EndNS > root.EndNS {
				t.Fatalf("packet %s: child %q escapes root", p.Label, c.Name)
			}
			if c.Name == "wire" {
				sawWire = true
			}
		}
	}
	if !sawWire {
		t.Fatal("no wire flight in any packet's span tree")
	}
}

func TestDeterministicOutput(t *testing.T) {
	once := func() []byte {
		var buf bytes.Buffer
		if err := run([]string{"-workload", "fanin", "-hosts", "4", "-iters", "2",
			"-seed", "3", "-format", "chrome"}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(once(), once()) {
		t.Fatal("identical invocations produced different bytes")
	}
}

func TestBadFlagValues(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-workload", "nope"}, Flag: "-workload"},
		{Args: []string{"-link", "token-ring"}, Flag: "-link"},
		{Args: []string{"-format", "pcap"}, Flag: "-format"},
		{Args: []string{"-hosts", "1"}, Flag: "-hosts"},
	})
}

// TestCountsBelowOneRefused: a workload generator reads a zero or
// negative count as its own default (-warmup 0 would run eight warm-up
// round trips), so each such value is refused by its flag's name; the
// documented zero defaults, -size 0 and -hosts 0, still run.
func TestCountsBelowOneRefused(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-iters", "0"}, Flag: "-iters"},
		{Args: []string{"-iters", "-3"}, Flag: "-iters"},
		{Args: []string{"-warmup", "0"}, Flag: "-warmup"},
		{Args: []string{"-warmup", "-1"}, Flag: "-warmup"},
		{Args: []string{"-workload", "churn", "-conns", "0"}, Flag: "-conns"},
		{Args: []string{"-workload", "bulk", "-bytes", "0"}, Flag: "-bytes"},
		{Args: []string{"-workload", "bulk", "-bytes", "-5"}, Flag: "-bytes"},
		{Args: []string{"-size", "-1"}, Flag: "-size"},
		{Args: []string{"-size", "0", "-iters", "1", "-warmup", "1"}},
		{Args: []string{"-hosts", "0", "-iters", "1", "-warmup", "1"}},
	})
}

// TestFlags: a flag the workload does not read, and an unwritable -o, are
// refused by the flag's name.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-workload", "echo", "-conns", "5"}, Flag: "-conns"},
		{Args: []string{"-workload", "echo", "-bytes", "7"}, Flag: "-bytes"},
		{Args: []string{"-workload", "fanin", "-warmup", "3"}, Flag: "-warmup"},
		{Args: []string{"-workload", "bulk", "-size", "100"}, Flag: "-size"},
		{Args: []string{"-o", t.TempDir() + "/missing/trace.json"}, Flag: "-o"},
	})
}

var fuzzCaps = map[string]float64{"hosts": 4, "size": 2000, "iters": 2, "warmup": 2, "conns": 2, "bytes": 8192}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, fuzzCaps, "workload") }

func TestWriteToFile(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	var buf bytes.Buffer
	if err := run([]string{"-iters", "2", "-format", "chrome", "-o", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("wrote to stdout despite -o")
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkChrome(t, blob)
	if !strings.HasSuffix(string(blob), "\n") {
		t.Fatal("file not newline-terminated")
	}
}

// goldenChromeSHA256 is the SHA-256 of the 1400-byte traced echo's
// Chrome trace at seed 3; the per-packet event stream is the most
// aliasing-sensitive output the tools produce, so pinning it guards both
// determinism and the mbuf pool's no-aliasing contract.
const goldenChromeSHA256 = "7e1113aedae750c6a0a921f358d3e26b0370516f898fa7f37bbee4e0dc7ecf57"

func TestGoldenChromeByteIdentical(t *testing.T) {
	var buf bytes.Buffer
	args := []string{"-workload", "echo", "-size", "1400", "-iters", "4",
		"-seed", "3", "-format", "chrome"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenChromeSHA256 {
		t.Errorf("output hash %s, want golden %s (simulated results changed)",
			got, goldenChromeSHA256)
	}
}
