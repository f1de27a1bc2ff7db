package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

func TestRunSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-size", "200", "-iters", "4", "-warmup", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "ATM/standard/200B") {
		t.Fatalf("missing cell row:\n%s", out)
	}
}

func TestRunSweepParallelMatchesSerial(t *testing.T) {
	args := []string{"-sweep", "-iters", "3", "-warmup", "1", "-seed", "42"}
	var serial, parallel bytes.Buffer
	if err := run(append(args, "-parallel", "1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(append(args, "-parallel", "8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Fatalf("sweep output diverged between worker counts:\n--- serial\n%s\n--- parallel\n%s",
			serial.String(), parallel.String())
	}
}

func TestRunExtGridJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-grid", "ext", "-iters", "3", "-warmup", "1", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var outs []struct {
		Label  string  `json:"label"`
		MeanUS float64 `json:"mean_us"`
	}
	if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(outs) != 36 {
		t.Fatalf("extended grid produced %d cells, want 36", len(outs))
	}
	for _, o := range outs {
		if o.MeanUS <= 0 {
			t.Fatalf("cell %s measured nothing", o.Label)
		}
	}
}

func TestRunBadArgs(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-link", "tokenring"}, Flag: "-link"},
		{Args: []string{"-mode", "double"}, Flag: "-mode"},
		{Args: []string{"-grid", "bogus"}, Flag: "-grid"},
		{Args: []string{"-loss", "1.5"}, Flag: "-loss"},
		{Args: []string{"-loss", "NaN"}, Flag: "-loss"},
		{Args: []string{"-link", "ether", "-loss", "0.5"}, Flag: "-loss"},
		{Args: []string{"-size", "-1"}, Flag: "-size"},
		{Args: []string{"-pcbs", "-5"}, Flag: "-pcbs"},
	})
}

// TestFlags: a flag the selected mode does not read, and a count the
// command would silently replace — -iters below 1 (read as the default
// 100), a negative -warmup (run as 0) or a negative -parallel (read as
// GOMAXPROCS) — are refused, naming the flag. -iters 1000000000 asked the
// runtime for 24 GB up front and died out of memory; -size 0 echoed
// nothing and waited forever.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-size", "0"}, Flag: "-size"},
		{Args: []string{"-iters", "0"}, Flag: "-iters"},
		{Args: []string{"-iters", "-1"}, Flag: "-iters"},
		{Args: []string{"-iters", "1000000000", "-warmup", "0"}, Flag: "-iters"},
		{Args: []string{"-warmup", "-1"}, Flag: "-warmup"},
		{Args: []string{"-parallel", "-1"}, Flag: "-parallel"},
		{Args: []string{"-sweep", "-size", "200"}, Flag: "-size"},
		{Args: []string{"-grid", "paper", "-size", "200"}, Flag: "-size"},
		{Args: []string{"-grid", "ext", "-sweep"}, Flag: "-sweep"},
		{Args: []string{"-grid", "paper", "-link", "ether"}, Flag: "-link"},
		{Args: []string{"-size", "4", "-iters", "1", "-warmup", "0", "-parallel", "0"}},
	})
}

var fuzzCaps = map[string]float64{"iters": 2, "warmup": 1, "size": 2000, "pcbs": 20}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, fuzzCaps, "grid", "sweep") }
