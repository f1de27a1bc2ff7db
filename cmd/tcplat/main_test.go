package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
	for _, args := range [][]string{
		{"-link", "tokenring"},
		{"-mode", "double"},
		{"-grid", "bogus"},
		{"-loss", "1.5"},
		{"-loss", "NaN"},
		{"-link", "ether", "-loss", "0.5"},
		{"-size", "-1"},
		{"-pcbs", "-5"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
