package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

func TestRunBothSides(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-parallel", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Table 3") {
		t.Fatalf("expected both tables, got:\n%s", out)
	}
}

func TestRunTxOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-side", "tx"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || strings.Contains(out, "Table 3") {
		t.Fatalf("expected only the transmit table, got:\n%s", out)
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-side", "rx", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var results []struct {
		Side    string
		PerSize map[string]struct{ Total float64 }
	}
	if err := json.Unmarshal(buf.Bytes(), &results); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(results) != 1 || results[0].Side != "receive" {
		t.Fatalf("unexpected JSON: %+v", results)
	}
	if results[0].PerSize["8000"].Total <= 0 {
		t.Fatal("8000B total missing from JSON")
	}
}

func TestRunBadSide(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{{Args: []string{"-side", "sideways"}, Flag: "-side"}})
}

// TestFlags: a count the command would silently replace — -iters below 1
// (read as the default 100) or a negative -parallel (read as GOMAXPROCS)
// — is refused, naming the flag.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-iters", "0"}, Flag: "-iters"},
		{Args: []string{"-iters", "-3"}, Flag: "-iters"},
		{Args: []string{"-parallel", "-2"}, Flag: "-parallel"},
	})
}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, map[string]float64{"iters": 2}) }
