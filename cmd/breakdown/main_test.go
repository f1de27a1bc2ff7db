package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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
	if err := run([]string{"-side", "sideways"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad side accepted")
	}
}

// TestCountFlagsRefused: a count the command would silently replace —
// -iters below 1 (read as the default 100) or a negative
// -parallel (read as GOMAXPROCS) — is refused, naming its flag.
func TestCountFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the refusal; "" = accepted
	}{
		{[]string{"-iters", "0"}, "-iters"},
		{[]string{"-iters", "-3"}, "-iters"},
		{[]string{"-parallel", "-2"}, "-parallel"},
	} {
		var buf bytes.Buffer
		err := run(tc.args, &buf)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("args %v refused: %v", tc.args, err)
		case tc.flag != "" && err == nil:
			t.Errorf("args %v accepted", tc.args)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("args %v: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
}
