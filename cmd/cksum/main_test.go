package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-parallel", "2", "-seed", "99"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table 5", "PCB lookup cost", "Sun-3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunSubsets(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-pcb=false", "-sun3=false"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "PCB lookup") || strings.Contains(out, "Sun-3") {
		t.Fatalf("disabled sections rendered:\n%s", out)
	}
	if !strings.Contains(out, "Table 5") {
		t.Fatal("table 5 missing")
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var payload struct {
		Table5 struct {
			Rows []struct{ Size int }
		} `json:"table5"`
		PCB struct {
			PerEntryMicros float64
		} `json:"pcb"`
	}
	if err := json.Unmarshal(buf.Bytes(), &payload); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(payload.Table5.Rows) == 0 || payload.PCB.PerEntryMicros <= 0 {
		t.Fatalf("JSON payload empty: %+v", payload)
	}
}

// TestFlags: a count the command would silently replace — a negative
// -parallel, read as GOMAXPROCS — is refused, naming its flag.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-parallel", "-1"}, Flag: "-parallel"},
		{Args: []string{"-parallel", "0", "-pcb=false", "-sun3=false"}},
	})
}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, nil) }
