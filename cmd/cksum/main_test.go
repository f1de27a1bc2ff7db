package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
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

// TestCountFlagsRefused: a count the command would silently replace —
// a negative -parallel, read as GOMAXPROCS — is refused, naming its flag.
func TestCountFlagsRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string // named in the refusal; "" = accepted
	}{
		{[]string{"-parallel", "-1"}, "-parallel"},
		{[]string{"-parallel", "0", "-pcb=false", "-sun3=false"}, ""},
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
