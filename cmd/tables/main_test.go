package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"
)

func TestRunText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-parallel", "4", "-seed", "7"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4 / Figure 1",
		"Table 5", "Table 6", "Table 7",
		"PCB lookup cost", "Sun-3", "beyond-paper sweep",
		"Figure 1", "Figure 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Table1 struct {
			Rows []struct {
				Size int
				A, B float64
			}
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Table1.Rows) == 0 || rep.Table1.Rows[0].A <= 0 {
		t.Fatalf("JSON report empty: %+v", rep)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// goldenTablesSHA256 is the SHA-256 of `tables -json -iters 3 -seed 7`,
// captured on the pre-overhaul (PR 3) tree. The wall-clock hot-path
// overhaul (ISSUE 4) promised byte-identical simulated results; this
// hash pins that promise for every future change, at any worker count.
// Re-captured once since, when the §3 study became one (the live
// population's): the report lost its PCBLive object and PCB its Live
// key, and no other byte moved.
const goldenTablesSHA256 = "9584f097c9323d04b259e0d6b19252e3ba872d0f622d9aa45724666064301974"

func TestGoldenJSONByteIdentical(t *testing.T) {
	for _, parallel := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{"-json", "-iters", "3", "-seed", "7", "-parallel", parallel}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenTablesSHA256 {
			t.Errorf("-parallel %s: output hash %s, want golden %s (simulated results changed)",
				parallel, got, goldenTablesSHA256)
		}
	}
}
