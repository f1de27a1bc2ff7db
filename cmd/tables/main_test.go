package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
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

// TestCountFlagsRefused: a count the command would silently replace —
// -iters below 1 (read as the default 100) or a negative -parallel (read
// as GOMAXPROCS) — is refused, naming its flag.
func TestCountFlagsRefused(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-iters", "0"}, Flag: "-iters"},
		{Args: []string{"-iters", "-3"}, Flag: "-iters"},
		{Args: []string{"-parallel", "-1"}, Flag: "-parallel"},
	})
}

func TestRunBadFlag(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-definitely-not-a-flag"}, Flag: "flag provided but not defined: -definitely-not-a-flag"},
	})
}

// TestFlags: an -iters past its ceiling, -figures beside -json, which
// prints no figure, and an unwritable -o are refused naming the flag.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-iters", "1000000000"}, Flag: "-iters"},
		{Args: []string{"-json", "-figures=false"}, Flag: "-figures"},
		{Args: []string{"-o", t.TempDir() + "/missing/report.txt", "-iters", "1"}, Flag: "-o"},
	})
}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, map[string]float64{"iters": 2}) }
