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

// TestRunJSON decodes the report's tables: both breakdowns (Tables 2 and
// 3) with an 8000-byte total, all eight Table 5 rows, the §3 slope and the
// §4.1 comparison.
func TestRunJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-iters", "3", "-json"}, &buf); err != nil {
		t.Fatal(err)
	}
	type breakdown struct {
		Side    string
		PerSize map[string]struct{ Total float64 }
	}
	var rep struct {
		Table1 struct {
			Rows []struct {
				Size int
				A, B float64
			}
		}
		Table2, Table3 breakdown
		Table5         struct{ Rows []struct{ Size int } }
		PCB            struct{ PerEntryMicros float64 }
		Sun3           map[string]float64
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Table1.Rows) == 0 || rep.Table1.Rows[0].A <= 0 {
		t.Fatalf("JSON report empty: %+v", rep)
	}
	for side, b := range map[string]breakdown{"transmit": rep.Table2, "receive": rep.Table3} {
		if b.Side != side {
			t.Errorf("breakdown side %q, want %q", b.Side, side)
		}
		if b.PerSize["8000"].Total <= 0 {
			t.Errorf("%s breakdown: 8000B total missing from JSON", side)
		}
	}
	if len(rep.Table5.Rows) != 8 {
		t.Errorf("Table 5 has %d rows, want 8", len(rep.Table5.Rows))
	}
	if rep.PCB.PerEntryMicros <= 0 {
		t.Errorf("PCB per-entry slope %v, want > 0", rep.PCB.PerEntryMicros)
	}
	if len(rep.Sun3) == 0 {
		t.Error("Sun-3 comparison missing from JSON")
	}
}

// goldenTablesSHA256 is the SHA-256 of `tables -json -iters 3 -seed 7`,
// captured on the pre-overhaul (PR 3) tree. The wall-clock hot-path
// overhaul (ISSUE 4) promised byte-identical simulated results; this
// hash pins that promise for every future change, at any worker count.
// Re-captured twice since: when the §3 study became one (the live
// population's): the report lost its PCBLive object and PCB its Live
// key, and no other byte moved; and when every impairment draw moved onto
// per-link and per-host streams, and cell loss onto the loss chain: the
// Errors rows and the Extended grid's loss cells moved, and no other
// section; and when the §4.2.1 study became one run for every single-bit
// flip of its request: the Errors section moved, and no other.
const goldenTablesSHA256 = "67f7cdadcc3028a6a643093d4f44a5c926004220ed853609ab759c727908faeb"

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
