package main

import (
	"bytes"
	"go/build"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/cmd/internal/cli/clitest"
)

const sampleDoc = "# Title\n" +
	"Inline: `go run ./cmd/tcplat -sweep` and also `go run ./cmd/pkttrace`.\n" +
	"Not a command: `-link ether` or `make tables`.\n" +
	"```sh\n" +
	"go run ./cmd/tables -iters 100 -parallel 8   # full report\n" +
	"go run ./cmd/load -workload fanin -hosts 17 -json > /dev/null\n" +
	"make test\n" +
	"```\n" +
	"```go\n" +
	"fmt.Println(\"go run ./cmd/fake\") // prose, but starts mid-line so skipped\n" +
	"```\n" +
	"And `go run ./cmd/docscheck -list` must never recurse.\n"

func TestExtractCommands(t *testing.T) {
	got := extractCommands(sampleDoc)
	want := []string{
		"go run ./cmd/tcplat -sweep",
		"go run ./cmd/pkttrace",
		"go run ./cmd/tables -iters 100 -parallel 8",
		"go run ./cmd/load -workload fanin -hosts 17 -json > /dev/null",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extractCommands:\n got %q\nwant %q", got, want)
	}
}

// TestQuotedCommandsExist: every `go run` target the docs quote — piped
// ones included — and every smokeFlags key is a main package, so a stale
// quote of a removed command fails here rather than only in docs-check,
// which runs every quote.
func TestQuotedCommandsExist(t *testing.T) {
	const root = "../.."
	files, err := markdownFiles([]string{root + "/README.md", root + "/docs"})
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]string{}
	for path := range smokeFlags {
		targets[path] = "smokeFlags"
	}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range extractCommands(string(blob)) {
			fields := strings.Fields(c)
			for i := 0; i+1 < len(fields); i++ {
				if fields[i] != "go" || fields[i+1] != "run" {
					continue
				}
				j := i + 2 // the target follows go run's own flags
				for j < len(fields) && strings.HasPrefix(fields[j], "-") {
					j++
				}
				if j < len(fields) {
					targets[fields[j]] = f
				}
			}
		}
	}
	if len(targets) <= len(smokeFlags) {
		t.Fatalf("no `go run` targets found in %d files", len(files))
	}
	for path, where := range targets {
		pkg, err := build.ImportDir(filepath.Join(root, path), 0)
		if err != nil || pkg.Name != "main" {
			t.Errorf("%s quotes `go run %s`, which is not a command (%v)", where, path, err)
		}
	}
}

func TestCommandArgsSmokeAndRedirects(t *testing.T) {
	got := commandArgs("go run ./cmd/tables -iters 100 -parallel 8", true)
	want := []string{"go", "run", "./cmd/tables", "-iters", "100", "-parallel", "8",
		"-iters", "2", "-parallel", "2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("smoke args = %q, want %q", got, want)
	}
	got = commandArgs("go run ./cmd/pkttrace -size 1400 > /dev/null", true)
	want = []string{"go", "run", "./cmd/pkttrace", "-size", "1400", "-iters", "2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("redirect args = %q, want %q", got, want)
	}
	// No smoke entry: command passes through minus redirections.
	got = commandArgs("go run ./examples/sweep | head", false)
	want = []string{"go", "run", "./examples/sweep"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pipe args = %q, want %q", got, want)
	}
}

func TestListModeAgainstRepoDocs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "DOC.md")
	if err := os.WriteFile(path, []byte(sampleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-list", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"go run ./cmd/tcplat -sweep -iters 2 -warmup 1",
		"go run ./cmd/tables -iters 100 -parallel 8 -iters 2 -parallel 2",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	if bytes.Contains([]byte(out), []byte("docscheck -list")) {
		t.Fatal("docscheck would recurse into itself")
	}
}

func TestNoCommandsIsAnError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "EMPTY.md")
	if err := os.WriteFile(path, []byte("nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-list", path}, &buf); err == nil {
		t.Fatal("empty doc set accepted")
	}
}

const sampleProfileDoc = "# Profiling\n" +
	"```sh\n" +
	"go test -run TestPaperGridMeasuredOnce -cpuprofile cpu.out -memprofile=mem.out ./internal/core\n" +
	"go tool pprof -top cpu.out\n" +
	"```\n" +
	"Inline: `go test ./internal/core -run TimelineStudy -v`.\n"

func TestExtractGoTestCommands(t *testing.T) {
	got := extractCommands(sampleProfileDoc)
	want := []string{
		"go test -run TestPaperGridMeasuredOnce -cpuprofile cpu.out -memprofile=mem.out ./internal/core",
		"go test ./internal/core -run TimelineStudy -v",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extractCommands:\n got %q\nwant %q", got, want)
	}
}

func TestSmokeTestArgs(t *testing.T) {
	// Profiles, in either flag spelling, land in the temp dir.
	got := commandArgs("go test -run TestPaperGridMeasuredOnce -cpuprofile cpu.out -memprofile=mem.out ./internal/core", true)
	want := []string{"go", "test", "-run", "TestPaperGridMeasuredOnce",
		"-cpuprofile", filepath.Join(os.TempDir(), "cpu.out"),
		"-memprofile=" + filepath.Join(os.TempDir(), "mem.out"), "./internal/core"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("profile smoke args:\n got %q\nwant %q", got, want)
	}
	// A plain -run selection executes as written.
	got = commandArgs("go test ./internal/core -run TimelineStudy -v", true)
	want = []string{"go", "test", "./internal/core", "-run", "TimelineStudy", "-v"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("plain test args:\n got %q\nwant %q", got, want)
	}
}

func TestDriftedTestNameFails(t *testing.T) {
	// A documented -run selection that matches nothing must fail even
	// though `go test` itself exits 0 with "[no tests to run]".
	err := execute([]string{"go", "test", "repro/internal/pcb",
		"-run", "NoSuchTestEver"}, 2*time.Minute, true)
	if err == nil {
		t.Fatal("zero-match test selection accepted")
	}
	if !strings.Contains(err.Error(), "matched no tests") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The same selection with a real test passes.
	if err := execute([]string{"go", "test", "repro/internal/pcb",
		"-run", "TestLookupExact"}, 2*time.Minute, true); err != nil {
		t.Fatalf("real selection failed: %v", err)
	}
}

// TestTrajectoryTable renders the table from a miniature repository: the
// second column is the last ledger by name at the first one's seed, a
// fresh quote passes, a stale one fails with the table it should be, and
// a document without the marks is not the table's business.
func TestTrajectoryTable(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"BENCHMARK.json":                   `{"workloads":[{"name":"w"}],"end_to_end":[{"name":"wall_s"}]}`,
		"bench/samples/ledger-first.json":  `{"meta":{"git_commit":"aaaaaaaaaa","seed":1},"workloads":{"w":{"samples":{"wall_s":[3,1,2]}}}}`,
		"bench/samples/ledger-b.json":      `{"meta":{"git_commit":"bbbbbbbbbb","seed":1},"workloads":{"w":{"samples":{"wall_s":[1,1]}}}}`,
		"bench/samples/ledger-seed7.json":  `{"meta":{"git_commit":"cccccccccc","seed":7},"workloads":{"w":{"samples":{"wall_s":[9]}}}}`,
		"bench/samples/compare-first-b.md": "not a ledger",
	}
	for name, body := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	table, err := trajectoryTable(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"`ledger-first.json` (aaaaaaa)", "`ledger-b.json` (bbbbbbb)",
		"| `w` | `wall_s` | 2 | 1 | 0.50 |"} {
		if !strings.Contains(table, want) {
			t.Errorf("table lacks %q:\n%s", want, table)
		}
	}
	fresh := "intro\n" + trajectoryBegin + "\n" + table + trajectoryEnd + "\noutro\n"
	if err := checkTrajectory(fresh, root); err != nil {
		t.Errorf("fresh quote refused: %v", err)
	}
	stale := strings.Replace(fresh, "| 0.50 |", "| 0.75 |", 1)
	if err := checkTrajectory(stale, root); err == nil || !strings.Contains(err.Error(), "| 0.50 |") {
		t.Errorf("stale quote: %v, want a refusal quoting the table as it should read", err)
	}
	if err := checkTrajectory("no marks here", filepath.Join(root, "nowhere")); err != nil {
		t.Errorf("a document without the marks: %v", err)
	}
}

// TestDataLinks: a docs/data/ file named by a Markdown link (resolved
// against the document's directory) or by a bare path (against the root)
// must exist, and each one that does not is named; links elsewhere are
// not the check's business.
func TestDataLinks(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "docs", "data"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "docs", "data", "a.md"), []byte("raw runs\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, changes := filepath.Join(root, "docs", "DOC.md"), filepath.Join(root, "CHANGES.md")
	good := "[runs](data/a.md), see docs/data/a.md, [elsewhere](../MISSING.md), pattern docs/data/changes-pr<N>.md.\n"
	if err := checkDataLinks(good, doc, root); err != nil {
		t.Errorf("resolving links refused: %v", err)
	}
	if err := checkDataLinks("Long form: docs/data/a.md.\n", changes, root); err != nil {
		t.Errorf("a bare path from the root refused: %v", err)
	}
	err := checkDataLinks(good+"[gone](data/b.md) and docs/data/c.md\n", doc, root)
	if err == nil {
		t.Fatal("broken docs/data/ links accepted")
	}
	for _, want := range []string{filepath.Join("data", "b.md"), filepath.Join("data", "c.md")} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if strings.Contains(err.Error(), "a.md") || strings.Contains(err.Error(), "MISSING") {
		t.Errorf("error %q names a link that is fine or not under docs/data/", err)
	}
}

// TestFlags: a per-command limit that would time every command out at
// once, or hold a hung one for days, is refused naming -timeout.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-timeout", "0s"}, Flag: "-timeout"},
		{Args: []string{"-timeout", "-1m"}, Flag: "-timeout"},
		{Args: []string{"-timeout", "48h"}, Flag: "-timeout"},
	})
}

// FuzzFlags holds -list on: without it docscheck runs every command it
// finds, a build and a run each.
func FuzzFlags(f *testing.F) {
	clitest.Fuzz(f, &flags, func(args []string, w io.Writer) error { return run(append(args, "-list", "../../README.md"), w) }, nil)
}
