// Command docscheck keeps the documentation executable: it extracts
// every `go run ./...` and `go test ...` command line quoted in the
// given Markdown files (fenced code blocks and inline code spans),
// reduces each to a quick smoke configuration, runs it, and fails if
// any command errors — which is what happens when a documented flag
// drifts from a tool's real flag set. CI runs it via `make docs-check`.
//
// Smoke mode appends per-tool iteration-reducing flags (the Go flag
// package lets a later flag override an earlier one), so a quoted
// `-iters 100` executes as `-iters 2`: the check validates flags and
// basic behaviour, not full-length output. Redirections and pipes in
// quoted lines are stripped — stdout is discarded anyway.
//
// It also keeps the one table of standing numbers honest: a document
// that quotes the trajectory table (trajectory.go) must quote what the
// ledgers and BENCH_wallclock.json say today.
//
// `go test` lines get their own smoke treatment, sized for the
// benchmark and profiling commands docs/PERFORMANCE.md quotes: a
// command that selects benchmarks (-bench) is reduced to one iteration
// of each (-benchtime=1x) with unit tests skipped (-run ^$), and any
// -cpuprofile/-memprofile output path is redirected into the system
// temp directory so a docs run never litters the working tree. Plain
// `go test` lines (a specific -run selection quoted in a doc) execute
// as written — and FAIL if the selection matches nothing (`go test`
// exits 0 with "[no tests to run]" when a documented test name has
// drifted, so docscheck scans for the marker). Drift in documented
// *benchmark* names is caught by the other gate: a renamed benchmark
// turns up as a MISSING metric in `make bench-wallclock` or `make
// benchdiff`. `go tool pprof` lines are not extracted: they are
// interactive.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
}

// smokeFlags maps a tool's package path to the flags appended in smoke
// mode. Appending wins: the flag package takes the last occurrence.
// cmd/load gets none: it rejects a flag its workload does not read, so no
// one set fits every quoted line, and its quoted runs take a second or two.
var smokeFlags = map[string][]string{
	"./cmd/tables":      {"-iters", "2", "-parallel", "2"},
	"./cmd/breakdown":   {"-iters", "2", "-parallel", "2"},
	"./cmd/tcplat":      {"-iters", "2", "-warmup", "1"},
	"./cmd/pkttrace":    {"-iters", "2"},
	"./cmd/alloccensus": {"-hosts", "65"},
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("docscheck", flag.ContinueOnError)
	var (
		list    = fs.Bool("list", false, "print the extracted commands without running them")
		smoke   = fs.Bool("smoke", true, "append per-tool iteration-reducing flags")
		timeout = fs.Duration("timeout", 3*time.Minute, "per-command time limit")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		paths = []string{"README.md", "docs"}
	}

	files, err := markdownFiles(paths)
	if err != nil {
		return err
	}
	var cmds []string
	seen := map[string]bool{}
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		for _, c := range extractCommands(string(blob)) {
			if !seen[c] {
				seen[c] = true
				cmds = append(cmds, c)
			}
		}
		if err := checkTrajectory(string(blob), "."); err != nil && !*list {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(cmds) == 0 {
		return fmt.Errorf("no `go run` commands found in %s", strings.Join(files, ", "))
	}

	failures := 0
	for _, c := range cmds {
		argv := commandArgs(c, *smoke)
		if *list {
			fmt.Fprintln(w, strings.Join(argv, " "))
			continue
		}
		fmt.Fprintf(w, "docscheck: %s\n", c)
		if err := execute(argv, *timeout, isPlainGoTest(argv)); err != nil {
			failures++
			fmt.Fprintf(w, "docscheck: FAIL %s\n%v\n", c, err)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d documented commands failed", failures, len(cmds))
	}
	if !*list {
		fmt.Fprintf(w, "docscheck: %d documented commands OK (%d files)\n", len(cmds), len(files))
	}
	return nil
}

// markdownFiles expands the path arguments: files stay, directories
// contribute their .md entries, sorted for a stable run order.
func markdownFiles(paths []string) ([]string, error) {
	var out []string
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, p)
			continue
		}
		entries, err := os.ReadDir(p)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
				out = append(out, filepath.Join(p, e.Name()))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

var inlineRun = regexp.MustCompile("`(go (?:run \\./|test )[^`]+)`")

// extractCommands pulls `go run ./...` and `go test ...` command lines
// out of Markdown: whole lines inside fenced code blocks, plus inline
// code spans. Trailing shell comments are stripped; docscheck itself is
// excluded (running it from inside itself would recurse).
func extractCommands(md string) []string {
	var out []string
	add := func(c string) {
		c = strings.TrimSpace(c)
		if i := strings.Index(c, " #"); i >= 0 {
			c = strings.TrimSpace(c[:i])
		}
		if (strings.HasPrefix(c, "go run ./") || strings.HasPrefix(c, "go test ")) &&
			!strings.Contains(c, "./cmd/docscheck") {
			out = append(out, c)
		}
	}
	inFence := false
	for _, line := range strings.Split(md, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			add(trimmed)
			continue
		}
		for _, m := range inlineRun.FindAllStringSubmatch(line, -1) {
			add(m[1])
		}
	}
	return out
}

// commandArgs turns one extracted command line into an argv: shell
// redirections and pipes are dropped (output is discarded anyway), and
// smoke flags for the tool are appended so long-running invocations
// shrink to a flag-validity check.
func commandArgs(c string, smoke bool) []string {
	fields := strings.Fields(c)
	var argv []string
	for _, f := range fields {
		if f == "|" || strings.HasPrefix(f, ">") {
			break
		}
		argv = append(argv, f)
	}
	if !smoke || len(argv) < 2 {
		return argv
	}
	if argv[1] == "test" {
		return smokeTestArgs(argv)
	}
	if len(argv) >= 3 {
		if extra, ok := smokeFlags[argv[2]]; ok {
			argv = append(argv, extra...)
		}
	}
	return argv
}

// isBenchFlag reports whether one argv token selects benchmarks, in
// any of the flag spellings `go test` accepts.
func isBenchFlag(f string) bool {
	return f == "-bench" || f == "--bench" ||
		strings.HasPrefix(f, "-bench=") || strings.HasPrefix(f, "--bench=")
}

// smokeTestArgs reduces a documented `go test` line: benchmark
// selections run one iteration with unit tests skipped, and profile
// outputs land in the temp directory instead of the working tree.
func smokeTestArgs(argv []string) []string {
	hasBench := false
	for i, f := range argv {
		switch {
		case isBenchFlag(f):
			hasBench = true
		case f == "-cpuprofile" || f == "-memprofile":
			if i+1 < len(argv) {
				argv[i+1] = filepath.Join(os.TempDir(), filepath.Base(argv[i+1]))
			}
		case strings.HasPrefix(f, "-cpuprofile=") || strings.HasPrefix(f, "-memprofile="):
			flag, val, _ := strings.Cut(f, "=")
			argv[i] = flag + "=" + filepath.Join(os.TempDir(), filepath.Base(val))
		}
	}
	if hasBench {
		argv = append(argv, "-run", "^$", "-benchtime", "1x")
	}
	return argv
}

// isPlainGoTest reports whether argv is a `go test` invocation with no
// benchmark selection — the case whose output must be scanned for the
// "[no tests to run]" marker, because a drifted test name exits 0.
func isPlainGoTest(argv []string) bool {
	if len(argv) < 2 || argv[1] != "test" {
		return false
	}
	for _, f := range argv {
		if isBenchFlag(f) {
			return false
		}
	}
	return true
}

// execute runs one command with stdout discarded (or, for plain `go
// test` lines, scanned for the zero-tests marker), returning an error
// carrying stderr on failure. The command runs in its own process
// group so a timeout kills the documented tool itself, not just the
// `go run` wrapper in front of it.
func execute(argv []string, timeout time.Duration, scanNoTests bool) error {
	cmd := exec.Command(argv[0], argv[1:]...)
	var stdout strings.Builder
	if scanNoTests {
		cmd.Stdout = &stdout
	} else {
		cmd.Stdout = io.Discard
	}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("%w\n%s", err, strings.TrimSpace(stderr.String()))
		}
		if scanNoTests && strings.Contains(stdout.String(), "no tests to run") {
			return fmt.Errorf("documented test selection matched no tests")
		}
		return nil
	case <-time.After(timeout):
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL)
		<-done
		return fmt.Errorf("timed out after %v", timeout)
	}
}
