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
// ledgers say today. And every docs/data/ file the documents or the root
// CHANGES.md name must exist (links.go).
//
// A `go test` line runs as written, profiles redirected to the temp
// directory (smokeTestArgs), and fails if its -run selection matches no
// test. `go tool pprof` lines are interactive and not extracted.
package main

import (
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

	"repro/cmd/internal/cli"
)

func main() { flags.Main(run) }

// smokeFlags maps a tool's package path to the flags appended in smoke
// mode. Appending wins: the flag package takes the last occurrence.
// cmd/load and cmd/alloccensus get none: each refuses a flag its workload
// or shape does not read, so no one set fits every quoted line, and their
// quoted runs take a second or two.
var smokeFlags = map[string][]string{
	"./cmd/tables":   {"-iters", "2", "-parallel", "2"},
	"./cmd/tcplat":   {"-iters", "2", "-warmup", "1"},
	"./cmd/pkttrace": {"-iters", "2"},
}

var flags = cli.Table{Name: "docscheck", Args: true, Rows: []cli.Row{
	{Name: "list", Def: false, Usage: "print the extracted commands without running them"},
	{Name: "smoke", Def: true, Usage: "append per-tool iteration-reducing flags"},
	{Name: "timeout", Def: 3 * time.Minute, Usage: "per-command time limit", Min: float64(time.Second), Max: float64(time.Hour)},
}}

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	paths, list := f.Args(), f.Bool("list")
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
		if list {
			continue
		}
		if err := checkTrajectory(string(blob), "."); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		if err := checkDataLinks(string(blob), f, "."); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(cmds) == 0 {
		return fmt.Errorf("no `go run` commands found in %s", strings.Join(files, ", "))
	}
	if !list {
		// CHANGES.md quotes no command to run, but each entry's long
		// form is a docs/data/ file.
		blob, err := os.ReadFile("CHANGES.md")
		if err == nil {
			err = checkDataLinks(string(blob), "CHANGES.md", ".")
		}
		if err != nil {
			return fmt.Errorf("CHANGES.md: %w", err)
		}
	}

	failures := 0
	for _, c := range cmds {
		argv := commandArgs(c, f.Bool("smoke"))
		if list {
			fmt.Fprintln(w, strings.Join(argv, " "))
			continue
		}
		fmt.Fprintf(w, "docscheck: %s\n", c)
		if err := execute(argv, f.Duration("timeout"), strings.HasPrefix(c, "go test ")); err != nil {
			failures++
			fmt.Fprintf(w, "docscheck: FAIL %s\n%v\n", c, err)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d documented commands failed", failures, len(cmds))
	}
	if !list {
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

// commandArgs turns one extracted command line into an argv, split as a
// shell splits it (shellWords): shell redirections and pipes are dropped
// (output is discarded anyway), and smoke flags for the tool are appended
// so long-running invocations shrink to a flag-validity check.
func commandArgs(c string, smoke bool) []string {
	argv := shellWords(c)
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

// shellWords splits a command line into words as a shell does for the
// lines the docs quote: blanks separate words, and a pair of single or
// double quotes keeps what it holds, blanks and | included, in the word,
// without the quotes. A word that starts with an unquoted | or > — a pipe
// or a redirection — ends the command.
func shellWords(c string) (argv []string) {
	var w []rune
	var quote rune
	inWord := false
	for _, r := range c + " " {
		switch {
		case r == quote:
			quote = 0
		case quote != 0:
			w = append(w, r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				argv, w, inWord = append(argv, string(w)), w[:0], false
			}
		case !inWord && (r == '|' || r == '>'):
			return argv
		default:
			w, inWord = append(w, r), true
		}
	}
	return argv
}

// smokeTestArgs points a documented `go test` line's profile outputs at
// the temp directory instead of the working tree.
func smokeTestArgs(argv []string) []string {
	for i, f := range argv {
		switch {
		case f == "-cpuprofile" || f == "-memprofile":
			if i+1 < len(argv) {
				argv[i+1] = filepath.Join(os.TempDir(), filepath.Base(argv[i+1]))
			}
		case strings.HasPrefix(f, "-cpuprofile=") || strings.HasPrefix(f, "-memprofile="):
			flag, val, _ := strings.Cut(f, "=")
			argv[i] = flag + "=" + filepath.Join(os.TempDir(), filepath.Base(val))
		}
	}
	return argv
}

// execute runs one command with stdout discarded (or, for a `go test`
// line, scanned for the zero-tests marker: a drifted test name exits 0),
// returning an error carrying stderr on failure. The command runs in its
// own process group so a timeout kills the documented tool itself, not
// just the `go run` wrapper in front of it.
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
