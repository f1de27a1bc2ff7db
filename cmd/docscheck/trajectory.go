package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The trajectory table is the one table of standing numbers the docs
// keep, and nobody keeps it by hand: docscheck renders it from the files
// that own the numbers — bench/samples' first ledger against its newest —
// and fails when a document that quotes it (between these marks) has
// fallen behind them.
const (
	trajectoryBegin = "<!-- docscheck:trajectory -->"
	trajectoryEnd   = "<!-- /docscheck:trajectory -->"
)

// ledger is what the table reads of a bench/ ledger.
type ledger struct {
	Meta struct {
		Commit string `json:"git_commit"`
		Seed   uint64
	}
	Workloads map[string]struct{ Samples map[string][]float64 }
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(b, v)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// trajectoryTable renders the table from the repository at root:
// BENCHMARK.json names the workloads and end-to-end metrics, the first
// column is bench/samples/ledger-first.json, the second the last
// ledger-*.json by name recorded at the same seed.
func trajectoryTable(root string) (string, error) {
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	var first, last ledger
	firstPath, lastPath := filepath.Join(root, "bench/samples/ledger-first.json"), ""
	for _, f := range []struct {
		path string
		into any
	}{{filepath.Join(root, "BENCHMARK.json"), &decl}, {firstPath, &first}} {
		if err := readJSON(f.path, f.into); err != nil {
			return "", err
		}
	}
	paths, _ := filepath.Glob(filepath.Join(root, "bench/samples/ledger-*.json")) // sorted; the pattern is well-formed
	for _, p := range paths {
		var l ledger
		if err := readJSON(p, &l); err != nil {
			return "", err
		}
		if p != firstPath && l.Meta.Seed == first.Meta.Seed {
			last, lastPath = l, p
		}
	}
	if lastPath == "" {
		return "", fmt.Errorf("no second ledger at %s's seed", firstPath)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "| workload | metric | `%s` (%.7s) | `%s` (%.7s) | ratio |\n|---|---|---|---|---|\n",
		filepath.Base(firstPath), first.Meta.Commit, filepath.Base(lastPath), last.Meta.Commit)
	for _, w := range decl.Workloads {
		for _, m := range decl.EndToEnd {
			a, z := median(first.Workloads[w.Name].Samples[m.Name]), median(last.Workloads[w.Name].Samples[m.Name])
			fmt.Fprintf(&b, "| `%s` | `%s` | %.5g | %.5g | %.2f |\n", w.Name, m.Name, a, z, z/a)
		}
	}
	return b.String(), nil
}

// checkTrajectory fails when doc quotes the trajectory table and the
// quote is not what the files at root render today.
func checkTrajectory(doc, root string) error {
	_, quoted, ok := strings.Cut(doc, trajectoryBegin)
	if !ok {
		return nil
	}
	quoted, _, _ = strings.Cut(quoted, trajectoryEnd)
	want, err := trajectoryTable(root)
	if err != nil {
		return err
	}
	if strings.TrimSpace(quoted) != strings.TrimSpace(want) {
		return fmt.Errorf("the trajectory table is stale; between the marks it should read:\n\n%s", want)
	}
	return nil
}
