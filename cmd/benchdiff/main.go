// Command benchdiff guards the benchmark metrics against regressions,
// in two modes.
//
// The default mode guards the PAPER metrics: the benchmark suite
// reports its headline numbers as custom metrics in simulated
// microseconds (unit "sim-µs/...") or percentages (unit "%..."); those
// are produced by the deterministic simulation, so they are exactly
// reproducible on any machine, unlike ns/op, and the default tolerance
// is correspondingly strict (0.1%).
//
// The -wallclock mode guards what the SIMULATOR allocates and retains:
// the Wallclock tier's tripwires (parseWallclock) against
// BENCH_wallclock.json, B/op in a medium band and the counts in a tight
// one. Neither ns/op nor allocs/op is read: wall-clock claims belong to
// bench/ (see docs/PERFORMANCE.md), and where a workload allocates is
// cmd/alloccensus's goldens' to pin.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x | benchdiff -baseline BENCH_baseline.json
//	go test -run='^$' -bench=. -benchtime=1x | benchdiff -write BENCH_baseline.json
//	go test -run='^$' -bench=Wallclock -benchmem -benchtime=2x | benchdiff -wallclock -baseline BENCH_wallclock.json
//	go test -run='^$' -bench=Wallclock -benchmem -benchtime=2x | benchdiff -wallclock -write BENCH_wallclock.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/cmd/internal/cli"
)

func main() {
	flags.Main(func(args []string, w io.Writer) error { return run(args, os.Stdin, w) })
}

// modes: comparing or writing (-write) the paper metrics or the
// wall-clock tier's tripwires (-wallclock).
var modes = cli.Modes{"paper", "paper -write", "wallclock", "wallclock -write"}

var flags = cli.Table{Name: "benchdiff", Rows: []cli.Row{
	{Name: "baseline", Def: "BENCH_baseline.json", Usage: "baseline file to compare against", On: modes.On("paper", "wallclock")},
	{Name: "write", Def: "", Usage: "write a new baseline to this file instead of comparing"},
	{Name: "tol", Def: 0.001, Usage: "relative tolerance before a difference is a failure", Max: 1, On: modes.On("paper")},
	{Name: "wallclock", Def: false, Usage: "compare the wall-clock tier's allocation tripwires instead of paper metrics"},
	{Name: "tol-alloc", Def: 0.15, Usage: "wallclock: relative tolerance for allocs/rtt, allocs/run and the barrier counts", Max: 1, On: modes.On("wallclock")},
	{Name: "tol-bytes", Def: 0.35, Usage: "wallclock: relative tolerance for B/op and peak heap (GC timing and map growth add noise)", Max: 1, On: modes.On("wallclock")},
}, Mode: func(v *cli.Values) (uint, string) {
	m, phrase := "paper", "the paper metrics"
	if v.Bool("wallclock") {
		m, phrase = "wallclock", "-wallclock"
	}
	if v.String("write") != "" {
		return modes.On(m + " -write"), phrase + " -write"
	}
	return modes.On(m), phrase
}}

func run(args []string, in io.Reader, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	wallclock, write := f.Bool("wallclock"), f.String("write")
	parse := parseBench
	if wallclock {
		parse = parseWallclock
	}
	got, err := parse(in)
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no metrics found in the bench output")
	}

	if write != "" {
		if _, ok := got[allocsPerRTTKey]; wallclock && !ok {
			// A baseline without the steady-state allocation count would
			// make its gate pass vacuously forever. The usual cause is
			// running only part of the tier.
			return fmt.Errorf("wallclock input has no allocs/rtt; run the whole Wallclock tier with -benchmem")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(write, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("-write: %w", err)
		}
		fmt.Fprintf(w, "benchdiff: wrote %d metrics to %s\n", len(got), write)
		return nil
	}

	base, err := readBaseline(f.String("baseline"))
	if err != nil {
		return fmt.Errorf("-baseline: %w", err)
	}
	tolFor := func(string) float64 { return f.Float("tol") }
	if wallclock {
		tolFor = func(key string) float64 {
			if strings.HasSuffix(key, "/B/op") || key == peakHeapKey {
				return f.Float("tol-bytes")
			}
			return f.Float("tol-alloc")
		}
	}
	return compare(w, base, got, tolFor)
}

// metaPrefix marks baseline entries outside the two-sided drift
// comparison.
const metaPrefix = "meta/"

// peakHeapKey is the one meta/ entry, gated upward only. It is
// HeapAlloc after a forced GC with the 10k-host testbed alive: what
// the program retains, which no runner's speed or core count changes. A
// rise beyond the B/op band is therefore drift — per-host state creeping
// back — while a fall stays a note, so that a baseline recorded before a
// memory win does not fail the change that made it.
const peakHeapKey = metaPrefix + "peak_heap_mb"

// allocsPerRTTKey is the steady-state echo's marginal allocations a round
// trip, which every wall-clock baseline must carry.
const allocsPerRTTKey = "BenchmarkWallclockEchoSteady/allocs/rtt"

// parseBench extracts the deterministic paper metrics from `go test
// -bench` output: every "value unit" pair whose unit starts with
// "sim-µs" or "%", keyed "BenchName/unit".
func parseBench(in io.Reader) (map[string]float64, error) {
	return parse(in, "Benchmark", func(name, unit string) string {
		if strings.HasPrefix(unit, "sim-µs") || strings.HasPrefix(unit, "%") {
			return name + "/" + unit
		}
		return ""
	})
}

// parseWallclock extracts the Wallclock benchmark tier's tripwires: the
// standard B/op column, the custom allocs/rtt and allocs/run metrics (the
// latter only from benchmarks whose configuration no census golden
// runs), the sharded fan-in's "rounds" and "handoffs" (barrier rounds per run and
// the windows among them handed to a worker goroutine — deterministic
// properties of the simulation, gated like allocation counts: they move
// only when the horizon algorithm or the barrier's execution model
// changes), and the scale benchmark's peak-heap-MB under peakHeapKey.
// B/op gets its own wider tolerance (-tol-bytes): byte counts swing with
// GC timing and map growth in ways allocation counts do not, but they
// are the metric that catches per-host state regressions — an eager VC
// mesh or retained per-request latencies move the scale benchmarks' B/op
// by integer factors, far past any noise band.
func parseWallclock(in io.Reader) (map[string]float64, error) {
	return parse(in, "BenchmarkWallclock", func(name, unit string) string {
		switch unit {
		case "peak-heap-MB":
			return peakHeapKey
		case "B/op", "allocs/rtt", "allocs/run", "rounds", "handoffs":
			return name + "/" + unit
		}
		return ""
	})
}

// parse reads `go test -bench` output: of every line whose benchmark
// name starts with prefix, each "value unit" pair that key names (it
// returns "" for the rest). The name reaches key with its -GOMAXPROCS
// suffix stripped, so baselines are machine-independent.
func parse(in io.Reader, prefix string, key func(name, unit string) string) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], prefix) {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 1; i+1 < len(fields); i++ {
			if k := key(name, fields[i+1]); k != "" {
				if v, err := strconv.ParseFloat(fields[i], 64); err == nil {
					out[k] = v
				}
			}
		}
	}
	return out, sc.Err()
}

func readBaseline(path string) (map[string]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base map[string]float64
	if err := json.Unmarshal(b, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// compare reports metrics that drifted beyond their tolerance,
// disappeared, or appeared without a baseline entry. New metrics are
// advisory; drift and disappearance fail. tolFor maps a metric key to
// its tolerance, letting the wall-clock mode band bytes loosely and
// counts tightly. peakHeapKey is gated one way, ahead of the rest.
func compare(w io.Writer, base, got map[string]float64, tolFor func(string) float64) error {
	keys := make([]string, 0, len(base))
	for k := range base {
		if !strings.HasPrefix(k, metaPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	failures := 0
	if want, ok := base[peakHeapKey]; ok {
		if v, ok := got[peakHeapKey]; ok && v != want {
			if v > want && relDiff(v, want) > tolFor(peakHeapKey) {
				fmt.Fprintf(w, "DRIFT   %s: %.4g vs baseline %.4g (%+.2f%%)\n", peakHeapKey, v, want, (v-want)/want*100)
				failures++
			} else {
				fmt.Fprintf(w, "note: baseline %s=%.0f but this run has %.0f — within the band, or lower (re-record to lock a saving in)\n",
					peakHeapKey, want, v)
			}
		}
	}
	for _, k := range keys {
		want := base[k]
		v, ok := got[k]
		if !ok {
			fmt.Fprintf(w, "MISSING %s (baseline %.4g)\n", k, want)
			failures++
			continue
		}
		if relDiff(v, want) > tolFor(k) {
			if want != 0 {
				fmt.Fprintf(w, "DRIFT   %s: %.4g vs baseline %.4g (%+.2f%%)\n",
					k, v, want, (v-want)/want*100)
			} else {
				fmt.Fprintf(w, "DRIFT   %s: %.4g vs baseline 0\n", k, v)
			}
			failures++
		}
	}
	news := 0
	for k := range got {
		if strings.HasPrefix(k, metaPrefix) {
			continue
		}
		if _, ok := base[k]; !ok {
			fmt.Fprintf(w, "NEW     %s = %.4g (not in baseline; add with -write)\n", k, got[k])
			news++
		}
	}
	fmt.Fprintf(w, "benchdiff: %d baseline metrics, %d failures, %d new\n",
		len(keys), failures, news)
	if failures > 0 {
		return fmt.Errorf("%d metric(s) regressed", failures)
	}
	return nil
}

func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := math.Max(math.Abs(a), math.Abs(b))
	if den == 0 {
		return 0
	}
	return math.Abs(a-b) / den
}
