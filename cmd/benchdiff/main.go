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
// The -wallclock mode guards the SIMULATOR's own speed: it extracts
// ns/op, B/op, allocs/op, and the custom allocs/rtt metric from the
// Wallclock benchmark tier and compares them against BENCH_wallclock.json
// with a tolerance band — wide for ns/op (machine and load dependent),
// medium for B/op (GC timing and map growth add noise allocation counts
// do not have), tight for allocation counts (near-deterministic). This
// is the gate that fails CI when a change quietly reintroduces per-event
// or per-packet allocations the hot-path overhaul removed, or per-host
// state that bloats the bytes-per-op of the scale benchmarks (see
// docs/PERFORMANCE.md).
//
// The wallclock mode also reports the sweep engine's parallel/serial
// ns/op scaling ratio per GOMAXPROCS value present in the input, warning
// (non-fatally) when the parallel sweep was not faster on a multi-core
// run; -scaling prints only that report, for a -cpu=1,2 invocation of
// the sweep pair with no baseline gate. The sharded fan-in pair
// (BenchmarkWallclockFanIn10k vs ...Sharded — one simulation split
// across shard event loops, not many trials across workers) gets the
// same treatment: a sharded/serial ratio per GOMAXPROCS, a warning only
// when real parallelism was available and unused, and an explanatory
// note when GOMAXPROCS exceeds the machine's CPUs. Baselines written by
// -write carry the recording machine's GOMAXPROCS and sweep worker
// count as meta/ keys, excluded from the drift comparison but surfaced
// as a note when a baseline from different hardware is compared.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x | benchdiff -baseline BENCH_baseline.json
//	go test -run='^$' -bench=. -benchtime=1x | benchdiff -write BENCH_baseline.json
//	go test -run='^$' -bench=Wallclock -benchmem -benchtime=2x | benchdiff -wallclock -baseline BENCH_wallclock.json
//	go test -run='^$' -bench=Wallclock -benchmem -benchtime=2x | benchdiff -wallclock -write BENCH_wallclock.json
//	go test -run='^$' -bench=WallclockSweep -benchmem -benchtime=2x -cpu=1,2 | benchdiff -wallclock -scaling
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, w io.Writer) error {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	var (
		baseline  = fs.String("baseline", "BENCH_baseline.json", "baseline file to compare against")
		write     = fs.String("write", "", "write a new baseline to this file instead of comparing")
		tol       = fs.Float64("tol", 0.001, "relative tolerance before a difference is a failure")
		wallclock = fs.Bool("wallclock", false, "compare wall-clock metrics (ns/op, allocs) instead of paper metrics")
		tolNs     = fs.Float64("tol-ns", 0.5, "wallclock: relative tolerance for ns/op (machine dependent)")
		tolAlloc  = fs.Float64("tol-alloc", 0.15, "wallclock: relative tolerance for allocation counts")
		tolBytes  = fs.Float64("tol-bytes", 0.35, "wallclock: relative tolerance for B/op (GC timing and map growth add noise)")
		scaling   = fs.Bool("scaling", false, "wallclock: report the parallel/serial sweep scaling ratio only, without a baseline comparison")
		cpus      = fs.Int("cpus", runtime.NumCPU(), "wallclock: physical CPUs assumed by the scaling report (default: this machine's)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *scaling && !*wallclock {
		// Checked before reading any input: wallclock bench output fed
		// to the paper-metric parser would otherwise die first with a
		// misleading "no metrics found".
		return fmt.Errorf("-scaling requires -wallclock")
	}

	var got map[string]float64
	var sweeps, shards []sweepSample
	var err error
	if *wallclock {
		got, sweeps, shards, err = parseWallclock(in)
	} else {
		got, err = parseBench(in)
	}
	if err != nil {
		return err
	}
	if len(got) == 0 {
		return fmt.Errorf("no metrics found in the bench output")
	}
	if *wallclock {
		reportScaling(w, sweeps, *cpus)
		reportShardScaling(w, shards, *cpus)
	}
	if *scaling {
		return nil
	}

	if *write != "" {
		if *wallclock && !hasAllocMetric(got) {
			// An ns/op-only baseline would make the allocation gate —
			// the one CI relies on — pass vacuously forever. The usual
			// cause is forgetting -benchmem on the bench invocation.
			return fmt.Errorf("wallclock input has no allocation metrics; run the benchmarks with -benchmem")
		}
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*write, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "benchdiff: wrote %d metrics to %s\n", len(got), *write)
		return nil
	}

	base, err := readBaseline(*baseline)
	if err != nil {
		return err
	}
	if *wallclock {
		reportMetaMismatch(w, base, got)
	}
	tolFor := func(string) float64 { return *tol }
	if *wallclock {
		tolFor = func(key string) float64 {
			switch {
			case strings.HasSuffix(key, "/ns/op"):
				return *tolNs
			case strings.HasSuffix(key, "/B/op"), key == peakHeapKey:
				return *tolBytes
			}
			return *tolAlloc
		}
	}
	return compare(w, base, got, tolFor)
}

// metaPrefix marks baseline entries that describe the machine the
// baseline was recorded on, not measurements: they are written alongside
// the metrics, excluded from the drift comparison, and surfaced as a
// non-fatal note when they differ — so baselines from different machines
// are never silently compared as if the hardware were equal.
const metaPrefix = "meta/"

// sweepSample is one sweep benchmark's ns/op at one GOMAXPROCS setting,
// the raw material of the parallel/serial scaling report.
type sweepSample struct {
	name  string // "Serial" or "Parallel"
	procs int    // GOMAXPROCS suffix of the run (1 when unsuffixed)
	nsOp  float64
}

// reportScaling prints the parallel/serial wall-clock ratio of the sweep
// pair for every GOMAXPROCS value both variants ran at, and warns —
// non-fatally; machine load can cause it — when the parallel sweep was
// not faster. A run whose GOMAXPROCS exceeds cpus (the machine's
// physical CPU count) gets a note instead of a warning: extra scheduler
// threads on the same core cannot speed anything up, so a ratio above
// 1.0 there measures context-switch overhead, not a sharding
// regression. The ratio is the headline number of the worker-affine
// sweep engine: below 1.0 means sharding the grid pays.
func reportScaling(w io.Writer, sweeps []sweepSample, cpus int) {
	byProcs := map[int]map[string]float64{}
	procsSeen := []int{}
	for _, s := range sweeps {
		if byProcs[s.procs] == nil {
			byProcs[s.procs] = map[string]float64{}
			procsSeen = append(procsSeen, s.procs)
		}
		byProcs[s.procs][s.name] = s.nsOp
	}
	sort.Ints(procsSeen)
	for _, procs := range procsSeen {
		serial, okS := byProcs[procs]["Serial"]
		parallel, okP := byProcs[procs]["Parallel"]
		if !okS || !okP || serial == 0 {
			continue
		}
		ratio := parallel / serial
		fmt.Fprintf(w, "scaling: parallel/serial sweep ns/op ratio %.3f at GOMAXPROCS=%d\n", ratio, procs)
		switch {
		case procs == 1:
			fmt.Fprintf(w, "scaling: note: GOMAXPROCS=1 cannot show a speedup; ratio near 1.0 is expected\n")
		case procs > cpus:
			fmt.Fprintf(w, "scaling: note: GOMAXPROCS=%d exceeds this machine's %d CPU(s); a speedup is impossible and a ratio above 1.0 measures thread context switching, not a regression\n", procs, cpus)
		case ratio >= 1:
			fmt.Fprintf(w, "WARNING scaling: parallel sweep is not faster than serial (ratio %.3f at GOMAXPROCS=%d)\n", ratio, procs)
		}
	}
}

// reportShardScaling prints the sharded/serial wall-clock ratio of the
// 10k fan-in pair for every GOMAXPROCS value both variants ran at. Where
// the sweep pair measures trial-level parallelism (independent
// simulations on worker goroutines), this pair measures event-level
// parallelism: ONE simulation's event loop split across host shards
// under conservative lookahead, bit-identical to serial by contract.
// The warning discipline matches reportScaling: non-fatal, and a run
// whose GOMAXPROCS exceeds the machine's CPUs gets an explanatory note
// instead — on one core the ratio measures barrier and goroutine-switch
// overhead, not a sharding regression.
func reportShardScaling(w io.Writer, shards []sweepSample, cpus int) {
	byProcs := map[int]map[string]float64{}
	procsSeen := []int{}
	for _, s := range shards {
		if byProcs[s.procs] == nil {
			byProcs[s.procs] = map[string]float64{}
			procsSeen = append(procsSeen, s.procs)
		}
		byProcs[s.procs][s.name] = s.nsOp
	}
	sort.Ints(procsSeen)
	for _, procs := range procsSeen {
		serial, okS := byProcs[procs]["Serial"]
		sharded, okH := byProcs[procs]["Sharded"]
		if !okS || !okH || serial == 0 {
			continue
		}
		ratio := sharded / serial
		fmt.Fprintf(w, "scaling: sharded/serial fan-in ns/op ratio %.3f at GOMAXPROCS=%d\n", ratio, procs)
		switch {
		case procs == 1:
			fmt.Fprintf(w, "scaling: note: GOMAXPROCS=1 cannot show a sharded speedup; the ratio measures barrier overhead\n")
		case procs > cpus:
			fmt.Fprintf(w, "scaling: note: GOMAXPROCS=%d exceeds this machine's %d CPU(s); a sharded speedup is impossible and the ratio measures barrier and context-switch overhead, not a regression\n", procs, cpus)
		case ratio >= 1:
			fmt.Fprintf(w, "WARNING scaling: sharded fan-in is not faster than serial (ratio %.3f at GOMAXPROCS=%d)\n", ratio, procs)
		}
	}
}

// reportMetaMismatch prints a non-fatal note when the baseline's
// recorded machine metadata differs from this run's.
func reportMetaMismatch(w io.Writer, base, got map[string]float64) {
	keys := make([]string, 0, len(base))
	for k := range base {
		if strings.HasPrefix(k, metaPrefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if g, ok := got[k]; ok && g != base[k] && k != peakHeapKey {
			fmt.Fprintf(w, "note: baseline %s=%.0f but this run has %.0f — ns/op drift may reflect the machine, not the code\n",
				k, base[k], g)
		}
	}
}

// peakHeapKey is the one meta/ entry that is gated, and only upward. It
// is HeapAlloc after a forced GC with the 10k-host testbed alive: what
// the program retains, which no runner's speed or core count changes. A
// rise beyond the B/op band is therefore drift — per-host state creeping
// back — while a fall stays a note, so that a baseline recorded before a
// memory win does not fail the change that made it.
const peakHeapKey = metaPrefix + "peak_heap_mb"

// parseBench extracts the deterministic paper metrics from `go test
// -bench` output: every "value unit" pair whose unit starts with
// "sim-µs" or "%". Keys are "BenchName/unit" with the -GOMAXPROCS
// suffix stripped so baselines are machine-independent.
func parseBench(in io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 1; i+1 < len(fields); i++ {
			unit := fields[i+1]
			if !strings.HasPrefix(unit, "sim-µs") && !strings.HasPrefix(unit, "%") {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			out[name+"/"+unit] = v
		}
	}
	return out, sc.Err()
}

// parseWallclock extracts the wall-clock metrics of the Wallclock
// benchmark tier: the standard ns/op, B/op, and allocs/op columns plus
// the custom allocs/rtt metric. Keys are "BenchName/unit" with the
// -GOMAXPROCS suffix stripped (a -cpu=1,2 run therefore keeps the last
// variant's values under the plain key). B/op gets its own wider
// tolerance (-tol-bytes): byte counts swing with GC timing and map
// growth in ways allocation counts do not, but they are the metric that
// catches per-host state regressions — an eager VC mesh or retained
// per-request latencies move the scale benchmarks' B/op by integer
// factors, far past any noise band.
//
// Machine-metadata keys ride along under the meta/ prefix:
// meta/gomaxprocs (the -N suffix of the benchmark lines),
// meta/sweep_workers (the sweep pair's custom "workers" metric), and
// meta/peak_heap_mb (the fan-in scale benchmark's peak-heap-MB metric —
// gated upward only, see peakHeapKey). The sharded fan-in's "rounds" and
// "handoffs" metrics — barrier rounds per run and the windows among
// them handed to a worker goroutine, both deterministic properties of
// the simulation — are gated like allocation counts: they move only
// when the horizon algorithm or the barrier's execution model changes.
// The meta keys are written into baselines and compared only
// informationally, so a baseline recorded on one machine is never
// silently treated as equivalent on another. Per-GOMAXPROCS ns/op
// samples of the sweep pair and the sharded fan-in pair are returned
// separately for the two scaling reports.
func parseWallclock(in io.Reader) (map[string]float64, []sweepSample, []sweepSample, error) {
	out := map[string]float64{}
	var sweeps, shards []sweepSample
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "BenchmarkWallclock") {
			continue
		}
		name := fields[0]
		procs := 1
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
				procs = n
			}
		}
		out["meta/gomaxprocs"] = float64(procs)
		sweepVariant := strings.TrimPrefix(name, "BenchmarkWallclockSweep")
		for i := 1; i+1 < len(fields); i++ {
			unit := fields[i+1]
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if unit == "workers" && sweepVariant != name {
				out["meta/sweep_workers"] = v
				continue
			}
			if unit == "peak-heap-MB" {
				out["meta/peak_heap_mb"] = v
				continue
			}
			switch unit {
			case "ns/op", "B/op", "allocs/op", "allocs/rtt", "rounds", "handoffs":
			default:
				continue
			}
			if (unit == "allocs/op" || unit == "B/op") && sweepVariant == "Parallel" {
				// The parallel sweep's allocation count and bytes scale
				// with the worker count (each worker builds its own warm
				// testbed cache), so they are machine-dependent in a way
				// no tolerance band fixes. The serial variant carries the
				// allocation contract; worker count is recorded in
				// meta/sweep_workers.
				continue
			}
			out[name+"/"+unit] = v
			if unit == "ns/op" && (sweepVariant == "Serial" || sweepVariant == "Parallel") {
				sweeps = append(sweeps, sweepSample{name: sweepVariant, procs: procs, nsOp: v})
			}
			if unit == "ns/op" {
				switch name {
				case "BenchmarkWallclockFanIn10k":
					shards = append(shards, sweepSample{name: "Serial", procs: procs, nsOp: v})
				case "BenchmarkWallclockFanIn10kSharded":
					shards = append(shards, sweepSample{name: "Sharded", procs: procs, nsOp: v})
				}
			}
		}
	}
	return out, sweeps, shards, sc.Err()
}

// hasAllocMetric reports whether any parsed metric is an allocation
// count (allocs/op or allocs/rtt).
func hasAllocMetric(m map[string]float64) bool {
	for k := range m {
		if strings.HasSuffix(k, "/allocs/op") || strings.HasSuffix(k, "/allocs/rtt") {
			return true
		}
	}
	return false
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
// its tolerance, letting the wall-clock mode band ns/op loosely and
// allocation counts tightly. Machine-metadata keys (meta/) are excluded
// on both sides: they describe hardware, not measurements, and are
// reported separately by reportMetaMismatch — all but peakHeapKey, which
// is gated one way.
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
