// Command bench is the repo's performance ledger: five named workloads,
// the end-to-end metrics a user of the simulator sees, and — from a
// separate traced run — each layer's share of the host time, its
// counters, and its kernels timed in isolation. Every layer is measured
// from outside: by timing calls into its public functions, reading its
// exported counters, and sampling with a CPU profile the harness itself
// starts and stops. README.md has the tables; BENCHMARK.json at the repo
// root declares the names.
//
//	bash bench/run.sh -workload echo-small              one workload's end-to-end metrics
//	bash bench/run.sh -workload echo-small -trace 1     its per-layer metrics
//	bash bench/run.sh -all -out A.json                  everything, as text and JSON
//	bash bench/run.sh -compare A.json B.json            two such files, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// result is the one-line JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ledger is what -all writes and -compare reads.
type ledger struct {
	Meta      meta               `json:"meta"`
	Workloads map[string]*report `json:"workloads"`
}

func main() {
	var (
		name     = flag.String("workload", "", "run one workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1994, "derives every workload's inputs; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", defaultSeconds, "measure whole passes for at least this long")
		traceOn  = flag.Int("trace", 0, "1: the traced run (per-layer metrics) instead of the end-to-end run")
		traceDir = flag.String("tracedir", "", "write each traced run's spans (Chrome trace JSON) and per-layer table here")
		all      = flag.Bool("all", false, "run every workload, end to end and traced, and print every metric")
		out      = flag.String("out", "", "with -all: also write the ledger as JSON to this file")
		compare  = flag.Bool("compare", false, "compare two -all ledgers: bench -compare A.json B.json")
		kernOnly = flag.Bool("kernels", false, "time the layer kernels only")
		smoke    = flag.Bool("smoke", false, "shrink every workload and kernel to a smoke test")
		showMan  = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the harness's tables")
	)
	flag.Parse()
	// The load shape is fixed: one process, two cores — one event loop
	// plus the GC's background worker, or exactly two shards.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *showMan:
		_, err = os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two ledger files, got %d", flag.NArg())
			break
		}
		err = compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *kernOnly:
		printMetrics("kernels", runKernels(*smoke))
	case *all:
		err = runAll(*seed, *seconds, *smoke, *traceDir, *out)
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traceOn == 1, *smoke, *traceDir)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// printMetrics prints "workload metric value unit" lines, sorted by name.
func printMetrics(workload string, m map[string]float64) {
	for _, k := range sortedKeys(m) {
		fmt.Printf("%-18s %-34s %16.6g %s\n", workload, k, m[k], unitOf[k])
	}
}

func printReport(r *report) {
	if r.Skipped != "" {
		fmt.Printf("%-18s skipped: %s\n", r.Workload, r.Skipped)
		return
	}
	printMetrics(r.Workload, r.EndToEnd)
	printMetrics(r.Workload, r.PerLayer)
	for _, d := range endToEnd {
		if v := r.Samples[d.Name]; len(v) > 0 {
			q1, q3 := quartiles(v)
			fmt.Printf("%-18s %-34s quartiles %.6g..%.6g over %d samples %.6g\n", r.Workload, d.Name, q1, q3, len(v), v)
		}
	}
	if len(r.RefWall) > 0 {
		q1, q3 := quartiles(r.RefWall)
		fmt.Printf("%-18s calibration kernel: %.6g s (quartiles %.6g..%.6g over %d readings), nominal %g s: the machine ran at %.3f of nominal speed\n",
			r.Workload, median(r.RefWall), q1, q3, len(r.RefWall), refNominal, refNominal/median(r.RefWall))
	}
	fmt.Printf("%-18s digest %s  attempted %d  failed %d  passes %d\n", r.Workload, r.Digest, r.Attempted, r.Failed, r.Passes)
	for _, p := range r.Problems {
		fmt.Printf("%-18s CHECK FAILED: %s\n", r.Workload, p)
	}
}

// runOne is the single-workload run the benchmark contract drives: it
// prints the report and ends with the one-line JSON result.
func runOne(name string, seed uint64, seconds float64, traceOn, smoke bool, traceDir string) error {
	start := time.Now()
	var r *report
	var err error
	if traceOn {
		r, err = traced(name, seed, seconds, smoke, traceDir)
	} else {
		r, err = measure(name, seed, seconds, smoke)
	}
	if err != nil {
		return err
	}
	m := newMeta(seed)
	m.Passes[name], m.HarnessSeconds = r.Passes, time.Since(start).Seconds()
	fmt.Printf("meta %+v\n", m)
	printReport(r)
	if r.Skipped != "" {
		return fmt.Errorf("%s skipped: %s", name, r.Skipped)
	}
	res := result{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metricValue{}}
	metrics := r.EndToEnd
	if traceOn {
		metrics = r.PerLayer
	}
	for k, v := range metrics {
		res.Metrics[k] = metricValue{v, unitOf[k]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !r.Correct {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(r.Problems))
	}
	return nil
}

// runAll runs every workload end to end and traced, prints every metric
// as "workload metric value unit", optionally writes the same as JSON,
// and fails if any correctness check did.
func runAll(seed uint64, seconds float64, smoke bool, traceDir, out string) error {
	start := time.Now()
	l := ledger{Meta: newMeta(seed), Workloads: map[string]*report{}}
	bad := 0
	for _, name := range workloadNames {
		r, err := measure(name, seed, seconds, smoke)
		if err != nil {
			return err
		}
		if r.Skipped == "" {
			tr, err := traced(name, seed, seconds, smoke, traceDir)
			if err != nil {
				return err
			}
			if tr.Digest != r.Digest {
				tr.problem("traced digest %s differs from the untraced run's %s", short(tr.Digest), short(r.Digest))
			}
			r.PerLayer = tr.PerLayer
			r.Correct = r.Correct && tr.Correct
			r.Problems = append(r.Problems, tr.Problems...)
		}
		printReport(r)
		if !r.Correct {
			bad++
		}
		l.Workloads[name] = r
		l.Meta.Passes[name] = r.Passes
	}
	l.Meta.HarnessSeconds = time.Since(start).Seconds()
	fmt.Printf("meta %+v\n", l.Meta)
	if out != "" {
		b, err := json.MarshalIndent(l, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workloads failed their correctness checks", bad)
	}
	return nil
}
