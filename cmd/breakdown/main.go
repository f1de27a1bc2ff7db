// Command breakdown regenerates the paper's per-layer latency
// decompositions: Table 2 (transmit side) and Table 3 (receive side),
// with the published values printed alongside for comparison. Each size's
// echo yields both tables; the per-size measurements shard across a
// worker pool (-parallel); -side picks what to print; -seed
// derives deterministic per-trial seeds and -json emits the structured
// results.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "breakdown:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("breakdown", flag.ContinueOnError)
	var (
		side     = fs.String("side", "both", "which table: tx, rx, or both")
		iters    = fs.Int("iters", 100, "measured iterations per size")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "base seed for per-trial RNG derivation (0 = defaults)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *side != "tx" && *side != "rx" && *side != "both" {
		return fmt.Errorf("unknown -side %q (want tx, rx, or both)", *side)
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: must be at least 1", *iters)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must not be negative (0 = GOMAXPROCS)", *parallel)
	}
	opts := core.Options{
		Iterations: *iters,
		Warmup:     8,
		Parallel:   *parallel,
		BaseSeed:   *seed,
	}

	// One measurement yields both tables; -side chooses what to print.
	tx, rx, err := core.RunBreakdowns(opts)
	if err != nil {
		return err
	}
	var results []*core.BreakdownResult
	if *side != "rx" {
		results = append(results, tx)
	}
	if *side != "tx" {
		results = append(results, rx)
	}

	if *jsonOut {
		b, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
		return nil
	}
	for _, r := range results {
		fmt.Fprintln(w, r.Render())
	}
	return nil
}
