// Command tables regenerates every table and figure in the paper's
// evaluation — Tables 1 through 7, the §3 PCB study, Figures 1 and 2,
// and the beyond-paper extension sweep — with published values alongside
// measured ones, and optionally writes the result to a file.
//
// The independent trials behind each table shard across a worker pool;
// -parallel sets the pool size (0 = GOMAXPROCS, 1 = serial) and the
// results are bit-identical at any setting. -seed derives per-trial RNG
// seeds from the given base; -json emits the full report as JSON.
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
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	var (
		iters    = fs.Int("iters", 100, "measured iterations per configuration")
		out      = fs.String("o", "", "also write the report to this file")
		figures  = fs.Bool("figures", true, "render ASCII figures 1 and 2")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "base seed for per-trial RNG derivation (0 = defaults)")
		jsonOut  = fs.Bool("json", false, "emit the report as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
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
	rep, err := core.RunAll(opts)
	if err != nil {
		return err
	}

	var text string
	if *jsonOut {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		text = string(b) + "\n"
	} else {
		text = rep.Render()
		if *figures {
			text += "\n" + core.RenderFigure1(rep.Table4) + "\n" + core.RenderFigure2(rep.Table5)
		}
	}
	fmt.Fprint(w, text)
	if *out != "" {
		if err := os.WriteFile(*out, []byte(text), 0o644); err != nil {
			return err
		}
	}
	return nil
}
