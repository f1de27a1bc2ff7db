// Command breakdown regenerates the paper's per-layer latency
// decompositions: Table 2 (transmit side) and Table 3 (receive side),
// with the published values printed alongside for comparison. Each size's
// echo yields both tables; the per-size measurements shard across a
// worker pool (-parallel); -side picks what to print; -seed
// derives deterministic per-trial seeds and -json emits the structured
// results.
package main

import (
	"fmt"
	"io"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
)

func main() { flags.Main(run) }

var flags = cli.Table{Name: "breakdown", Rows: []cli.Row{
	{Name: "side", Def: "both", Usage: "which table: tx, rx, or both", Words: []string{"tx", "rx", "both"}},
	{Name: "iters", Def: 100, Usage: "measured iterations per size", Min: 1, Max: cli.MaxIters, Why: cli.ItersWhy},
	{Name: "parallel", Def: 0, Usage: "sweep workers (0 = GOMAXPROCS, 1 = serial)", Max: cli.Inf},
	{Name: "seed", Def: uint64(0), Usage: "base seed for per-trial RNG derivation (0 = defaults)", Max: cli.Inf},
	{Name: "json", Def: false, Usage: "emit results as JSON instead of text"},
}}

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	opts := core.Options{
		Iterations: f.Int("iters"),
		Warmup:     8,
		Parallel:   f.Int("parallel"),
		BaseSeed:   f.Uint64("seed"),
	}

	// One measurement yields both tables; -side chooses what to print.
	tx, rx, err := core.RunBreakdowns(opts)
	if err != nil {
		return err
	}
	var results []*core.BreakdownResult
	if f.String("side") != "rx" {
		results = append(results, tx)
	}
	if f.String("side") != "tx" {
		results = append(results, rx)
	}

	return cli.Emit(w, f.Bool("json"), results, func() string {
		var b strings.Builder
		for _, r := range results {
			fmt.Fprintln(&b, r.Render())
		}
		return b.String()
	})
}
