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
	"fmt"
	"io"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
)

func main() { flags.Main(run) }

// output is the command's modes: -json's values, text or JSON.
var output = cli.Modes{"false", "true"}

var flags = cli.Table{Name: "tables", Rows: []cli.Row{
	{Name: "iters", Def: 100, Usage: "measured iterations per configuration", Min: 1, Max: cli.MaxIters, Why: cli.ItersWhy},
	{Name: "o", Def: "", Usage: "also write the report to this file"},
	{Name: "figures", Def: true, Usage: "render ASCII figures 1 and 2", On: output.On("false")},
	{Name: "parallel", Def: 0, Usage: "sweep workers (0 = GOMAXPROCS, 1 = serial)", Max: cli.Inf},
	{Name: "seed", Def: uint64(0), Usage: "base seed for per-trial RNG derivation (0 = defaults)", Max: cli.Inf},
	{Name: "json", Def: false, Usage: "emit the report as JSON instead of text"},
}, Mode: output.Of("json")}

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
	rep, err := core.RunAll(opts)
	if err != nil {
		return err
	}

	var text strings.Builder
	if err := cli.Emit(&text, f.Bool("json"), rep, func() string {
		if !f.Bool("figures") {
			return rep.Render()
		}
		return rep.Render() + "\n" + core.RenderFigure1(rep.Table4) + "\n" + core.RenderFigure2(rep.Table5)
	}); err != nil {
		return err
	}
	fmt.Fprint(w, text.String())
	if out := f.String("o"); out != "" {
		if err := os.WriteFile(out, []byte(text.String()), 0o644); err != nil {
			return fmt.Errorf("-o: %w", err)
		}
	}
	return nil
}
