// Command cksum regenerates the user-level copy and checksum study
// (Table 5 / Figure 2), the §3 PCB lookup experiment, and the §4.1 Sun-3
// comparison. The checksum routines execute for real over random
// buffers; the reported times come from the DECstation 5000/200 cost
// calibration. The independent studies shard across a worker pool
// (-parallel); -seed reseeds the validation buffers; -json emits the
// structured results.
package main

import (
	"context"
	"io"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/runner"
)

func main() { flags.Main(run) }

var flags = cli.Table{Name: "cksum", Rows: []cli.Row{
	{Name: "pcb", Def: true, Usage: "include the PCB lookup experiment"},
	{Name: "sun3", Def: true, Usage: "include the §4.1 Sun-3 comparison"},
	{Name: "parallel", Def: 0, Usage: "sweep workers (0 = GOMAXPROCS, 1 = serial)", Max: cli.Inf},
	{Name: "seed", Def: uint64(0), Usage: "seed for the checksum validation buffers (0 = default)", Max: cli.Inf},
	{Name: "json", Def: false, Usage: "emit results as JSON instead of text"},
}}

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	// The three studies are independent; run them through the sweep
	// engine so -parallel applies here too.
	job := func(label string, run func() (any, error)) runner.Job {
		return runner.Job{Label: label, RunOn: func(context.Context, *runner.Testbeds, uint64) (any, error) { return run() }}
	}
	jobs := []runner.Job{job("table5", func() (any, error) { return core.RunTable5Seeded(f.Uint64("seed")) })}
	if f.Bool("pcb") {
		jobs = append(jobs, job("pcb", func() (any, error) { return core.RunPCBExperiment(), nil }))
	}
	if f.Bool("sun3") {
		jobs = append(jobs, job("sun3", func() (any, error) { return core.RunSun3Comparison(), nil }))
	}
	outs, err := runner.Run(context.Background(), jobs, runner.Options{Workers: f.Int("parallel")})
	if err != nil {
		return err
	}
	if err := runner.FirstError(outs); err != nil {
		return err
	}

	payload, text := map[string]any{}, ""
	for _, out := range outs {
		payload[out.Label] = out.Value
		text += out.Value.(interface{ Render() string }).Render() + "\n"
	}
	return cli.Emit(w, f.Bool("json"), payload, func() string { return text })
}
