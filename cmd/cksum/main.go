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
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cksum:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("cksum", flag.ContinueOnError)
	var (
		pcb      = fs.Bool("pcb", true, "include the PCB lookup experiment")
		sun      = fs.Bool("sun3", true, "include the §4.1 Sun-3 comparison")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		seed     = fs.Uint64("seed", 0, "seed for the checksum validation buffers (0 = default)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must not be negative (0 = GOMAXPROCS)", *parallel)
	}

	// The three studies are independent; run them through the sweep
	// engine so -parallel applies here too.
	jobs := []runner.Job{
		{Label: "table5", RunOn: func(context.Context, *runner.Testbeds, uint64) (any, error) {
			return core.RunTable5Seeded(*seed)
		}},
	}
	if *pcb {
		jobs = append(jobs, runner.Job{
			Label: "pcb",
			RunOn: func(context.Context, *runner.Testbeds, uint64) (any, error) {
				return core.RunPCBExperiment(), nil
			},
		})
	}
	if *sun {
		jobs = append(jobs, runner.Job{
			Label: "sun3",
			RunOn: func(context.Context, *runner.Testbeds, uint64) (any, error) {
				return core.RunSun3Comparison(), nil
			},
		})
	}
	outs, err := runner.Run(context.Background(), jobs, runner.Options{Workers: *parallel})
	if err != nil {
		return err
	}
	if err := runner.FirstError(outs); err != nil {
		return err
	}

	if *jsonOut {
		payload := map[string]any{}
		for _, out := range outs {
			payload[out.Label] = out.Value
		}
		b, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
		return nil
	}
	for _, out := range outs {
		switch v := out.Value.(type) {
		case *core.CksumResult:
			fmt.Fprintln(w, v.Render())
		case *core.PCBResult:
			fmt.Fprintln(w, v.Render())
		case core.Sun3Result:
			fmt.Fprintln(w, v.Render())
		}
	}
	return nil
}
