// Command tcplat runs round-trip latency experiments on the simulated
// testbed: the echo benchmark of §1.2 under a chosen link, checksum
// mode, header-prediction setting, and transfer size — or a whole grid
// of them sharded across a worker pool.
//
// Examples:
//
//	tcplat -size 4                         # baseline ATM, 4-byte echo
//	tcplat -link ether -size 1400          # Ethernet comparison point
//	tcplat -mode none -size 8000           # checksum eliminated
//	tcplat -nopred -size 200               # header prediction disabled
//	tcplat -sweep                          # all paper sizes at once
//	tcplat -grid paper -parallel 8         # the paper's full grid, 8 workers
//	tcplat -grid ext -json                 # beyond-paper dimensions, JSON out
package main

import (
	"context"
	"fmt"
	"io"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
)

func main() { flags.Main(run) }

// modes: one cell, the paper's sizes (-sweep), or a predefined -grid,
// which fixes every cell's configuration itself.
var (
	modes = cli.Modes{"cell", "sweep", "grid"}
	cells = modes.On("cell", "sweep")
)

var flags = cli.Table{Name: "tcplat", Rows: []cli.Row{
	{Name: "size", Def: 4, Usage: "transfer size in bytes", Min: 1, Max: 1 << 20, Why: "a round trip echoes at least one byte, and each end holds the payload whole", On: modes.On("cell")},
	{Name: "link", Def: "atm", Usage: "link type: atm or ether", Words: []string{"atm", "ether"}, On: cells, Field: "Link"},
	{Name: "mode", Def: "standard", Usage: "checksum mode: standard, integrated, or none", Words: []string{"standard", "integrated", "none"}, On: cells, Field: "Mode"},
	{Name: "nopred", Def: false, Usage: "disable header prediction (PCB cache + fast path)", On: cells, Field: "DisablePrediction"},
	{Name: "hashpcb", Def: false, Usage: "use the hash-table PCB organization", On: cells, Field: "HashPCBs"},
	{Name: "pcbs", Def: 0, Usage: "established connections opened ahead of the benchmark connection", Max: 100_000, Why: "each is a connection pair held for the run", On: cells, Field: "LivePCBs"},
	{Name: "loss", Def: 0.0, Usage: "independent loss probability of each ATM cell or Ethernet frame", Max: 1, On: cells, Field: "BurstLoss.LossGood"},
	{Name: "mtu", Def: 0, Usage: "MTU override (0 = link default)", Max: cli.Inf, On: cells, Field: "MTU"},
	{Name: "sockbuf", Def: 0, Usage: "socket buffer high-water mark (0 = default)", Max: cli.Inf, On: cells, Field: "SockBuf"},
	{Name: "iters", Def: 100, Usage: "measured iterations", Min: 1, Max: cli.MaxIters, Why: cli.ItersWhy},
	{Name: "warmup", Def: 8, Usage: "warm-up iterations", Max: cli.MaxIters, Why: "run time grows with it"},
	{Name: "seed", Def: uint64(0), Usage: "base RNG seed (single run: the simulation seed; grids: per-cell derivation base)", Max: cli.Inf},
	{Name: "sweep", Def: false, Usage: "run every paper transfer size", On: cells},
	{Name: "grid", Def: "", Usage: "run a predefined grid: paper or ext", Words: []string{"", "paper", "ext"}},
	{Name: "parallel", Def: 0, Usage: "sweep workers (0 = GOMAXPROCS, 1 = serial)", Max: cli.Inf},
	{Name: "json", Def: false, Usage: "emit results as JSON instead of text"},
}, Mode: func(v *cli.Values) (uint, string) {
	switch g := v.String("grid"); {
	case g != "":
		return modes.On("grid"), "-grid " + g
	case v.Bool("sweep"):
		return modes.On("sweep"), "-sweep"
	}
	return modes.On("cell"), "a single cell"
}}

func run(args []string, w io.Writer) error {
	f, err := flags.Parse(args, w)
	if f == nil {
		return err
	}
	cfg := labConfig(f)
	// lab.Config.Validate is the rulebook of what each knob applies to;
	// its refusal names the field, and the flag that wrote it.
	if err := flags.Config(cfg.Validate(2, 1)); err != nil {
		return err
	}
	iters, warmup := f.Int("iters"), f.Int("warmup")

	// Build the trial list: a predefined grid, the paper's size sweep of
	// the flag-selected configuration, or a single cell.
	var trials []runner.EchoTrial
	switch f.String("grid") {
	case "paper":
		trials = runner.PaperGrid(core.Sizes, iters, warmup).Trials()
	case "ext":
		trials = runner.ExtendedGrid(iters, warmup).Trials()
	case "":
		sizes := []int{f.Int("size")}
		if f.Bool("sweep") {
			sizes = core.Sizes
		}
		for _, s := range sizes {
			trials = append(trials, runner.EchoTrial{
				Label:      runner.TrialLabel(cfg, s),
				Cfg:        cfg,
				Size:       s,
				Iterations: iters,
				Warmup:     warmup,
			})
		}
	}

	ropts := runner.Options{Workers: f.Int("parallel")}
	if f.String("grid") != "" {
		// For grids the seed is a derivation base, not a shared
		// simulation seed.
		ropts.BaseSeed = f.Uint64("seed")
	}
	outs, err := runner.RunEchoSweep(context.Background(), trials, ropts)
	if err != nil {
		return err
	}
	for _, o := range outs {
		if o.Error != "" {
			return fmt.Errorf("cell %s: %s", o.Label, o.Error)
		}
	}

	return cli.Emit(w, f.Bool("json"), outs, func() string {
		return runner.RenderEchoOutcomes(fmt.Sprintf("Round-trip latency (%d cells, %d iterations each)", len(outs), iters), outs)
	})
}

// labConfig is the testbed configuration the flags write.
func labConfig(f *cli.Values) lab.Config {
	lk, _ := lab.ParseLinkKind(f.String("link")) // the row admits only its words
	return lab.Config{
		Link:              lk,
		Mode:              map[string]cost.ChecksumMode{"standard": cost.ChecksumStandard, "integrated": cost.ChecksumIntegrated, "none": cost.ChecksumNone}[f.String("mode")],
		DisablePrediction: f.Bool("nopred"),
		HashPCBs:          f.Bool("hashpcb"),
		LivePCBs:          f.Int("pcbs"),
		BurstLoss:         sim.GEParams{LossGood: f.Float("loss")},
		MTU:               f.Int("mtu"),
		SockBuf:           f.Int("sockbuf"),
		Seed:              f.Uint64("seed"),
	}
}
