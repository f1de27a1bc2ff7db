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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcplat:", err)
		os.Exit(1)
	}
}

// cfgFlags maps each flag that writes a lab.Config field to the field:
// what a -grid run refuses (it fixes the cell configuration itself), and
// how a lab.ConfigError finds the flag to name. -seed is absent on
// purpose: a grid reads it as the derivation base.
var cfgFlags = map[string]string{
	"link": "Link", "mode": "Mode", "nopred": "DisablePrediction", "hashpcb": "HashPCBs",
	"pcbs": "LivePCBs", "loss": "CellLossRate", "mtu": "MTU", "sockbuf": "SockBuf",
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tcplat", flag.ContinueOnError)
	var (
		size     = fs.Int("size", 4, "transfer size in bytes")
		link     = fs.String("link", "atm", "link type: atm or ether")
		mode     = fs.String("mode", "standard", "checksum mode: standard, integrated, or none")
		noPred   = fs.Bool("nopred", false, "disable header prediction (PCB cache + fast path)")
		hash     = fs.Bool("hashpcb", false, "use the hash-table PCB organization")
		pcbs     = fs.Int("pcbs", 0, "established connections opened ahead of the benchmark connection")
		loss     = fs.Float64("loss", 0, "ATM cell loss probability")
		mtu      = fs.Int("mtu", 0, "MTU override (0 = link default)")
		sockbuf  = fs.Int("sockbuf", 0, "socket buffer high-water mark (0 = default)")
		iters    = fs.Int("iters", 100, "measured iterations")
		warmup   = fs.Int("warmup", 8, "warm-up iterations")
		seed     = fs.Uint64("seed", 0, "base RNG seed (single run: the simulation seed; grids: per-cell derivation base)")
		sweep    = fs.Bool("sweep", false, "run every paper transfer size")
		grid     = fs.String("grid", "", "run a predefined grid: paper or ext")
		parallel = fs.Int("parallel", 0, "sweep workers (0 = GOMAXPROCS, 1 = serial)")
		jsonOut  = fs.Bool("json", false, "emit results as JSON instead of text")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}

	// Predefined grids fix every configuration dimension themselves;
	// reject per-cell flags that would otherwise be silently ignored.
	if *grid != "" {
		var conflict []string
		fs.Visit(func(f *flag.Flag) {
			if cfgFlags[f.Name] != "" || f.Name == "size" || f.Name == "sweep" {
				conflict = append(conflict, "-"+f.Name)
			}
		})
		if len(conflict) > 0 {
			return fmt.Errorf("-grid %s fixes the cell configuration; remove %s",
				*grid, strings.Join(conflict, ", "))
		}
	}

	if *size < 0 {
		return fmt.Errorf("-size must be >= 0")
	}
	if *iters < 1 {
		return fmt.Errorf("-iters %d: must be at least 1", *iters)
	}
	if *warmup < 0 {
		return fmt.Errorf("-warmup %d: must not be negative", *warmup)
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel %d: must not be negative (0 = GOMAXPROCS)", *parallel)
	}
	lk, err := lab.ParseLinkKind(*link)
	if err != nil {
		return fmt.Errorf("-link: %w", err)
	}
	cfg := lab.Config{
		Link:              lk,
		DisablePrediction: *noPred,
		HashPCBs:          *hash,
		LivePCBs:          *pcbs,
		CellLossRate:      *loss,
		MTU:               *mtu,
		SockBuf:           *sockbuf,
		Seed:              *seed,
	}
	switch *mode {
	case "standard":
		cfg.Mode = cost.ChecksumStandard
	case "integrated":
		cfg.Mode = cost.ChecksumIntegrated
	case "none":
		cfg.Mode = cost.ChecksumNone
	default:
		return fmt.Errorf("unknown checksum mode %q", *mode)
	}
	// lab.Config.Validate is the rulebook of what each knob applies to;
	// its refusal names the field, and the flag that wrote it.
	if err := cfg.Validate(2, 1); err != nil {
		var ce *lab.ConfigError
		if errors.As(err, &ce) {
			for name, field := range cfgFlags {
				if field == ce.Field {
					return fmt.Errorf("-%s: %w", name, err)
				}
			}
		}
		return err
	}

	// Build the trial list: a predefined grid, the paper's size sweep of
	// the flag-selected configuration, or a single cell.
	var trials []runner.EchoTrial
	switch *grid {
	case "paper":
		trials = runner.PaperGrid(core.Sizes, *iters, *warmup).Trials()
	case "ext":
		trials = runner.ExtendedGrid(*iters, *warmup).Trials()
	case "":
		sizes := []int{*size}
		if *sweep {
			sizes = core.Sizes
		}
		for _, s := range sizes {
			trials = append(trials, runner.EchoTrial{
				Label:      runner.TrialLabel(cfg, s),
				Cfg:        cfg,
				Size:       s,
				Iterations: *iters,
				Warmup:     *warmup,
			})
		}
	default:
		return fmt.Errorf("unknown grid %q (want paper or ext)", *grid)
	}

	ropts := runner.Options{Workers: *parallel}
	if *grid != "" {
		// For grids the seed is a derivation base, not a shared
		// simulation seed.
		ropts.BaseSeed = *seed
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

	if *jsonOut {
		b, err := json.MarshalIndent(outs, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintln(w, string(b))
		return nil
	}
	title := fmt.Sprintf("Round-trip latency (%d cells, %d iterations each)",
		len(outs), *iters)
	fmt.Fprint(w, runner.RenderEchoOutcomes(title, outs))
	return nil
}
