package runner

import (
	"context"
	"fmt"

	"repro/internal/cost"
	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// EchoTrial is one grid cell of the round-trip sweep: a complete testbed
// configuration plus a transfer size and iteration counts.
type EchoTrial struct {
	Label      string
	Cfg        lab.Config
	Size       int
	Iterations int
	Warmup     int
	// UDP runs the datagram echo instead of the TCP one.
	UDP bool
}

// EchoOutcome is the aggregated result of one echo trial.
type EchoOutcome struct {
	Label string `json:"label"`
	Index int    `json:"index"`
	Seed  uint64 `json:"seed,omitempty"`
	Size  int    `json:"size"`
	N     int    `json:"n"`

	MeanMicros   float64 `json:"mean_us"`
	MedianMicros float64 `json:"median_us"`
	P95Micros    float64 `json:"p95_us"`
	P99Micros    float64 `json:"p99_us"`
	MinMicros    float64 `json:"min_us"`
	MaxMicros    float64 `json:"max_us"`
	StdDevMicros float64 `json:"stddev_us"`

	CorruptEchoes int    `json:"corrupt_echoes,omitempty"`
	Error         string `json:"error,omitempty"`
}

// RunEchoSweep executes the trials through the worker pool and aggregates
// each trial's round-trip samples through internal/stats. Outcomes come
// back in grid order; per-trial failures are recorded in Outcome.Error so
// one bad cell does not abort the sweep.
func RunEchoSweep(ctx context.Context, trials []EchoTrial, o Options) ([]EchoOutcome, error) {
	jobs := make([]Job, len(trials))
	for i, t := range trials {
		t := t
		jobs[i] = Job{
			Label: t.Label,
			RunOn: func(ctx context.Context, tb *Testbeds, seed uint64) (any, error) {
				return runEchoTrial(tb, t, seed)
			},
		}
	}
	outs, err := Run(ctx, jobs, o)
	res := make([]EchoOutcome, len(outs))
	for i, out := range outs {
		eo := EchoOutcome{
			Label: out.Label,
			Index: out.Index,
			Seed:  out.Seed,
			Size:  trials[i].Size,
		}
		if out.Err != nil {
			eo.Error = out.Err.Error()
		} else if agg, ok := out.Value.(EchoOutcome); ok {
			agg.Label, agg.Index, agg.Seed = eo.Label, eo.Index, eo.Seed
			eo = agg
		}
		res[i] = eo
	}
	return res, err
}

// ApplySeed returns cfg with a derived trial seed applied, or unchanged
// when seed is zero (the sweep did not request derived seeds).
func ApplySeed(cfg lab.Config, seed uint64) lab.Config {
	if seed != 0 {
		cfg.Seed = seed
	}
	return cfg
}

// runEchoTrial acquires the trial's testbed — warm from the worker's
// cache when one of the right shape exists, freshly built otherwise —
// and runs the echo benchmark, returning the aggregated outcome.
func runEchoTrial(tb *Testbeds, t EchoTrial, seed uint64) (any, error) {
	cfg := ApplySeed(t.Cfg, seed)
	iters, warm := t.Iterations, t.Warmup
	if iters <= 0 {
		iters = 100
	}
	if warm < 0 {
		warm = 0
	}
	l := tb.Lab(cfg, 2)
	var (
		res *lab.EchoResult
		err error
	)
	if t.UDP {
		res, err = l.RunUDPEcho(t.Size, iters, warm)
	} else {
		res, err = l.RunEcho(t.Size, iters, warm)
	}
	if err != nil {
		return nil, err
	}
	var s stats.Sample
	s.Grow(len(res.RTTs))
	for _, rtt := range res.RTTs {
		s.Add(rtt.Micros())
	}
	q := s.Quantiles()
	return EchoOutcome{
		Size:          t.Size,
		N:             s.N(),
		MeanMicros:    s.Mean(),
		MedianMicros:  q.P50,
		P95Micros:     q.P95,
		P99Micros:     q.P99,
		MinMicros:     s.Min(),
		MaxMicros:     s.Max(),
		StdDevMicros:  s.StdDev(),
		CorruptEchoes: res.CorruptEchoes,
	}, nil
}

// Grid describes a sweep as the cartesian product of its dimensions.
// Empty dimensions collapse to the paper's baseline value, so the zero
// grid (plus Sizes) is the baseline ATM configuration at each size.
type Grid struct {
	Links     []lab.LinkKind
	Modes     []cost.ChecksumMode
	NoPred    []bool // true disables header prediction
	Sizes     []int
	MTUs      []int     // 0 means the link default
	SockBufs  []int     // 0 means sock.DefaultHiwat
	LossRates []float64 // independent cell-loss probabilities (BurstLoss.LossGood)

	Iterations int
	Warmup     int
}

func defLinks(v []lab.LinkKind) []lab.LinkKind {
	if len(v) == 0 {
		return []lab.LinkKind{lab.LinkATM}
	}
	return v
}

func defModes(v []cost.ChecksumMode) []cost.ChecksumMode {
	if len(v) == 0 {
		return []cost.ChecksumMode{cost.ChecksumStandard}
	}
	return v
}

func defBools(v []bool) []bool {
	if len(v) == 0 {
		return []bool{false}
	}
	return v
}

func defInts(v []int, d int) []int {
	if len(v) == 0 {
		return []int{d}
	}
	return v
}

func defFloats(v []float64) []float64 {
	if len(v) == 0 {
		return []float64{0}
	}
	return v
}

// Trials expands the grid into its cells in a fixed nesting order (link,
// mode, prediction, MTU, socket buffer, loss rate, size), which fixes
// each cell's index and therefore its derived seed.
func (g Grid) Trials() []EchoTrial {
	var out []EchoTrial
	for _, link := range defLinks(g.Links) {
		for _, mode := range defModes(g.Modes) {
			for _, noPred := range defBools(g.NoPred) {
				for _, mtu := range defInts(g.MTUs, 0) {
					for _, buf := range defInts(g.SockBufs, 0) {
						for _, loss := range defFloats(g.LossRates) {
							for _, size := range defInts(g.Sizes, 4) {
								cfg := lab.Config{
									Link:              link,
									Mode:              mode,
									DisablePrediction: noPred,
									MTU:               mtu,
									SockBuf:           buf,
									BurstLoss:         sim.GEParams{LossGood: loss},
								}
								out = append(out, EchoTrial{
									Label:      TrialLabel(cfg, size),
									Cfg:        cfg,
									Size:       size,
									Iterations: g.Iterations,
									Warmup:     g.Warmup,
								})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// TrialLabel names a cell compactly and uniquely: the link and checksum
// mode always, then only the knobs that deviate from the baseline.
func TrialLabel(cfg lab.Config, size int) string {
	l := fmt.Sprintf("%s/%s", cfg.Link, cfg.Mode)
	if cfg.DisablePrediction {
		l += "/nopred"
	}
	if cfg.HashPCBs {
		l += "/hashpcb"
	}
	if cfg.LivePCBs > 0 {
		l += fmt.Sprintf("/livepcbs=%d", cfg.LivePCBs)
	}
	if cfg.MTU > 0 {
		l += fmt.Sprintf("/mtu=%d", cfg.MTU)
	}
	if cfg.SockBuf > 0 {
		l += fmt.Sprintf("/buf=%d", cfg.SockBuf)
	}
	if cfg.BurstLoss.LossGood > 0 {
		l += fmt.Sprintf("/loss=%g", cfg.BurstLoss.LossGood)
	}
	return fmt.Sprintf("%s/%dB", l, size)
}

// PaperGrid is the paper's own experiment grid: both links, all three
// checksum modes, prediction on and off, every transfer size of §1.2.
func PaperGrid(sizes []int, iterations, warmup int) Grid {
	return Grid{
		Links:      []lab.LinkKind{lab.LinkATM, lab.LinkEther},
		Modes:      []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumIntegrated, cost.ChecksumNone},
		NoPred:     []bool{false, true},
		Sizes:      sizes,
		Iterations: iterations,
		Warmup:     warmup,
	}
}

// ExtendedGrid sweeps the dimensions the testbed supports but the paper
// never varies: the ATM MTU (segment size via the negotiated MSS), the
// socket-buffer high-water mark (back-to-back segments versus window-
// update stalls), and cell loss in the spirit of examples/lossy.
func ExtendedGrid(iterations, warmup int) Grid {
	return Grid{
		Links:      []lab.LinkKind{lab.LinkATM},
		Modes:      []cost.ChecksumMode{cost.ChecksumStandard},
		Sizes:      []int{200, 1400, 8000},
		MTUs:       []int{0, 1500, 4000},
		SockBufs:   []int{0, 4096},
		LossRates:  []float64{0, 0.0005},
		Iterations: iterations,
		Warmup:     warmup,
	}
}

// RenderEchoOutcomes formats sweep outcomes as a fixed-width table.
func RenderEchoOutcomes(title string, outs []EchoOutcome) string {
	t := stats.NewTable(title,
		"Cell", "N", "Mean (µs)", "p50", "p95", "p99", "Min (µs)", "Max (µs)", "StdDev")
	for _, o := range outs {
		if o.Error != "" {
			t.AddRow(o.Label, 0, "error: "+o.Error, "", "", "", "", "", "")
			continue
		}
		t.AddRow(o.Label, o.N, o.MeanMicros, o.MedianMicros, o.P95Micros,
			o.P99Micros, o.MinMicros, o.MaxMicros, o.StdDevMicros)
	}
	return t.String()
}
