package runner

import (
	"context"

	"repro/internal/lab"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// WorkloadTrial is one grid cell of a workload sweep: a topology
// configuration, its size, and the generator to drive it.
type WorkloadTrial struct {
	Label string
	Cfg   lab.Config
	// Hosts is the topology size (server + clients); values below 2 are
	// raised to 2.
	Hosts int
	Gen   workload.Generator
}

// WorkloadOutcome is the aggregated result of one workload trial, with
// the latency percentiles the fan-in study reports.
type WorkloadOutcome struct {
	Label string `json:"label"`
	Index int    `json:"index"`
	Seed  uint64 `json:"seed,omitempty"`

	Workload string `json:"workload"`
	Hosts    int    `json:"hosts"`
	Requests int    `json:"requests"`
	Errors   int    `json:"errors,omitempty"`
	Bytes    int64  `json:"bytes"`

	ElapsedMicros float64 `json:"elapsed_us"`
	MeanMicros    float64 `json:"mean_us"`
	P50Micros     float64 `json:"p50_us"`
	P95Micros     float64 `json:"p95_us"`
	P99Micros     float64 `json:"p99_us"`
	MinMicros     float64 `json:"min_us"`
	MaxMicros     float64 `json:"max_us"`

	// Trace is the per-packet timeline reconstruction of the trial,
	// present only when the trial's Cfg set lab.Config.PacketTrace.
	// It is built inside the trial's job from that trial's own lab, so
	// it is bit-identical at any worker count like every other field.
	Trace *trace.TimelineSet `json:"trace,omitempty"`

	Error string `json:"error,omitempty"`
}

// RunWorkloadSweep executes the trials through the worker pool. Each
// trial runs on its own pristine topology (warm from the worker's
// testbed cache or freshly built) with a grid-position-derived seed, so
// outcomes are bit-identical at any worker count.
func RunWorkloadSweep(ctx context.Context, trials []WorkloadTrial, o Options) ([]WorkloadOutcome, error) {
	jobs := make([]Job, len(trials))
	for i, t := range trials {
		t := t
		jobs[i] = Job{
			Label: t.Label,
			RunOn: func(ctx context.Context, tb *Testbeds, seed uint64) (any, error) {
				return runWorkloadTrial(tb, t, seed)
			},
		}
	}
	outs, err := Run(ctx, jobs, o)
	res := make([]WorkloadOutcome, len(outs))
	for i, out := range outs {
		wo := WorkloadOutcome{
			Label:    out.Label,
			Index:    out.Index,
			Seed:     out.Seed,
			Workload: trials[i].Gen.Name(),
			Hosts:    trials[i].hosts(),
		}
		if out.Err != nil {
			wo.Error = out.Err.Error()
		} else if agg, ok := out.Value.(WorkloadOutcome); ok {
			agg.Label, agg.Index, agg.Seed = wo.Label, wo.Index, wo.Seed
			wo = agg
		}
		res[i] = wo
	}
	return res, err
}

func (t WorkloadTrial) hosts() int {
	if t.Hosts < 2 {
		return 2
	}
	return t.Hosts
}

// runWorkloadTrial acquires the trial's testbed — warm from the worker's
// cache when the shape matches — and runs the generator on it.
func runWorkloadTrial(tb *Testbeds, t WorkloadTrial, seed uint64) (any, error) {
	c, err := tb.Cluster(ApplySeed(t.Cfg, seed), t.hosts())
	if err != nil {
		return nil, err
	}
	r, err := t.Gen.Run(c.Lab)
	if err != nil {
		return nil, err
	}
	return outcomeOf(r, t.hosts()), nil
}

// outcomeOf aggregates one workload run on hosts hosts into its outcome.
func outcomeOf(r *workload.Result, hosts int) WorkloadOutcome {
	s := r.Sample()
	q := s.Quantiles()
	wo := WorkloadOutcome{
		Workload:      r.Workload,
		Hosts:         hosts,
		Requests:      r.Requests,
		Errors:        r.Errors,
		Bytes:         r.Bytes,
		ElapsedMicros: r.Elapsed.Micros(),
		MeanMicros:    s.Mean(),
		P50Micros:     q.P50,
		P95Micros:     q.P95,
		P99Micros:     q.P99,
		MinMicros:     s.Min(),
		MaxMicros:     s.Max(),
	}
	if len(r.Events) > 0 {
		wo.Trace = trace.BuildTimelines(r.Events)
	}
	return wo
}

// RenderWorkloadOutcomes formats workload outcomes as a fixed-width
// table with the percentile columns the fan-in study reads.
func RenderWorkloadOutcomes(title string, outs []WorkloadOutcome) string {
	t := stats.NewTable(title,
		"Cell", "Hosts", "N", "Mean (µs)", "p50", "p95", "p99", "Max (µs)")
	for _, o := range outs {
		if o.Error != "" {
			t.AddRow(o.Label, o.Hosts, 0, "error: "+o.Error, "", "", "", "")
			continue
		}
		t.AddRow(o.Label, o.Hosts, o.Requests, o.MeanMicros,
			o.P50Micros, o.P95Micros, o.P99Micros, o.MaxMicros)
	}
	return t.String()
}
