package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FaultOptions configures the fault-recovery study: the paced fan-in
// workload with the server crashing mid-run and restarting after a
// fixed downtime, once per rival transport under identical fault
// schedules and seeds. The paper measured a healthy testbed; this study
// asks how quickly each transport's clients win their connections back
// when the far end vanishes and returns.
type FaultOptions struct {
	// Hosts is the topology size: one server plus Hosts-1 clients
	// (default 9).
	Hosts int
	// Requests is the measured requests per client (default 8).
	Requests int
	// Size is the request/response payload in bytes (default 200).
	Size int
	// CrashAt is when the server host crashes (default 500ms).
	CrashAt sim.Time
	// Downtime is the crash-to-restart gap (default 1s).
	Downtime sim.Time
	// Parallel is the sweep worker-pool size (the two transports run as
	// independent jobs); BaseSeed derives per-job seeds as elsewhere.
	// Execution machinery, excluded from the marshaled result — JSON
	// output must be byte-identical at any -parallel level.
	Parallel int `json:"-"`
	BaseSeed uint64
}

func (o FaultOptions) normalize() FaultOptions {
	if o.Hosts < 2 {
		o.Hosts = 9
	}
	if o.Requests <= 0 {
		o.Requests = 8
	}
	if o.Size <= 0 {
		o.Size = 200
	}
	if o.CrashAt <= 0 {
		o.CrashAt = 500 * sim.Millisecond
	}
	if o.Downtime <= 0 {
		o.Downtime = sim.Second
	}
	return o
}

// FaultRow is one transport's outcome under the crash schedule.
type FaultRow struct {
	Transport string
	Requests  int
	Errors    int
	// Outages counts client-visible outages survived (one recovery
	// sample each).
	Outages int
	// RecoveryMeanMillis and RecoveryQuantiles summarize the recovery
	// samples: detection of the dead server to the first completed
	// request afterwards, in milliseconds.
	RecoveryMeanMillis float64
	RecoveryQuantiles  stats.Quantiles
	// GoodputKBps is goodput through failure: completed payload bytes
	// over the whole run — downtime included — per simulated second.
	GoodputKBps   float64
	ElapsedMillis float64
}

// FaultResult is the study output: one row per transport, same crash
// schedule, same seeds.
type FaultResult struct {
	Opts FaultOptions
	Rows []FaultRow
}

// RunFaultStudy runs the fault-recovery workload once per transport
// (row order fixed by loadedTransports, as is each job's derived seed
// position) and returns recovery-time statistics and goodput through
// the failure for each.
func RunFaultStudy(o FaultOptions) (*FaultResult, error) {
	o = o.normalize()
	var jobs []runner.Job
	for _, tr := range loadedTransports {
		tr := tr
		jobs = append(jobs, runner.Job{
			Label: "faults/" + tr,
			RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
				// CheckLeaks holds the crash machinery to the same
				// standard as a healthy run: a trial that strands mbuf
				// chains fails its testbed's next acquisition loudly.
				cfg := runner.ApplySeed(lab.Config{Link: lab.LinkATM, CheckLeaks: true}, seed)
				g := workload.FaultRecovery{
					Transport: tr, Requests: o.Requests, Size: o.Size,
					CrashAt: o.CrashAt, Downtime: o.Downtime,
				}
				r, err := g.Run(tb.Lab(cfg, o.Hosts))
				if err != nil {
					return nil, err
				}
				return faultRowFrom(tr, r), nil
			},
		})
	}
	outs, err := runner.Run(context.Background(), jobs,
		runner.Options{Workers: o.Parallel, BaseSeed: o.BaseSeed})
	if err != nil {
		return nil, err
	}
	if err := runner.FirstError(outs); err != nil {
		return nil, err
	}
	res := &FaultResult{Opts: o}
	for _, out := range outs {
		res.Rows = append(res.Rows, out.Value.(FaultRow))
	}
	return res, nil
}

// faultRowFrom reduces one workload result to a study row.
func faultRowFrom(transport string, r *workload.Result) FaultRow {
	var rec stats.Sample
	for _, d := range r.Recoveries {
		rec.Add(d.Millis())
	}
	row := FaultRow{
		Transport:          transport,
		Requests:           r.Requests,
		Errors:             r.Errors,
		Outages:            len(r.Recoveries),
		RecoveryMeanMillis: rec.Mean(),
		RecoveryQuantiles:  rec.Quantiles(),
		ElapsedMillis:      r.Elapsed.Millis(),
	}
	if r.Elapsed > 0 {
		row.GoodputKBps = float64(r.Bytes) / 1024 / (float64(r.Elapsed) / float64(sim.Second))
	}
	return row
}

// Render formats the study as the recovery comparison table.
func (r *FaultResult) Render() string {
	o := r.Opts
	t := stats.NewTable(
		fmt.Sprintf("Extension: crash recovery, TCP versus reliable UDP (%d clients, crash at %.0f ms, down %.0f ms)",
			o.Hosts-1, o.CrashAt.Millis(), o.Downtime.Millis()),
		"Transport", "Reqs", "Errors", "Outages",
		"Rec mean (ms)", "p50", "p95", "p99", "Goodput (KB/s)")
	for _, row := range r.Rows {
		t.AddRow(row.Transport, row.Requests, row.Errors, row.Outages,
			row.RecoveryMeanMillis, row.RecoveryQuantiles.P50,
			row.RecoveryQuantiles.P95, row.RecoveryQuantiles.P99,
			row.GoodputKBps)
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString(`Both transports ride the same deterministic fault schedule and seeds:
the server's stack resets at the crash, its link goes dark, and clients
win their way back through deadline aborts and bounded-retry
reconnects. Recovery is dominated by detection and backoff, not by the
transport's steady-state speed — and goodput through failure shows what
the outage actually cost each protocol end to end.
`)
	return b.String()
}
