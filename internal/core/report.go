package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/runner"
)

// Report holds every regenerated experiment.
type Report struct {
	Table1    *CompareResult
	Table2    *BreakdownResult
	Table3    *BreakdownResult
	Table4    *CompareResult
	Table5    *CksumResult
	Table6    *CompareResult
	Table7    *CompareResult
	PCB       *PCBResult
	Sun3      Sun3Result
	Errors    *ErrorStudyResult
	Transport *TransportResult
	// FanIn is the fan-in/churn study: latency percentiles versus
	// client count and PCB organization on N-host topologies.
	FanIn *FanInResult
	// Extended is the beyond-paper sweep: MTU, socket-buffer, and
	// cell-loss dimensions the testbed supports but the paper holds
	// fixed.
	Extended []runner.EchoOutcome
}

// RunExtendedSweep runs the beyond-paper grid (runner.ExtendedGrid)
// through the sweep engine.
func RunExtendedSweep(o Options) ([]runner.EchoOutcome, error) {
	o = o.normalize()
	trials := runner.ExtendedGrid(o.Iterations, o.Warmup).Trials()
	outs, err := runner.RunEchoSweep(context.Background(), trials, o.runnerOpts())
	if err != nil {
		return nil, err
	}
	for _, out := range outs {
		if out.Error != "" {
			return nil, fmt.Errorf("cell %s: %s", out.Label, out.Error)
		}
	}
	return outs, nil
}

// RunAll regenerates every table and figure in the paper's evaluation.
// The round-trip tables — 1 to 4, 6, 7 and the transport comparison — are
// views of one grid measurement, in which each echo they read runs once.
func RunAll(o Options) (*Report, error) {
	o = o.normalize()
	grid, err := measure(paperGrid(), o)
	if err != nil {
		return nil, fmt.Errorf("paper grid: %w", err)
	}
	r := &Report{
		Table1:    compareTable(1).read(grid),
		Table4:    compareTable(4).read(grid),
		Table6:    compareTable(6).read(grid),
		Table7:    compareTable(7).read(grid),
		Transport: transportResult(cost.ChecksumStandard, grid),
	}
	r.Table2, r.Table3 = breakdownTables(grid)
	if r.Table5, err = RunTable5(); err != nil {
		return nil, fmt.Errorf("table 5: %w", err)
	}
	r.PCB = RunPCBExperiment()
	r.Sun3 = RunSun3Comparison()
	if r.Errors, err = RunErrorStudy(); err != nil {
		return nil, fmt.Errorf("error study: %w", err)
	}
	if r.FanIn, err = RunFanInStudy(FanInClientCounts, 12, o); err != nil {
		return nil, fmt.Errorf("fan-in study: %w", err)
	}
	if r.Extended, err = RunExtendedSweep(o); err != nil {
		return nil, fmt.Errorf("extended sweep: %w", err)
	}
	return r, nil
}

// Render formats the full report.
func (r *Report) Render() string {
	var b strings.Builder
	sections := []string{
		r.Table1.Render(),
		r.Table2.Render(),
		r.Table3.Render(),
		r.Table4.Render(),
		r.PCB.Render(),
		r.Table5.Render(),
		r.Table6.Render(),
		r.Table7.Render(),
		r.Sun3.Render(),
		r.Errors.Render(),
		r.Transport.Render(),
		r.FanIn.Render(),
		runner.RenderEchoOutcomes(
			"Extension: beyond-paper sweep (MTU × socket buffer × cell loss)",
			r.Extended),
	}
	for _, s := range sections {
		b.WriteString(s)
		b.WriteString("\n")
	}
	return b.String()
}
