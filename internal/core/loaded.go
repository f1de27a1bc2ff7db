package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// LoadedOptions configures the loaded-network study: the fan-in
// workload re-run under congestion-era impairments — an egress queue
// discipline, Gilbert–Elliott burst loss, cell reordering, and
// heavy-tailed cross traffic — once per rival transport (TCP and the
// rely-style reliable UDP). The paper measured an unloaded testbed; this
// study asks how much of its latency attribution survives contention.
type LoadedOptions struct {
	// Hosts is the topology size: one server plus Hosts-1 clients
	// (default 6).
	Hosts int
	// Requests is the measured requests per client (default 8).
	Requests int
	// Size is the request/response payload in bytes (default 200).
	Size int
	// Qdisc is installed on every switch egress port (zero = the
	// built-in drop-tail depth).
	Qdisc lab.QdiscConfig
	// BurstLoss layers a Gilbert–Elliott chain on every link.
	BurstLoss sim.GEParams
	// ReorderRate / ReorderDepth bound cell reordering (see lab.Config).
	ReorderRate  float64
	ReorderDepth int
	// CrossFlows adds that many background bounded-Pareto transfer
	// flows contending with the measured fan-in (0 = none).
	CrossFlows int
	// Parallel is the sweep worker-pool size (the two transports run as
	// independent jobs); BaseSeed derives per-job seeds as elsewhere.
	// Parallel is execution machinery, not experiment configuration, so
	// it is excluded from the marshaled result — JSON output must be
	// byte-identical at any -parallel level.
	Parallel int `json:"-"`
	BaseSeed uint64
}

func (o LoadedOptions) normalize() LoadedOptions {
	if o.Hosts < 2 {
		o.Hosts = 6
	}
	if o.Requests <= 0 {
		o.Requests = 8
	}
	if o.Size <= 0 {
		o.Size = 200
	}
	return o
}

// LoadedRow is one transport's outcome under the loaded configuration.
type LoadedRow struct {
	Transport     string
	Requests      int
	Errors        int
	MeanMicros    float64
	Quantiles     stats.Quantiles
	ElapsedMicros float64
	// ServerCPU attributes the server host's CPU microseconds over the
	// whole run to protocol layers, Tables 2/3 style.
	ServerCPU map[trace.Layer]float64
}

// LoadedResult is the study output: one row per transport, same
// impairments, same seeds.
type LoadedResult struct {
	Opts LoadedOptions
	Rows []LoadedRow
}

// loadedTransports fixes the row order (and thus each job's derived
// seed position).
var loadedTransports = []string{workload.TransportTCP, workload.TransportRUDP}

// RunLoadedStudy runs the fan-in workload once per transport under the
// configured load and returns latency statistics plus the server's
// per-layer CPU attribution for each.
func RunLoadedStudy(o LoadedOptions) (*LoadedResult, error) {
	o = o.normalize()
	var jobs []runner.Job
	for _, tr := range loadedTransports {
		tr := tr
		jobs = append(jobs, runner.Job{
			Label: "loaded/" + tr,
			RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
				cfg := runner.ApplySeed(lab.Config{
					Link: lab.LinkATM, PacketTrace: true,
					Qdisc:        o.Qdisc,
					BurstLoss:    o.BurstLoss,
					ReorderRate:  o.ReorderRate,
					ReorderDepth: o.ReorderDepth,
				}, seed)
				g := workload.FanIn{
					Transport: tr, Requests: o.Requests, Size: o.Size, Warmup: 1,
				}
				if o.CrossFlows > 0 {
					g.Cross = &workload.CrossTraffic{Flows: o.CrossFlows}
				}
				c, err := tb.Cluster(cfg, o.Hosts)
				if err != nil {
					return nil, err
				}
				r, err := g.Run(c.Lab)
				if err != nil {
					return nil, err
				}
				return loadedRowFrom(tr, r, c.Lab.Hosts[0].Trace().Events()), nil
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
	res := &LoadedResult{Opts: o}
	for _, out := range outs {
		res.Rows = append(res.Rows, out.Value.(LoadedRow))
	}
	return res, nil
}

// loadedRowFrom reduces one workload result, and the events the server's
// host recorded, to a study row.
func loadedRowFrom(transport string, r *workload.Result, server []trace.Event) LoadedRow {
	var s stats.Sample
	s.Grow(len(r.Latencies))
	for _, lat := range r.Latencies {
		s.Add(float64(lat) / float64(sim.Microsecond))
	}
	cpu := trace.BreakdownFromEvents(server, 0, r.Elapsed)
	row := LoadedRow{
		Transport:     transport,
		Requests:      r.Requests,
		Errors:        r.Errors,
		MeanMicros:    s.Mean(),
		Quantiles:     s.Quantiles(),
		ElapsedMicros: float64(r.Elapsed) / float64(sim.Microsecond),
		ServerCPU:     make(map[trace.Layer]float64, len(cpu)),
	}
	for layer, d := range cpu {
		row.ServerCPU[layer] = float64(d) / float64(sim.Microsecond)
	}
	return row
}

// Render formats the study: the latency comparison, then the server CPU
// attribution table with one column per transport.
func (r *LoadedResult) Render() string {
	o := r.Opts
	load := []string{fmt.Sprintf("qdisc %s", o.Qdisc.Kind)}
	if o.BurstLoss.Enabled() {
		load = append(load, fmt.Sprintf("burst loss %.2g%%", o.BurstLoss.StationaryLoss()*100))
	}
	if o.ReorderRate > 0 {
		load = append(load, fmt.Sprintf("reorder %.2g%%", o.ReorderRate*100))
	}
	if o.CrossFlows > 0 {
		load = append(load, fmt.Sprintf("%d cross flows", o.CrossFlows))
	}
	t := stats.NewTable(
		fmt.Sprintf("Extension: loaded fan-in, TCP versus reliable UDP (%d clients, %s)",
			o.Hosts-1, strings.Join(load, ", ")),
		"Transport", "Reqs", "Errors", "Mean (µs)", "p50", "p95", "p99")
	for _, row := range r.Rows {
		t.AddRow(row.Transport, row.Requests, row.Errors, row.MeanMicros,
			row.Quantiles.P50, row.Quantiles.P95, row.Quantiles.P99)
	}
	var b strings.Builder
	b.WriteString(t.String())

	// The attribution table: layers ordered by combined CPU, so the
	// dominant costs lead, the way the paper's tables read.
	type layerRow struct {
		layer trace.Layer
		cols  []float64
		total float64
	}
	byLayer := map[trace.Layer]*layerRow{}
	for i, row := range r.Rows {
		for layer, us := range row.ServerCPU {
			lr := byLayer[layer]
			if lr == nil {
				lr = &layerRow{layer: layer, cols: make([]float64, len(r.Rows))}
				byLayer[layer] = lr
			}
			lr.cols[i] = us
			lr.total += us
		}
	}
	rows := make([]*layerRow, 0, len(byLayer))
	for _, lr := range byLayer {
		rows = append(rows, lr)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].total != rows[j].total {
			return rows[i].total > rows[j].total
		}
		return rows[i].layer < rows[j].layer
	})
	cols := []string{"Layer"}
	for _, row := range r.Rows {
		cols = append(cols, row.Transport+" (µs)")
	}
	ct := stats.NewTable("Server CPU attribution over the loaded run", cols...)
	for _, lr := range rows {
		cells := make([]any, 0, 1+len(lr.cols))
		cells = append(cells, string(lr.layer))
		for _, v := range lr.cols {
			cells = append(cells, v)
		}
		ct.AddRow(cells...)
	}
	b.WriteString(ct.String())
	b.WriteString(`Under load the attribution shifts from per-byte costs toward queueing
and recovery: TCP pays in segment processing and retransmission state,
the rely-style transport in per-message acks. The unloaded tables'
data-touching dominance is a light-load property, not a law.
`)
	return b.String()
}
