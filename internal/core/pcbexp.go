package core

import (
	"fmt"
	"strings"

	"repro/internal/kern"
	"repro/internal/lab"
	"repro/internal/paperdata"
	"repro/internal/pcb"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// PCBRow is one list length's measured lookup cost (§3: "we measured the
// cost of a search for a variety of lengths, ranging from 20 entries
// (26µs) to 1000 entries (1280µs), and found that the results scaled
// linearly").
type PCBRow struct {
	Entries     int
	ListMicros  float64 // linear list, worst case (entry at the tail)
	HashMicros  float64 // hash-table alternative
	CacheMicros float64 // single-entry cache hit
}

// PCBResult is the regenerated §3 lookup study.
type PCBResult struct {
	Rows           []PCBRow
	PerEntryMicros float64 // fitted slope
}

// RunPCBExperiment measures PCB lookup cost on the simulated CPU against
// populations of real connections: for each list length it establishes
// that many TCP connections on a two-host testbed and drives real lookups
// through the server's demultiplexing table, exactly as the kernel input
// path does — the cost charged is per entry traversed. The first
// connection opened ends deepest in the BSD head-inserted list, so it is
// the lookup's target.
func RunPCBExperiment() *PCBResult {
	res := &PCBResult{}
	for _, n := range pcbLengths {
		l := lab.New(lab.Config{Link: lab.LinkATM})
		if _, err := l.Server.TCP.Listen(7); err != nil {
			panic(err)
		}
		var first *tcp.Conn
		var op *tcp.ConnectOp
		// Iteration i folds in connect i-1's result before launching
		// connect i; the extra trailing iteration folds in the last.
		l.Env.Spawn("populate", sim.LoopN(n+1, func(p *sim.Proc, i int) {
			if op != nil {
				if op.Err != nil {
					panic(fmt.Sprintf("core: live PCB %d: %v", i-1, op.Err))
				}
				if i == 1 {
					first = op.C
				}
			}
			if i < n {
				op = l.Client.TCP.Connect(p, lab.ServerAddr, 7)
			}
		}))
		l.Env.Run()

		// The server's key of the first connection mirrors the client's.
		target := pcb.Key{LocalAddr: lab.ServerAddr, RemoteAddr: lab.ClientAddr, LocalPort: 7, RemotePort: first.Key().LocalPort}
		res.Rows = append(res.Rows, pcbRow(l.Server.Kern, &l.Server.TCP.Table, target, n))
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	res.PerEntryMicros = (last.ListMicros - first.ListMicros) / float64(last.Entries-first.Entries)
	return res
}

// pcbRow measures one population's row: a real lookup of target — the
// entry deepest in the list — through tb under each organization. The
// searched-entry count the lookup reports is the measured quantity,
// converted to DECstation time by the calibrated per-entry cost and
// charged to k's simulated CPU as the input path would charge it.
func pcbRow(k *kern.Kernel, tb *pcb.Table, target pcb.Key, n int) PCBRow {
	model := k.Cost
	k.Trace.Enable()
	measure := func(useHash, cache bool) float64 {
		tb.UseHash = useHash
		tb.CacheDisabled = !cache
		var total sim.Time
		k.Env.Spawn("lookup", sim.Steps(func(p *sim.Proc) {
			if cache {
				tb.Lookup(target) // prime the cache
			}
			ent, r := tb.Lookup(target)
			if ent == nil {
				panic("core: PCB lookup missed")
			}
			switch {
			case r.CacheHit:
				total = model.PCBCacheHit
			case useHash:
				total = model.PCBHashLookup
			default:
				total = model.PCBLookupFixed + sim.Time(r.Searched)*model.PCBLookupPerEntry
			}
			k.Use(p, trace.LayerTCPSegmentRx, total)
		}))
		k.Env.Run()
		if total == 0 {
			panic("core: pcb lookup never ran")
		}
		return total.Micros()
	}
	return PCBRow{
		Entries:     n,
		ListMicros:  measure(false, false),
		HashMicros:  measure(true, false),
		CacheMicros: measure(false, true),
	}
}

// pcbLengths is the study's population axis.
var pcbLengths = []int{20, 50, 100, 250, 500, 1000}

// Render formats the §3 experiment with the paper's endpoints.
func (r *PCBResult) Render() string {
	t := stats.NewTable("§3: PCB lookup cost versus table organization (µs)",
		"Entries", "List", "Hash", "Cache hit")
	for _, row := range r.Rows {
		t.AddRow(row.Entries, row.ListMicros, row.HashMicros, row.CacheMicros)
	}
	var b strings.Builder
	b.WriteString(t.String())
	fmt.Fprintf(&b, "Fitted slope: %.2f µs/entry (paper: %.1f; endpoints 20→%.0fµs, 1000→%.0fµs)\n",
		r.PerEntryMicros, paperdata.PCBSearch.PerEntry,
		paperdata.PCBSearch.Len20, paperdata.PCBSearch.Len1000)
	return b.String()
}

// PCBPopulationEffect measures the end-to-end RTT effect of PCB list
// population with prediction disabled — the situation the paper argues a
// hash table would fix. It returns mean RTTs for a 4-byte echo with the
// given numbers of established connections (lab.Config.LivePCBs) opened
// ahead of the benchmark connection, each population one echo of a grid
// measurement.
func PCBPopulationEffect(populations []int, o Options) (map[int]float64, error) {
	population := func(n int) echo {
		return echo{cfg: lab.Config{Link: lab.LinkATM, DisablePrediction: true, LivePCBs: n}, size: 4}
	}
	cells := make([]cell, len(populations))
	for i, n := range populations {
		cells[i] = cell{echo: population(n)}
	}
	m, err := measure(cells, o)
	if err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for _, n := range populations {
		out[n] = m[population(n)].rtt
	}
	return out, nil
}
