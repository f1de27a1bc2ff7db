package core

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/lab"
	"repro/internal/paperdata"
	"repro/internal/pcb"
	"repro/internal/runner"
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
	// Live marks a study whose table populations are real established
	// connections (built by live handshakes) instead of synthetic
	// inserts. The per-entry search cost must be identical either way —
	// the list does not care how its entries were born — which
	// TestPCBLiveMatchesSynthetic asserts.
	Live bool
}

// RunPCBExperiment measures PCB lookup cost on the simulated CPU by
// driving real lookups through a populated table, exactly as the kernel
// input path does: the cost charged is per entry traversed.
func RunPCBExperiment() *PCBResult {
	res := &PCBResult{}
	for _, n := range pcbLengths {
		env := sim.NewEnv()
		k := kern.New(env, cost.DECstation5000(), "pcbhost")
		var tb pcb.Table
		var target pcb.Key
		for i := 0; i < n; i++ {
			key := pcb.Key{LocalAddr: 1, RemoteAddr: uint32(i + 10), LocalPort: 80, RemotePort: uint16(i + 1)}
			tb.Insert(&pcb.PCB{Key: key})
			if i == 0 {
				target = key // first inserted ends at the tail
			}
		}
		res.Rows = append(res.Rows, pcbRow(k, &tb, target, n))
	}
	res.fitSlope()
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

// fitSlope fits the per-entry cost through the list column's endpoints.
func (r *PCBResult) fitSlope() {
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	r.PerEntryMicros = (last.ListMicros - first.ListMicros) / float64(last.Entries-first.Entries)
}

// pcbLengths is the population axis shared by the synthetic and live
// variants of the §3 study.
var pcbLengths = []int{20, 50, 100, 250, 500, 1000}

// RunPCBLiveExperiment is the live-population variant of the §3 study:
// instead of synthetically inserting PCBs, it establishes real TCP
// connections on a two-host testbed and measures lookup cost against the
// server's resulting demultiplexing table. The first connection opened
// ends deepest in the BSD head-inserted list, exactly where the
// synthetic study places its target.
func RunPCBLiveExperiment() *PCBResult {
	res := &PCBResult{Live: true}
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

		// The server-side key of the first connection: the mirror of the
		// client's 4-tuple.
		target := pcb.Key{
			LocalAddr:  lab.ServerAddr,
			RemoteAddr: lab.ClientAddr,
			LocalPort:  7,
			RemotePort: first.Key().LocalPort,
		}
		res.Rows = append(res.Rows, pcbRow(l.Server.Kern, &l.Server.TCP.Table, target, n))
	}
	res.fitSlope()
	return res
}

// Render formats the §3 experiment with the paper's endpoints.
func (r *PCBResult) Render() string {
	title := "§3: PCB lookup cost versus table organization (µs)"
	if r.Live {
		title = "§3 (live variant): PCB lookup cost, populations of real connections (µs)"
	}
	t := stats.NewTable(title,
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
// ahead of the benchmark connection. The populations run concurrently
// through the sweep engine.
func PCBPopulationEffect(populations []int, o Options) (map[int]float64, error) {
	o = o.normalize()
	jobs := make([]runner.Job, 0, len(populations))
	for _, n := range populations {
		n := n
		jobs = append(jobs, runner.Job{
			Label: fmt.Sprintf("livepcbs=%d", n),
			RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
				cfg := lab.Config{Link: lab.LinkATM, DisablePrediction: true, LivePCBs: n}
				return MeasureRTTOn(tb, seeded(cfg, seed), 4, o)
			},
		})
	}
	outs, err := runner.Run(context.Background(), jobs, o.runnerOpts())
	if err != nil {
		return nil, err
	}
	if err := runner.FirstError(outs); err != nil {
		return nil, err
	}
	out := map[int]float64{}
	for i, n := range populations {
		out[n] = outs[i].Value.(float64)
	}
	return out, nil
}
