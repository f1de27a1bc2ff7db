package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Span kinds: which per-layer metric a span's duration is summed into.
const (
	spanPass = iota
	spanConstruct
	spanReset
	spanRun
	spanCollect
	spanCounters
)

// span is one call the harness made into a layer. Spans live in memory
// and are written out as Chrome-trace JSON after the run ends.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a pass's root span
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	kind    int
}

// tracer records spans and sums counters over the traced passes. A nil
// *tracer is the untraced path: begin and end do nothing.
type tracer struct {
	epoch    time.Time
	spans    []span
	root     int // the open pass span
	passes   int
	counters counters
	prof     bytes.Buffer  // the open pass's CPU profile
	samples  []stackSample // decoded profiles of the finished passes
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), root: -1} }

func (t *tracer) begin(name, layer string, kind int) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: t.root, Name: name, Layer: layer, kind: kind,
		StartNS: time.Since(t.epoch).Nanoseconds(),
	})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNS = time.Since(t.epoch).Nanoseconds()
}

// profileHz is the CPU-profile sampling rate of a traced pass.
const profileHz = 500

// startPass opens a pass's root span — every span until endPass is its
// child — and starts the CPU profile that covers the same interval.
func (t *tracer) startPass(name string) error {
	if t == nil {
		return nil
	}
	t.prof.Reset()
	// runtime/pprof fixes its rate at 100 Hz — some 150 samples for a
	// 1.5 s pass, too few to split thirty ways. Setting the rate first
	// makes the runtime keep it: StartCPUProfile's own SetCPUProfileRate
	// call is refused (the runtime says so on stderr, once per traced
	// pass) and the profile records at profileHz.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	t.passes++
	t.root = -1
	t.root = t.begin(fmt.Sprintf("%s pass %d", name, t.passes), "bench", spanPass)
	return nil
}

// endPass closes the root span, stops the profile and keeps its samples.
func (t *tracer) endPass() error {
	if t == nil {
		return nil
	}
	t.end(t.root)
	t.root = -1
	pprof.StopCPUProfile()
	s, err := parseProfile(t.prof.Bytes())
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	t.samples = append(t.samples, s...)
	return nil
}

// seconds sums the durations of the spans of one kind.
func (t *tracer) seconds(kind int) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.kind == kind {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e9
}

// chromeJSON renders the spans in the Chrome trace-event format
// (chrome://tracing, ui.perfetto.dev): one complete ("X") event per span
// with microsecond timestamps; args carry the span and parent ids.
func (t *tracer) chromeJSON() ([]byte, error) {
	type ev struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, len(t.spans))
	for i, s := range t.spans {
		evs[i] = ev{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.StartNS) / 1e3, Dur: float64(s.EndNS-s.StartNS) / 1e3,
			PID: 1, TID: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		}
	}
	return json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// counters sums, over every trial of the traced passes, the counters the
// layers already export. All of them are functions of the simulation
// alone, so two commits compare exactly.
type counters struct {
	simElapsedUS float64

	segsIn, segsOut, fastPath, retransmits, dupOOO, delayedAcks int64
	pcbLookups, pcbCacheHits, pcbSearched                       int64
	hdrReuses, hdrNews, pageReuses, pageNews, poolLive          int64
	cellsSent, cellsSwitched, adapterDrops, switchDrops         int64
	vcsSetUp, etherFrames, ipDrops, clusterRounds               int64
	testbedsBuilt, testbedsReused                               int64
}

// readLab adds one finished trial's counters. It must run before the
// lab's next Reset, which zeroes them.
func (c *counters) readLab(l *lab.Lab, elapsed sim.Time) {
	c.simElapsedUS += elapsed.Micros()
	for _, h := range l.Hosts {
		s := &h.TCP.Stats
		c.segsIn += s.SegsIn
		c.segsOut += s.SegsOut
		c.fastPath += s.FastPathData + s.FastPathAck
		c.retransmits += s.Retransmits
		c.dupOOO += s.DupSegs + s.OutOfOrderSegs
		c.delayedAcks += s.DelayedAcks
		c.pcbLookups += h.TCP.Table.Lookups
		c.pcbCacheHits += h.TCP.Table.CacheHits
		c.pcbSearched += h.TCP.Table.TotalSearched
		p := &h.Kern.Pool.PoolStats
		c.hdrReuses += p.HeaderReuses
		c.hdrNews += p.HeaderNews
		c.pageReuses += p.PageReuses
		c.pageNews += p.PageNews
		c.poolLive += p.LiveHeaders + p.LivePages
		c.ipDrops += h.IP.Drops
		if h.ATMAdapter != nil {
			c.cellsSent += h.ATMAdapter.CellsSent
			c.adapterDrops += h.ATMAdapter.CellsDropped
		}
		if h.EthAdapter != nil {
			c.etherFrames += h.EthAdapter.FramesSent
		}
	}
	if f := l.Fabric; f != nil {
		c.vcsSetUp += int64(f.NumRoutes())
		c.cellsSwitched += f.Core.CellsSwitched
		c.switchDrops += f.Core.CellsDropped
		for _, leaf := range f.Leaves {
			c.cellsSwitched += leaf.CellsSwitched
			c.switchDrops += leaf.CellsDropped
		}
	}
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics renders the counters as per-layer metrics, averaged over the
// passes they were summed across.
func (c *counters) metrics(passes int) map[string]float64 {
	n := float64(passes)
	per := func(v int64) float64 { return float64(v) / n }
	return map[string]float64{
		"sim.sim_elapsed_us":           c.simElapsedUS / n,
		"tcp.segs_in":                  per(c.segsIn),
		"tcp.segs_out":                 per(c.segsOut),
		"tcp.fastpath_ratio":           ratio(c.fastPath, c.segsIn),
		"tcp.retransmits":              per(c.retransmits),
		"tcp.dup_ooo_segs":             per(c.dupOOO),
		"tcp.delayed_acks":             per(c.delayedAcks),
		"pcb.cache_hit_ratio":          ratio(c.pcbCacheHits, c.pcbLookups),
		"pcb.searched_per_lookup":      ratio(c.pcbSearched, c.pcbLookups),
		"mbuf.header_reuse_ratio":      ratio(c.hdrReuses, c.hdrReuses+c.hdrNews),
		"mbuf.page_reuse_ratio":        ratio(c.pageReuses, c.pageReuses+c.pageNews),
		"mbuf.heap_news":               per(c.hdrNews + c.pageNews),
		"mbuf.live_at_end":             per(c.poolLive),
		"atm.cells_sent":               per(c.cellsSent),
		"atm.cells_switched":           per(c.cellsSwitched),
		"atm.cells_dropped":            per(c.adapterDrops + c.switchDrops),
		"atm.qdisc_drop_ratio":         ratio(c.switchDrops, c.cellsSwitched),
		"atm.vcs_set_up":               per(c.vcsSetUp),
		"ether.frames_sent":            per(c.etherFrames),
		"ip.drops":                     per(c.ipDrops),
		"lab.cluster_rounds":           per(c.clusterRounds),
		"runner.testbeds_reused_ratio": ratio(c.testbedsReused, c.testbedsReused+c.testbedsBuilt),
	}
}

// acquire gets the trial's lab from the worker's warm-testbed cache
// under a span named for what the cache did: lab.NewTopology on a miss,
// Lab.Reset on a hit.
func (t *tracer) acquire(tb *runner.Testbeds, cfg lab.Config, hosts int) *lab.Lab {
	sp := t.begin("Lab.Reset", "lab", spanReset)
	defer t.end(sp) // tb.Lab panics on a pool leak; the runner turns that into a trial error
	built := tb.Built
	l := tb.Lab(cfg, hosts)
	if tb.Built != built {
		t.spans[sp].Name, t.spans[sp].kind = "lab.NewTopology", spanConstruct
		t.counters.testbedsBuilt++
	} else {
		t.counters.testbedsReused++
	}
	return l
}

// afterTrial reads the finished trial's counters and, for a trial built
// with the pool-leak gate (Config.CheckLeaks), checks that every mbuf
// went back to its pool — the check Lab.Reset makes on the untraced path.
func (t *tracer) afterTrial(l *lab.Lab, elapsed sim.Time) error {
	sp := t.begin("read counters", "bench", spanCounters)
	defer t.end(sp)
	t.counters.readLab(l, elapsed)
	if hdrs, pages := l.PoolLive(); l.Config.CheckLeaks && (hdrs != 0 || pages != 0) {
		return fmt.Errorf("mbuf pool leak: %d headers, %d pages live after the trial", hdrs, pages)
	}
	return nil
}

// tracedEchoSweep is runner.RunEchoSweep with the harness's own jobs:
// the same acquire → RunEcho → aggregate sequence, each step in a span,
// the lab's counters read after every trial. The outcomes — and so the
// digest — must equal RunEchoSweep's.
func tracedEchoSweep(t *tracer, trials []runner.EchoTrial, o runner.Options) ([]runner.EchoOutcome, error) {
	jobs := make([]runner.Job, len(trials))
	for i, tr := range trials {
		tr := tr
		jobs[i] = runner.Job{Label: tr.Label, RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
			l := t.acquire(tb, runner.ApplySeed(tr.Cfg, seed), 2)
			sp := t.begin("Lab.RunEcho", "workload", spanRun)
			var res *lab.EchoResult
			var err error
			if tr.UDP {
				res, err = l.RunUDPEcho(tr.Size, tr.Iterations, tr.Warmup)
			} else {
				res, err = l.RunEcho(tr.Size, tr.Iterations, tr.Warmup)
			}
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("collect", "stats", spanCollect)
			var s stats.Sample
			for _, rtt := range res.RTTs {
				s.Add(rtt.Micros())
			}
			q := s.Quantiles()
			eo := runner.EchoOutcome{
				Size: tr.Size, N: s.N(),
				MeanMicros: s.Mean(), MedianMicros: q.P50, P95Micros: q.P95, P99Micros: q.P99,
				MinMicros: s.Min(), MaxMicros: s.Max(), StdDevMicros: s.StdDev(),
				CorruptEchoes: res.CorruptEchoes,
			}
			t.end(sp)
			return eo, t.afterTrial(l, l.Env.Now())
		}}
	}
	outs, err := runner.Run(context.Background(), jobs, o)
	res := make([]runner.EchoOutcome, len(outs))
	for i, out := range outs {
		eo, _ := out.Value.(runner.EchoOutcome)
		if out.Err != nil {
			eo = runner.EchoOutcome{Size: trials[i].Size, Error: out.Err.Error()}
		}
		eo.Label, eo.Index, eo.Seed = out.Label, out.Index, out.Seed
		res[i] = eo
	}
	return res, err
}

// tracedWorkloadSweep is runner.RunWorkloadSweep with the harness's own
// jobs, as tracedEchoSweep is to RunEchoSweep.
func tracedWorkloadSweep(t *tracer, trials []runner.WorkloadTrial, o runner.Options) ([]runner.WorkloadOutcome, error) {
	jobs := make([]runner.Job, len(trials))
	for i, tr := range trials {
		tr := tr
		jobs[i] = runner.Job{Label: tr.Label, RunOn: func(_ context.Context, tb *runner.Testbeds, seed uint64) (any, error) {
			l := t.acquire(tb, runner.ApplySeed(tr.Cfg, seed), tr.Hosts)
			sp := t.begin(tr.Gen.Name()+".Run", "workload", spanRun)
			r, err := tr.Gen.Run(l)
			t.end(sp)
			if err != nil {
				return nil, err
			}
			sp = t.begin("collect", "stats", spanCollect)
			s := r.Sample()
			q := s.Quantiles()
			wo := runner.WorkloadOutcome{
				Workload: r.Workload, Hosts: tr.Hosts, Requests: r.Requests, Errors: r.Errors, Bytes: r.Bytes,
				ElapsedMicros: r.Elapsed.Micros(),
				MeanMicros:    s.Mean(), P50Micros: q.P50, P95Micros: q.P95, P99Micros: q.P99,
				MinMicros: s.Min(), MaxMicros: s.Max(),
			}
			if len(r.Events) > 0 {
				wo.Trace = trace.BuildTimelines(r.Events)
			}
			t.end(sp)
			return wo, t.afterTrial(l, r.Elapsed)
		}}
	}
	outs, err := runner.Run(context.Background(), jobs, o)
	res := make([]runner.WorkloadOutcome, len(outs))
	for i, out := range outs {
		wo, _ := out.Value.(runner.WorkloadOutcome)
		if out.Err != nil {
			wo = runner.WorkloadOutcome{Workload: trials[i].Gen.Name(), Hosts: trials[i].Hosts, Error: out.Err.Error()}
		}
		wo.Label, wo.Index, wo.Seed = out.Label, out.Index, out.Seed
		res[i] = wo
	}
	return res, err
}
