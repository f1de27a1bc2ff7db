package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// traced is the run behind the per-layer metrics. It never feeds the
// end-to-end numbers. After a warm-up pass it alternates untraced and
// traced passes for at least half the given time: every traced pass
// runs under a CPU profile the harness starts and stops, inside a root
// span, with counters read after each trial; the untraced neighbours
// price the tracing itself. The layer kernels run afterwards. With
// dir non-empty the spans and the per-layer table are written there.
func traced(name string, seed uint64, seconds float64, smoke bool, dir string) (*report, error) {
	w, r, err := open(name, seed, smoke)
	if err != nil || r.Skipped != "" {
		return r, err
	}
	_, res := timePass(w, nil, false)
	r.absorb("warm-up", res)

	t := newTracer()
	var (
		plainWall, tracedWall []float64
		last                  passCost
		lastRes               passResult
	)
	for began := time.Now(); r.Passes == 0 || time.Since(began).Seconds() < seconds/2; r.Passes++ {
		c, res := timePass(w, nil, false)
		r.absorb("untraced", res)
		plainWall = append(plainWall, c.wall)

		last, lastRes = timePass(w, t, true)
		r.absorb("traced", lastRes)
		tracedWall = append(tracedWall, last.wall)
	}

	m := t.counters.metrics(r.Passes)
	n := float64(r.Passes)
	wall := median(tracedWall)
	for k, v := range bucketShares(t.samples) {
		m[k] = v
	}
	m["failed_share"] = float64(r.Failed) / float64(r.Attempted)
	m["lab.construct_s"] = t.seconds(spanConstruct) / n
	m["lab.reset_s"] = t.seconds(spanReset) / n
	m["workload.run_s"] = t.seconds(spanRun) / n
	m["stats.collect_s"] = t.seconds(spanCollect) / n
	m["trace_overhead_ratio"] = wall / median(plainWall)
	m["workload.sim_p99_us"] = lastRes.simP99
	m["workload.sim_mean_us"] = lastRes.simMean
	m["core.paper_rtt_err_pct"] = lastRes.paperErr
	m["sim.sim_us_per_wall_us"] = m["sim.sim_elapsed_us"] / (wall * 1e6)
	m["atm.cells_per_wall_s"] = m["atm.cells_sent"] / wall
	m["tcp.segs_per_wall_s"] = m["tcp.segs_in"] / wall
	m["lab.heap_kb_per_host"] = float64(last.liveHeap) / 1024 / float64(lastRes.hosts)
	if rounds := m["lab.cluster_rounds"]; rounds > 0 {
		m["lab.us_per_round"] = m["workload.run_s"] * 1e6 / rounds
	}
	m["runtime.gc_cycles"] = float64(last.gcCycles)
	for k, v := range runKernels(smoke) {
		m[k] = v
	}
	m["runtime.peak_rss_mb"] = peakRSSMB()

	// Every declared per-layer metric is reported, zero when the workload
	// never touches the layer. A package under repro/internal that the
	// declaration does not know yet has its own bucket; to keep the
	// metric set fixed it is named in a warning and counted under
	// other.share until manifest.go declares it.
	r.PerLayer = map[string]float64{}
	declared := map[string]bool{}
	for _, d := range perLayerMetrics {
		declared[d.Name] = true
		r.PerLayer[d.Name] = m[d.Name]
	}
	var undeclared []string
	for k, v := range m {
		if !declared[k] {
			undeclared = append(undeclared, fmt.Sprintf("%s=%.4f", k, v))
			r.PerLayer["other.share"] += v
		}
	}
	sort.Strings(undeclared)
	if len(undeclared) > 0 {
		fmt.Fprintf(os.Stderr, "bench: %s: profile buckets not declared in BENCHMARK.json, folded into other.share: %s\n",
			name, strings.Join(undeclared, " "))
	}
	if dir != "" {
		if err := writeTrace(dir, name, t, r); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeTrace stores a traced run's spans (Chrome trace format) and its
// per-layer table under dir.
func writeTrace(dir, name string, t *tracer, r *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := t.chromeJSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# %s: per-layer metrics of a traced run (digest %s, %d traced passes)\n", name, short(r.Digest), r.Passes)
	for _, d := range perLayerMetrics {
		fmt.Fprintf(&b, "%-34s %16.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.txt"), []byte(b.String()), 0o644)
}
