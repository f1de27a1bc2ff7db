package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// defaultSeconds is how long one run measures (BENCHMARK.json's
// run_seconds). Passes are whole, so a run measures for at least this
// long and at most one pass longer.
const defaultSeconds = 12

// minPasses is the fewest warm passes a run reduces to one reported value.
const minPasses = 3

// report is everything one invocation learned about one workload.
type report struct {
	Workload  string   `json:"workload"`
	Skipped   string   `json:"skipped,omitempty"`
	Digest    string   `json:"digest,omitempty"`
	Correct   bool     `json:"correct"`
	Problems  []string `json:"problems,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Passes    int      `json:"passes"`
	// RefWall and RefCPU are every reading of the calibration kernel, in
	// order, three between each two timed passes: what the wall_s,
	// setup_s and cpu_s samples have been scaled by.
	RefWall []float64 `json:"ref_wall_s,omitempty"`
	RefCPU  []float64 `json:"ref_cpu_s,omitempty"`
	// Samples holds every per-pass value behind each end-to-end metric,
	// so -compare can take quartiles and test for overlap.
	Samples  map[string][]float64 `json:"samples,omitempty"`
	EndToEnd map[string]float64   `json:"end_to_end,omitempty"`
	PerLayer map[string]float64   `json:"per_layer,omitempty"`
}

func newReport(name string) *report {
	return &report{Workload: name, Correct: true, Samples: map[string][]float64{}}
}

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// absorb folds one pass's outcome into the report: operation counts,
// and the rule that every pass of a run produces the same digest.
func (r *report) absorb(kind string, p passResult) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	for _, msg := range p.problems {
		r.problem("%s pass: %s", kind, msg)
	}
	switch {
	case r.Digest == "":
		r.Digest = p.digest
	case p.digest != r.Digest:
		r.problem("%s pass: digest %s differs from the run's first pass %s", kind, short(p.digest), short(r.Digest))
	}
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// passCost is the host-side cost of one pass.
type passCost struct {
	wall, cpu     float64 // seconds
	mallocs, size uint64  // heap allocations and bytes
	gcCycles      uint32
	liveHeap      uint64 // HeapAlloc after a forced GC with the pass's testbeds alive; 0 unless probed
}

// rusage reads the process's resource usage; the call cannot fail for
// RUSAGE_SELF with a valid pointer, so an error reads as zeros.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

// timePass runs one pass and measures it from its start to the moment
// the workload reports its last trial finished (atEnd): result hashing
// and the harness's own checks fall outside. A GC runs before the timed
// region so no pass pays for its predecessor's garbage. A traced pass
// (t non-nil) runs inside a root span and under a CPU profile that cover
// exactly the timed region. With probeHeap the live heap is sampled at
// atEnd, after the clocks and the profile have stopped.
func timePass(w *workloadDef, t *tracer, probeHeap bool) (passCost, passResult) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	var c passCost
	runtime.ReadMemStats(&m0)
	profErr := t.startPass(w.name)
	cpu0 := cpuSeconds()
	start := time.Now()
	ended := false
	res := w.run(t, func() {
		c.wall = time.Since(start).Seconds()
		c.cpu = cpuSeconds() - cpu0
		if profErr == nil {
			profErr = t.endPass()
		}
		runtime.ReadMemStats(&m1)
		ended = true
		if probeHeap {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			c.liveHeap = m.HeapAlloc
		}
	})
	if !ended {
		res.problems = append(res.problems, "workload never reported the end of its pass")
	}
	if profErr != nil {
		res.problems = append(res.problems, profErr.Error())
	}
	c.mallocs, c.size, c.gcCycles = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return c, res
}

// coldStart measures set-up: every testbed of earlier passes is already
// unreachable, so after returning the heap to the operating system one
// full pass pays for construction, lazy host and VC build, cache fill,
// and growing the heap again.
func coldStart(w *workloadDef, probeHeap bool) (passCost, passResult) {
	debug.FreeOSMemory()
	return timePass(w, nil, probeHeap)
}

// open builds the named workload and its empty report; the report comes
// back Skipped when this machine cannot run the workload.
func open(name string, seed uint64, smoke bool) (*workloadDef, *report, error) {
	w, err := newWorkload(name, seed, smoke)
	if err != nil {
		return nil, nil, err
	}
	r := newReport(name)
	if name == "fanin-10k-sharded" && runtime.NumCPU() < 2 {
		r.Skipped = fmt.Sprintf("needs 2 CPUs for its 2 shards, this machine has %d", runtime.NumCPU())
	}
	return w, r, nil
}

// measure is the untraced run behind the end-to-end metrics.
func measure(name string, seed uint64, seconds float64, smoke bool) (*report, error) {
	w, r, err := open(name, seed, smoke)
	if err != nil || r.Skipped != "" {
		return r, err
	}
	if name == "fanin-10k-sharded" {
		// The sharded run must reproduce the serial simulation byte for
		// byte; the serial digest is computed here, not stored.
		serial, err := newWorkload("fanin-10k", seed, smoke)
		if err != nil {
			return nil, err
		}
		_, ref := timePass(serial, nil, false)
		r.Digest = ref.digest
		for _, msg := range ref.problems {
			r.problem("serial reference pass: %s", msg)
		}
	}
	return r, measureInto(r, w, seconds)
}

// measureInto runs the passes of an end-to-end run: a cold start, whole
// warm passes for at least the given time, two more cold starts (the
// last one also samples the live heap). The calibration kernel runs
// between the passes, and each pass's wall and CPU time are reported on
// the kernel's scale (calibrate.go). r.Samples keeps every pass; the
// reported value is the median.
func measureInto(r *report, w *workloadDef, seconds float64) error {
	ref, err := sharedRefKernel()
	if err != nil {
		return fmt.Errorf("mapping the calibration kernel's memory: %w", err)
	}
	add := func(metric string, v float64) { r.Samples[metric] = append(r.Samples[metric], v) }
	before := ref.calibrate(r)
	// timed runs one pass and scales its wall and CPU time by the
	// calibrations either side of it.
	timed := func(pass func() (passCost, passResult)) (passCost, passResult) {
		c, res := pass()
		after := ref.calibrate(r)
		c.wall *= refNominal / ((before.wall + after.wall) / 2)
		c.cpu *= refNominal / ((before.cpu + after.cpu) / 2)
		before = after
		return c, res
	}

	cold, res := timed(func() (passCost, passResult) { return coldStart(w, false) })
	r.absorb("cold", res)
	add("setup_s", cold.wall)

	for began := time.Now(); r.Passes < minPasses || time.Since(began).Seconds() < seconds; r.Passes++ {
		c, res := timed(func() (passCost, passResult) { return timePass(w, nil, false) })
		r.absorb("measured", res)
		ops := float64(res.attempted)
		add("wall_s", c.wall)
		add("cpu_s", c.cpu)
		add("allocs_per_op", float64(c.mallocs)/ops)
		add("alloc_bytes_per_op", float64(c.size)/ops)
		add("sim_p50_us", res.simP50)
	}

	for i := 0; i < 2; i++ {
		cold, res = timed(func() (passCost, passResult) { return coldStart(w, i == 1) })
		r.absorb("cold", res)
		add("setup_s", cold.wall)
	}
	add("live_heap_mb", float64(cold.liveHeap)/(1<<20))

	r.EndToEnd = map[string]float64{}
	for _, d := range endToEnd {
		r.EndToEnd[d.Name] = median(r.Samples[d.Name])
		if sp := spreadOf(r.Samples[d.Name]); sp > d.Bound {
			fmt.Fprintf(os.Stderr, "bench: warning: %s %s is unsteady: its passes spread %.1f%%, more than its %.0f%% bound (a noisy machine?)\n",
				w.name, d.Name, 100*sp, 100*d.Bound)
		}
	}
	return nil
}

// spreadOf is how well the samples determine their median, as a share
// of it: the distance between the quartiles.
func spreadOf(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / m
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sorted(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the method of
// Python's statistics.quantiles(v, n=4) (exclusive), which the
// benchmark's acceptance rule is stated in. Fewer than two values have
// no spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := sorted(v)
	at := func(k int) float64 { // k-th of 4 cut points
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}
