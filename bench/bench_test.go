package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/runner"
	"repro/internal/workload"
)

// TestManifest checks BENCHMARK.json against the harness's own tables
// and against the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifest()) {
		t.Error("BENCHMARK.json differs from the harness's tables; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, n := range workloadNames {
		check(n)
		if why := workloadWhy[n]; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, have %d", n, len(why))
		}
	}
	setup := false
	for _, d := range endToEnd {
		check(d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == lower)
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, d := range perLayerMetrics {
		check(d.Name)
	}
	if n := len(workloadNames); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2-8", n)
	}
	if n := len(endToEnd); n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 16", n)
	}
	if n := len(perLayerMetrics); n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 128", n)
	}
}

func sameNames(t *testing.T, what string, got map[string]float64, want []metricDef) {
	t.Helper()
	declared := map[string]bool{}
	for _, d := range want {
		declared[d.Name] = true
		if _, ok := got[d.Name]; !ok {
			t.Errorf("%s: declared metric %s was not emitted", what, d.Name)
		}
	}
	for k := range got {
		if !declared[k] {
			t.Errorf("%s: emitted metric %s is not declared", what, k)
		}
	}
}

// TestSmoke runs every workload end to end and traced (kernels
// included) at smoke scale and checks what the interaction table in
// README.md relies on.
func TestSmoke(t *testing.T) {
	const seed = 1994
	digests := map[string]string{}
	for _, name := range workloadNames {
		r, err := measure(name, seed, 0.05, true)
		if err != nil {
			t.Fatal(err)
		}
		if r.Skipped != "" {
			t.Logf("%s skipped: %s", name, r.Skipped)
			continue
		}
		tr, err := traced(name, seed, 0.6, true, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range []*report{r, tr} {
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d problems=%v", name, rep.Correct, rep.Attempted, rep.Failed, rep.Problems)
			}
		}
		if tr.Digest != r.Digest {
			t.Errorf("%s: traced digest %s, untraced %s", name, short(tr.Digest), short(r.Digest))
		}
		digests[name] = r.Digest
		sameNames(t, name+" end to end", r.EndToEnd, endToEnd)
		sameNames(t, name+" per layer", tr.PerLayer, perLayerMetrics)
		for k, v := range r.EndToEnd {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, k, v)
			}
		}

		p := tr.PerLayer
		if sum := topLevelSum(p); sum < 0.999 || sum > 1.001 {
			t.Errorf("%s: profile shares sum to %.4f, want 1", name, sum)
		}
		if !raceEnabled && p["other.share"] > 0.10 {
			t.Errorf("%s: other.share = %.3f: too much host time outside every named layer", name, p["other.share"])
		}
		if name != "fanin-10k-sharded" && (p["lab.cluster_share"] != 0 || p["lab.cluster_rounds"] != 0) {
			t.Errorf("%s: serial workload shows cluster work: share %v, rounds %v", name, p["lab.cluster_share"], p["lab.cluster_rounds"])
		}
		if name == "fanin-10k-sharded" && p["lab.cluster_rounds"] == 0 {
			t.Errorf("%s: no barrier rounds counted", name)
		}
		if strings.HasPrefix(name, "echo-") && p["atm.cells_switched"] != 0 {
			t.Errorf("%s: %v cells switched on a switchless fiber", name, p["atm.cells_switched"])
		}
		if (name == "loaded-grid") != (p["tcp.retransmits"] > 0) {
			t.Errorf("%s: tcp.retransmits = %v; only loaded-grid loses segments", name, p["tcp.retransmits"])
		}
		if name != "loaded-grid" && p["mbuf.live_at_end"] != 0 {
			t.Errorf("%s: %v mbufs live at the end of trials", name, p["mbuf.live_at_end"])
		}
		if strings.HasPrefix(name, "echo-") != (p["core.paper_rtt_err_pct"] > 0) {
			t.Errorf("%s: paper error %v; only the echo workloads have a published reference", name, p["core.paper_rtt_err_pct"])
		}
	}
	if a, b := digests["fanin-10k"], digests["fanin-10k-sharded"]; b != "" && a != b {
		t.Errorf("sharded digest %s differs from serial %s", short(b), short(a))
	}
}

// TestSeedChangesInputs: the same seed gives the same inputs and the
// same simulation, a different seed different ones.
func TestSeedChangesInputs(t *testing.T) {
	sizes := func(seed uint64) string {
		var b strings.Builder
		for _, tr := range append(echoSmallTrials(seed, 40, 1), echoLargeTrials(seed, 3, 1)...) {
			fmt.Fprint(&b, tr.Size, " ")
		}
		w, err := newWorkload("fanin-10k", seed, true)
		if err != nil {
			t.Fatal(err)
		}
		_, res := timePass(w, nil, false)
		return b.String() + res.digest
	}
	if sizes(1) != sizes(1) {
		t.Error("the same seed produced two different sets of inputs")
	}
	if sizes(1) == sizes(2) {
		t.Error("seeds 1 and 2 produced the same inputs: they do not depend on -seed")
	}
}

// TestCalibrationKernel: the kernel does the same work on every call
// and leaves the Go heap alone, so nothing but the machine moves it.
func TestCalibrationKernel(t *testing.T) {
	k, err := sharedRefKernel()
	if err != nil {
		t.Fatal(err)
	}
	work := func() uint64 {
		before := k.sink
		k.run()
		return k.sink - before
	}
	if a, b := work(), work(); a != b || a == 0 {
		t.Errorf("two runs of the kernel computed %#x and %#x: not the same work", a, b)
	}
	if n := testing.AllocsPerRun(3, k.run); n != 0 {
		t.Errorf("the kernel allocates %v objects a run", n)
	}
}

// TestChecksFire feeds the harness a workload whose second pass returns
// a different digest, and a lab with a leaked mbuf: both must fail the run.
func TestChecksFire(t *testing.T) {
	calls := 0
	flaky := &workloadDef{name: "stub", run: func(_ *tracer, atEnd func()) passResult {
		calls++
		atEnd()
		d := "aaaa"
		if calls == 2 {
			d = "bbbb"
		}
		return passResult{digest: d, attempted: 10, simP50: 1}
	}}
	r := newReport("stub")
	if err := measureInto(r, flaky, 0); err != nil {
		t.Fatal(err)
	}
	// Every timed pass (a cold start, minPasses warm, two cold starts) has
	// a calibration of three readings either side of it.
	if want := 3 * (minPasses + 3 + 1); len(r.RefWall) != want || len(r.RefCPU) != want {
		t.Errorf("%d wall and %d CPU calibration readings, want %d", len(r.RefWall), len(r.RefCPU), want)
	}
	if r.Correct || len(r.Problems) != 1 || !strings.Contains(r.Problems[0], "digest") {
		t.Errorf("a pass with a different digest did not fail the run: correct=%v problems=%v", r.Correct, r.Problems)
	}

	silent := &workloadDef{name: "stub", run: func(*tracer, func()) passResult { return passResult{digest: "aaaa", attempted: 10} }}
	if _, res := timePass(silent, nil, false); len(res.problems) == 0 {
		t.Error("a workload that never ended its pass was not reported")
	}

	l := lab.New(lab.Config{Link: lab.LinkATM, Seed: 1, CheckLeaks: true})
	leaked := l.Hosts[0].Kern.Pool.Alloc()
	tr := newTracer()
	if err := tr.afterTrial(l, 0); err == nil || !strings.Contains(err.Error(), "leak") {
		t.Errorf("a live mbuf after the trial was not reported: %v", err)
	}
	l.Hosts[0].Kern.Pool.Free(leaked)
	if err := tr.afterTrial(l, 0); err != nil {
		t.Errorf("a clean lab was reported: %v", err)
	}

	// The same leak on the untraced path: the CheckLeaks gate every
	// trial is built with turns it into a failed trial at the next Reset.
	w := echoWorkload("stub", 1, checkLeaks([]runner.EchoTrial{
		{Label: "a", Cfg: lab.Config{Link: lab.LinkATM}, Size: 4, Iterations: 2},
		{Label: "b", Cfg: lab.Config{Link: lab.LinkATM}, Size: 4, Iterations: 2},
	}))
	if _, res := timePass(w, nil, false); res.failed != 0 || len(res.problems) != 0 {
		t.Errorf("clean two-trial sweep reported failures: %+v", res)
	}
}

// TestLoadedGridTrafficIsLoaded verifies what the loaded-grid constants
// were tuned for (README "loaded-grid: verified, not guessed"): with the
// same simulation seed under every discipline, RED makes drop decisions
// on the switch where drop-tail and DRR never fill their 1024 cells, and
// the three disciplines produce different latency distributions.
func TestLoadedGridTrafficIsLoaded(t *testing.T) {
	drops := map[string]int64{}
	p50 := map[string]float64{} // per discipline, summed over transports and seeds
	for seed := uint64(7); seed < 10; seed++ {
		for _, tr := range loadedGridTrials(1, 33, 32) {
			tr.Cfg.Seed = seed // the same lotteries under every discipline
			tc := newTracer()
			outs, err := tracedWorkloadSweep(tc, []runner.WorkloadTrial{tr}, runner.Options{Workers: 1})
			if err != nil || outs[0].Error != "" {
				t.Fatalf("%s: %v %s", tr.Label, err, outs[0].Error)
			}
			kind := tr.Cfg.Qdisc.Kind.String()
			p50[kind] += outs[0].P50Micros
			drops[tr.Gen.(workload.FanIn).Transport+"/"+kind] += tc.counters.switchDrops
		}
	}
	for _, transport := range []string{"tcp", "rudp"} {
		if drops[transport+"/red"] == 0 {
			t.Errorf("%s: RED dropped nothing in three seeds: its queue never crossed the minimum threshold", transport)
		}
		if d := drops[transport+"/droptail"] + drops[transport+"/drr"]; d != 0 {
			t.Errorf("%s: drop-tail and DRR should not overflow 1024 cells, dropped %d", transport, d)
		}
	}
	if dt, red, drr := p50["droptail"], p50["red"], p50["drr"]; dt == red || dt == drr || red == drr {
		t.Errorf("disciplines are indistinguishable: summed p50 droptail %.1f red %.1f drr %.1f", dt, red, drr)
	}
}
