package core

import (
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestRunLoadedStudy runs the loaded study small and checks both
// transports complete, attribution is populated, and the render carries
// the comparison.
func TestRunLoadedStudy(t *testing.T) {
	o := LoadedOptions{
		Hosts: 4, Requests: 3, Size: 200,
		Qdisc:      lab.QdiscConfig{Kind: lab.QdiscRED},
		CrossFlows: 1,
		Parallel:   1,
	}
	res, err := RunLoadedStudy(o)
	if err != nil {
		t.Fatalf("RunLoadedStudy: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows, want 2", len(res.Rows))
	}
	for i, tr := range []string{workload.TransportTCP, workload.TransportRUDP} {
		row := res.Rows[i]
		if row.Transport != tr {
			t.Errorf("row %d transport %q, want %q", i, row.Transport, tr)
		}
		if want := 3 * 3; row.Requests != want {
			t.Errorf("%s: %d requests, want %d", tr, row.Requests, want)
		}
		if row.Errors != 0 {
			t.Errorf("%s: %d errors", tr, row.Errors)
		}
		if row.MeanMicros <= 0 || row.Quantiles.P99 < row.Quantiles.P50 {
			t.Errorf("%s: degenerate latency stats %+v", tr, row)
		}
		if len(row.ServerCPU) == 0 {
			t.Errorf("%s: empty server CPU attribution", tr)
		}
	}
	out := res.Render()
	for _, want := range []string{"loaded fan-in", "tcp", "rudp", "Server CPU attribution", "cross flows"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRunLoadedStudyDeterministicAcrossWorkers pins the sweep property:
// the study is bit-identical at any parallelism.
func TestRunLoadedStudyDeterministicAcrossWorkers(t *testing.T) {
	o := LoadedOptions{
		Hosts: 4, Requests: 2,
		Qdisc:      lab.QdiscConfig{Kind: lab.QdiscRED},
		CrossFlows: 1,
		BaseSeed:   7,
	}
	run := func(workers int) string {
		o := o
		o.Parallel = workers
		res, err := RunLoadedStudy(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res.Render()
	}
	serial := run(1)
	if par := run(2); par != serial {
		t.Error("loaded study diverged between 1 and 2 workers")
	}
}

// TestRunLoadedStudyDrainsOrphanedTeardown is the regression pin for a
// livelock: under burst loss a cross-traffic flow's closing FIN can be
// lost after its peer's PCB has already expired out of TIME_WAIT, so
// the retransmissions go unanswered forever — and before TCP (and
// rudp) grew a retransmission give-up, the event queue never drained
// and this exact configuration (the CLI's default seed path) spun for
// hundreds of simulated years. It must now complete, with the measured
// requests untouched by the orphaned teardown.
func TestRunLoadedStudyDrainsOrphanedTeardown(t *testing.T) {
	o := LoadedOptions{
		Hosts: 5, Requests: 2,
		Qdisc:      lab.QdiscConfig{Kind: lab.QdiscRED},
		BurstLoss:  sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
		CrossFlows: 2,
		Parallel:   1,
		BaseSeed:   0,
	}
	res, err := RunLoadedStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if want := 2 * 4; row.Requests != want {
			t.Errorf("%s: %d requests, want %d", row.Transport, row.Requests, want)
		}
		if row.Errors != 0 {
			t.Errorf("%s: %d errors (give-up bled into measured flows)", row.Transport, row.Errors)
		}
	}
}
