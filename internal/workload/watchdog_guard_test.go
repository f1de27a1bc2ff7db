package workload

import (
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
)

// These are the watchdog guard tests: they put the two traffic shapes
// that historically hung the suite into a run that cannot make progress
// — the server's access link goes down mid-run and never comes back —
// and assert the no-progress watchdog converts the stall into a failing
// run whose diagnostic names the stuck connections, long before the
// transports' own give-up (minutes of backoff) would end it. The fixes
// themselves are pinned where they live: TestGiveUpDrainsOrphanedTeardown
// below and bulk_submss_test.go. If a future change reintroduces either
// livelock, the same watchdog (armed by default in every generator)
// fails the affected test with the same diagnostic.

// guardHorizon is the short no-progress bound the guards arm: far above
// a request's round trip, far below TCP's give-up.
const guardHorizon = 5 * sim.Second

// serverLinkDown severs host 0's access link at the given time, for good.
func serverLinkDown(at sim.Time) sim.FaultSchedule {
	return sim.FaultSchedule{{At: at, Kind: sim.FaultLinkDown, Host: 0}}
}

// assertWatchdogDiag checks the error is the watchdog abort with the
// full diagnostic: the stall headline, the pending-event histogram, and
// at least one stuck connection with its retransmission backoff.
func assertWatchdogDiag(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		t.Fatal("run completed; want the watchdog to abort the stall")
	}
	for _, want := range []string{
		"watchdog", "no workload progress", "pending events", "rexmt-shift",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("watchdog diagnostic missing %q:\n%v", want, err)
		}
	}
}

// orphanedTeardownCfg is the PR 9 orphaned-teardown livelock
// configuration, verbatim from the loaded-study regression test
// (core/loaded_test.go): RED on the switch ports, Gilbert–Elliott burst
// loss on the links, cross traffic beside the measured fan-in, seed 0.
// Burst loss plus RED kills whole teardown exchanges; before transport
// give-up the orphaned closer retransmitted its FIN forever.
func orphanedTeardownCfg() lab.Config {
	return lab.Config{
		Link: lab.LinkATM, Seed: 0, PacketTrace: true,
		Qdisc:     lab.QdiscConfig{Kind: lab.QdiscRED},
		BurstLoss: sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
	}
}

// TestWatchdogCatchesOrphanedTeardownLivelock runs the orphaned-teardown
// shape into a dead server link: every client is left retransmitting
// into the void, and the watchdog must abort with a diagnostic rather
// than let the run ride the backoff schedule.
func TestWatchdogCatchesOrphanedTeardownLivelock(t *testing.T) {
	l := lab.NewTopology(orphanedTeardownCfg(), 5)
	l.ArmWatchdog(guardHorizon)
	g := FanIn{Requests: 2, Warmup: 1, Cross: &CrossTraffic{Flows: 2},
		Faults: serverLinkDown(2 * sim.Millisecond)}
	_, err := g.Run(l)
	assertWatchdogDiag(t, err)
}

// TestGiveUpDrainsOrphanedTeardown is the control: the identical
// configuration with its links up drains the orphaned teardown within
// the transport's bounded backoff, well inside the default watchdog
// horizon — the run completes and the watchdog stays quiet.
func TestGiveUpDrainsOrphanedTeardown(t *testing.T) {
	l := lab.NewTopology(orphanedTeardownCfg(), 5)
	g := FanIn{Requests: 2, Warmup: 1, Cross: &CrossTraffic{Flows: 2}}
	r, err := g.Run(l)
	if err != nil {
		t.Fatalf("give-up should bound the teardown drain: %v", err)
	}
	if r.Errors != 0 {
		t.Fatalf("Errors = %d, want 0", r.Errors)
	}
}

// TestWatchdogCatchesSubMSSBulkCollapse runs the sub-MSS bulk shape
// scaled to the cliff — sixteen clients streaming one-byte writes — into
// the same dead link. Bulk completes one operation a client, at the end,
// so the watchdog is all that tells this stall from a slow transfer; it
// must name the senders still backing off.
func TestWatchdogCatchesSubMSSBulkCollapse(t *testing.T) {
	cfg := lab.Config{Link: lab.LinkATM, Seed: 1, PacketTrace: true}
	l := lab.NewTopology(cfg, 17)
	l.ArmWatchdog(guardHorizon)
	if err := l.ScheduleFaults(serverLinkDown(5 * sim.Millisecond)); err != nil {
		t.Fatal(err)
	}
	g := Bulk{Bytes: 16384, Chunk: 1}
	_, err := g.Run(l)
	assertWatchdogDiag(t, err)
}
