package workload

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// deadTimers counts the pending entries that will only expire: stopped
// or superseded timers walking to their last deadline, which
// PendingSummary sets apart as "name(dead)×n".
func deadTimers(env *sim.Env) int {
	dead := 0
	for _, tok := range strings.Fields(env.PendingSummary(1 << 20)) {
		if name, n, ok := strings.Cut(tok, "×"); ok && strings.HasSuffix(name, "(dead)") {
			k, _ := strconv.Atoi(n)
			dead += k
		}
	}
	return dead
}

// TestStaggeredFanInEventBudget is the event-count tripwire on the 10k
// benchmark's shape at a tenth of its size: 1,000 clients on the fat
// tree, starts 5 ms apart, one 200-byte request each over three switch
// hops. A cell costs one event a hop — its arrival — so a whole
// exchange, handshake and teardown included, fits in 500 events (690
// when every hop also fired a transmit-complete event, about 480 while
// every sleep that had to wait parked behind a wake event, about 350
// since it serves the events ahead of its wake). The probe bounds
// the live work pending: not the starts still queued, which ride one
// lane, and not the ~1,600 stopped retransmit timers a closed connection
// leaves behind for an RTO (sweeping those was measured and bought
// nothing — docs/PERFORMANCE.md §14).
func TestStaggeredFanInEventBudget(t *testing.T) {
	const clients, stagger = 1000, 5000 * sim.Microsecond
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Fabric: lab.FabricFatTree, Seed: 1994, HashPCBs: true}, clients+1)
	env := l.Env
	peak, probes := 0, uint64(0)
	var probe func()
	probe = func() {
		queued := clients - 1 - int(env.Now()/stagger) // starts not yet due
		if queued < 0 {
			queued = 0
		}
		n := env.Pending() - queued - deadTimers(env)
		if n <= 0 {
			return // drained: stop probing so the run can end
		}
		if n > peak {
			peak = n
		}
		probes++
		env.After(10*sim.Millisecond, "test.probe", probe)
	}
	env.After(sim.Millisecond, "test.probe", probe)
	res, err := FanIn{Size: 200, Requests: 1, Stagger: stagger, Stats: stats.Config{Streaming: true}}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != clients || res.Errors != 0 {
		t.Fatalf("%d of %d requests, %d errors", res.Requests, clients, res.Errors)
	}
	perReq := float64(env.Fired()-probes) / clients
	t.Logf("%d events (%.0f a request), peak %d live pending over %d probes", env.Fired(), perReq, peak, probes)
	if probes < 400 {
		t.Fatalf("only %d probes: the probe stopped before the clients did", probes)
	}
	if perReq > 500 {
		t.Errorf("%.0f events a request, want <= 500", perReq)
	}
	if peak > 600 {
		t.Errorf("peak %d live pending events, want <= 600", peak)
	}
}
