package workload

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestFirstErrorOrder pins the one rule by which a run picks the failure
// it reports: earliest virtual time, then participant order (server,
// cross flows, clients). The forked sharded fan-in consulted clients
// before cross flows, so a cross flow failing first lost to a later
// client failure.
func TestFirstErrorOrder(t *testing.T) {
	server, cross, client0, client1 := errors.New("server"), errors.New("cross"),
		errors.New("client0"), errors.New("client1")
	const ms = sim.Millisecond
	// Participant order throughout: server, one cross flow, two clients.
	cases := []struct {
		name  string
		parts []participant
		want  error
	}{
		{"no failure", make([]participant, 4), nil},
		{"only a client", []participant{{}, {}, {}, {err: client1, errAt: 5 * ms}}, client1},
		{"cross flow before client", []participant{{}, {err: cross, errAt: 1 * ms}, {err: client0, errAt: 2 * ms}, {}}, cross},
		{"client before cross flow", []participant{{}, {err: cross, errAt: 3 * ms}, {}, {err: client1, errAt: 2 * ms}}, client1},
		{"later client before earlier-slot client", []participant{{}, {}, {err: client0, errAt: 9 * ms}, {err: client1, errAt: 4 * ms}}, client1},
		{"exact tie goes to the server", []participant{{err: server, errAt: 2 * ms}, {err: cross, errAt: 2 * ms}, {err: client0, errAt: 2 * ms}, {}}, server},
		{"exact tie, cross flow over client", []participant{{}, {err: cross, errAt: 2 * ms}, {err: client0, errAt: 2 * ms}, {}}, cross},
		{"exact tie, clients in spawn order", []participant{{}, {}, {err: client0, errAt: 2 * ms}, {err: client1, errAt: 2 * ms}}, client0},
		{"failure at time zero", []participant{{err: server, errAt: 3 * ms}, {}, {err: client0}, {}}, client0},
	}
	for _, tc := range cases {
		if got := firstError(tc.parts); got != tc.want {
			t.Errorf("%s: firstError = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestFaultRecoveryRefusedWhenSharded pins who refuses a generator that
// cannot shard: not a list of generator types, but the lab's shard-safety
// check on the crash schedule the generator tries to install.
func TestFaultRecoveryRefusedWhenSharded(t *testing.T) {
	c, err := lab.NewCluster(lab.Config{Link: lab.LinkATM, Seed: 1}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumShards() != 2 {
		t.Fatalf("cluster has %d shards, want 2", c.NumShards())
	}
	_, err = FaultRecovery{Requests: 2}.Run(c.Lab)
	if err == nil || !strings.Contains(err.Error(), "sharded execution accepts only link-flip faults") {
		t.Fatalf("FaultRecovery.Run on 2 shards = %v, want the lab's shard-safety refusal", err)
	}
}

// TestStreamingSinkFoldsAtOneShard pins where the shard count matters: a
// one-shard streaming run folds each latency as it completes and retains
// nothing per operation; only a run on several shards buffers for replay.
func TestStreamingSinkFoldsAtOneShard(t *testing.T) {
	cfg := lab.Config{Link: lab.LinkATM, Seed: 3}
	streaming := stats.Config{Streaming: true}

	one := newRun(lab.NewTopology(cfg, 5).Cluster(), 0, 4, streaming)
	if one.agg == nil || one.lats != nil || one.ats != nil {
		t.Errorf("one shard: agg=%v lats=%v ats=%v, want an aggregate and no buffers",
			one.agg != nil, one.lats != nil, one.ats != nil)
	}
	c, err := lab.NewCluster(cfg, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	two := newRun(c, 0, 4, streaming)
	if two.agg != nil || len(two.lats) != 16 || len(two.ats) != 16 {
		t.Errorf("two shards: agg=%v, %d latency and %d stamp slots, want no aggregate yet and 16 of each",
			two.agg != nil, len(two.lats), len(two.ats))
	}

	res, err := FanIn{Requests: 4, Stats: streaming}.Run(lab.NewTopology(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies != nil {
		t.Errorf("one-shard streaming run retained %d latencies", len(res.Latencies))
	}
	if n := res.Sample().N(); n != 16 {
		t.Errorf("streaming aggregate holds %d operations, want 16", n)
	}
}
