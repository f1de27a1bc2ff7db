package runner

import (
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// trialJSON runs gen on a fresh cluster of cfg with hosts hosts on up to
// shards shards — the call shape the benchmark harness uses — and
// returns the outcome's JSON encoding: the exact bytes a sweep would
// persist, including the per-packet timeline.
func trialJSON(t *testing.T, cfg lab.Config, hosts int, gen workload.Generator, shards int) []byte {
	t.Helper()
	c, err := lab.NewCluster(cfg, hosts, shards)
	if err != nil {
		t.Fatal(err)
	}
	r, err := gen.Run(c.Lab)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(outcomeOf(r, hosts))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedBitIdentityMatrix is sharding's metamorphic contract, run
// as a full matrix: every workload × every fabric × shard counts 2, 4
// and 7 (clamped to the partition's units) must produce outcome JSON
// byte-identical to the one-shard run — same latencies in the same order,
// same elapsed, same per-packet event stream. Any scheduling divergence
// between the per-shard event loops and the serial loop shows up here as
// a byte diff.
func TestShardedBitIdentityMatrix(t *testing.T) {
	fabrics := []struct {
		name  string
		cfg   lab.Config
		hosts int
	}{
		{
			name:  "hub",
			cfg:   lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994},
			hosts: 9,
		},
		{
			name: "fattree",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Fabric: lab.FabricFatTree, LeafPorts: 2},
			hosts: 9,
		},
		{
			// The loaded tier's shardable slice: every egress port behind
			// a RED discipline, which decides admission at forward time
			// and stages a cut cell there, as the built-in depth does.
			name: "hub-red",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}},
			hosts: 9,
		},
		{
			// Fat tree plus a qdisc: a cut trunk stages its cell at forward
			// time under RED as without a discipline, so the lookahead keeps
			// the switch latency (TestFatTreeLookaheadIsOneRule); DRR,
			// which would not, runs on one shard only.
			name: "fattree-red",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Fabric: lab.FabricFatTree, LeafPorts: 2, Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}},
			hosts: 9,
		},
	}
	gens := []workload.Generator{
		workload.Echo{Iterations: 8, Warmup: 2},
		workload.FanIn{Requests: 4},
		workload.Churn{Conns: 3},
		workload.Bulk{Bytes: 16384},
		// Cross traffic rides the fan-in: background flows span shards
		// and contend for the server egress, the case that forces
		// equal-time cut arrivals staged in different barrier rounds.
		workload.FanIn{Requests: 4, Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768}},
		// The benchmark harness's sharded fan-in in miniature: one request
		// a client, starts staggered 5 ms apart, streaming statistics.
		workload.FanIn{Requests: 1, Stagger: 5 * sim.Millisecond, Stats: stats.Config{Streaming: true}},
		// The rival transport through the same client and server frames.
		workload.FanIn{Requests: 4, Transport: workload.TransportRUDP},
		// Streaming statistics: folded in place at one shard, retained
		// and replayed in completion order at more.
		workload.FanIn{Requests: 4, Stats: stats.Config{Streaming: true}},
	}
	for _, fab := range fabrics {
		for _, gen := range gens {
			t.Run(fab.name+"/"+gen.Name(), func(t *testing.T) {
				hosts := fab.hosts
				if gen.Name() == "echo" && fab.cfg.Fabric == lab.FabricFatTree {
					// Echo uses hosts 0 and 1 only; one port per leaf
					// forces them onto different leaves so the trial
					// actually crosses a shard cut.
					hosts = 3
					fab.cfg.LeafPorts = 1
				}
				serial := trialJSON(t, fab.cfg, hosts, gen, 1)
				for _, shards := range []int{2, 4, 7} {
					sharded := trialJSON(t, fab.cfg, hosts, gen, shards)
					if string(sharded) != string(serial) {
						t.Errorf("shards=%d: outcome diverged from serial\nserial:  %.220s\nsharded: %.220s",
							shards, serial, sharded)
					}
				}
			})
		}
	}
}
