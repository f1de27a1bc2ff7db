package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// trialJSON runs one workload trial (serial or sharded per t.Shards) on
// a fresh testbed and returns the outcome's JSON encoding — the exact
// bytes a sweep would persist, including the per-packet timeline.
func trialJSON(t *testing.T, trial WorkloadTrial) []byte {
	t.Helper()
	out, err := runWorkloadTrial(nil, trial, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestShardedBitIdentityMatrix is the tentpole's metamorphic contract,
// run as a full matrix: every workload × every fabric × shard counts
// 1, 2, 4, and 7 must produce outcome JSON byte-identical to the serial
// run — same latencies in the same order, same elapsed, same per-packet
// event stream. Any scheduling divergence between the per-shard event
// loops and the serial loop shows up here as a byte diff.
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
			// a RED discipline, whose lazy dequeue path stages cut cells
			// at commit time rather than transmit completion.
			name: "hub-red",
			cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 1994,
				Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}},
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
		// Link flaps ride the fan-in: the shard-safe fault subset flips
		// per-host adapter state on the host's owning shard and the
		// matching port state on the port's owner, mid-run retransmission
		// recovery included, and must not perturb bit identity.
		workload.FanIn{Requests: 4,
			Faults: sim.LinkFlaps(1994, []int{1, 2, 3}, 2, 20*sim.Millisecond, 500*sim.Microsecond)},
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
				serial := trialJSON(t, WorkloadTrial{Cfg: fab.cfg, Hosts: hosts, Gen: gen})
				for _, shards := range []int{1, 2, 4, 7} {
					sharded := trialJSON(t, WorkloadTrial{
						Cfg: fab.cfg, Hosts: hosts, Gen: gen, Shards: shards,
					})
					if string(sharded) != string(serial) {
						t.Errorf("shards=%d: outcome diverged from serial\nserial:  %.220s\nsharded: %.220s",
							shards, serial, sharded)
					}
				}
			})
		}
	}
}

// TestShardedTestbedReuse pins the worker-affine cluster cache: the
// second trial of the same shape and shard count reuses the warm
// cluster, the outcome stays byte-identical to a fresh build, and a
// different shard count never satisfies the acquisition (a 4-shard
// cluster and a serial lab of the same shape are different machines).
func TestShardedTestbedReuse(t *testing.T) {
	cfg := lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 21}
	trial := WorkloadTrial{Cfg: cfg, Hosts: 9, Gen: workload.FanIn{Requests: 4}, Shards: 4}

	fresh := trialJSON(t, trial)

	tb := &Testbeds{}
	// Warm the cache with an unrelated trial of the same shape.
	warm := trial
	warm.Cfg.Seed = 99
	warm.Gen = workload.Churn{Conns: 2}
	if _, err := runWorkloadTrial(tb, warm, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Built != 1 || tb.Reused != 0 {
		t.Fatalf("after warm trial: built=%d reused=%d, want 1/0", tb.Built, tb.Reused)
	}

	out, err := runWorkloadTrial(tb, trial, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Built != 1 || tb.Reused != 1 {
		t.Fatalf("after reused trial: built=%d reused=%d, want 1/1", tb.Built, tb.Reused)
	}
	b, _ := json.Marshal(out)
	if string(b) != string(fresh) {
		t.Error("reused cluster outcome diverged from fresh build")
	}

	// Same shape, different shard count: a distinct testbed.
	other := trial
	other.Shards = 2
	if _, err := runWorkloadTrial(tb, other, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Built != 2 {
		t.Fatalf("2-shard trial reused the 4-shard cluster (built=%d)", tb.Built)
	}
	// And the serial path must not see the sharded cache at all.
	serial := trial
	serial.Shards = 0
	if _, err := runWorkloadTrial(tb, serial, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Built != 3 {
		t.Fatalf("serial trial reused a sharded cluster (built=%d)", tb.Built)
	}

	// A qdisc is a trial knob, not shape — the key rightly ignores it —
	// yet a fat-tree cluster's lookahead depends on it: a cluster warmed
	// without one and reused under RED must run on the RED lookahead, or
	// a shard overruns a cell still in flight toward it.
	red := WorkloadTrial{Hosts: 33, Gen: workload.FanIn{Requests: 4}, Shards: 4,
		Cfg: lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: 21, Fabric: lab.FabricFatTree,
			LeafPorts: 4, Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED}}}
	plain := red
	plain.Cfg.Qdisc = lab.QdiscConfig{}
	plain.Cfg.Seed = 99
	if _, err := runWorkloadTrial(tb, plain, 0); err != nil {
		t.Fatal(err)
	}
	reused := tb.Reused
	out, err = runWorkloadTrial(tb, red, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Reused != reused+1 {
		t.Fatalf("RED trial did not reuse the warm fat-tree cluster (reused=%d)", tb.Reused)
	}
	if b, _ := json.Marshal(out); string(b) != string(trialJSON(t, red)) {
		t.Error("fat-tree cluster reused under a new qdisc diverged from fresh build")
	}
}

// TestShardedSweepDeterminism runs a small sharded sweep through the
// worker pool at 1 and 4 workers and requires byte-identical outcome
// sets — the PR 5 worker-count contract extended to sharded trials.
func TestShardedSweepDeterminism(t *testing.T) {
	var trials []WorkloadTrial
	for i, shards := range []int{1, 2, 4} {
		trials = append(trials, WorkloadTrial{
			Label:  fmt.Sprintf("cell%d", i),
			Cfg:    lab.Config{Link: lab.LinkATM, Seed: 1994},
			Hosts:  7,
			Gen:    workload.FanIn{Requests: 3},
			Shards: shards,
		})
	}
	run := func(workers int) []byte {
		outs, err := RunWorkloadSweep(context.Background(), trials, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(outs)
		return b
	}
	if got, want := run(4), run(1); string(got) != string(want) {
		t.Error("sharded sweep outcomes depend on worker count")
	}
	// Every cell ran the same simulation: shard count must not change
	// the physics, so all three outcomes agree on everything but labels.
	outs, err := RunWorkloadSweep(context.Background(), trials, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(outs); i++ {
		a, b := outs[0], outs[i]
		if a.P50Micros != b.P50Micros || a.ElapsedMicros != b.ElapsedMicros ||
			a.Requests != b.Requests {
			t.Errorf("cell %d (shards=%d) diverged from cell 0: %+v vs %+v",
				i, trials[i].Shards, b, a)
		}
	}
}
