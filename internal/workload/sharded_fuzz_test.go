package workload_test

import (
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/workload"
)

// fuzzTrial derives a topology/workload/shard configuration from raw
// fuzz bytes, clamped to shapes a trial can finish quickly, and returns
// the generator plus the lab config and host count.
func fuzzTrial(fabric, leafPorts, hosts, wl uint8, seed uint16) (workload.Generator, lab.Config, int) {
	cfg := lab.Config{Link: lab.LinkATM, PacketTrace: true, Seed: uint64(seed) + 1}
	n := 3 + int(hosts%7) // 3..9 hosts
	if fabric%2 == 1 {
		cfg.Fabric = lab.FabricFatTree
		cfg.LeafPorts = 1 + int(leafPorts%4)
	}
	var g workload.Generator
	switch wl % 5 {
	case 0:
		g = workload.Echo{Iterations: 4, Warmup: 1}
	case 1:
		g = workload.FanIn{Requests: 3, Size: 64}
	case 2:
		g = workload.Churn{Conns: 2, Size: 48}
	case 4:
		g = workload.FanIn{Requests: 3, Size: 64, Transport: workload.TransportRUDP}
	default:
		// Sub-MSS chunks included: they exercise the sbcompress path in
		// the socket buffer (the ROADMAP 3b livelock fix) on top of the
		// shard-identity property this harness is hunting.
		g = workload.Bulk{Bytes: 16384, Chunk: 1 + int(seed%8192)}
	}
	return g, cfg, n
}

// shardedFuzzSeeds is the fuzzer's seed corpus: each workload and
// transport on both fabrics, at awkward shard counts (1 = degenerate,
// clamped, prime, and power-of-two splits). TestReleasedScratchIsPoisoned
// runs it too.
var shardedFuzzSeeds = []struct {
	fabric, leafPorts, hosts, wl, shards uint8
	seed                                 uint16
}{
	{0, 0, 6, 0, 2, 1994},
	{1, 0, 0, 0, 3, 7},
	{0, 0, 4, 1, 4, 21},
	{1, 1, 6, 1, 7, 3},
	{0, 0, 3, 2, 5, 12},
	{1, 2, 5, 2, 1, 9},
	{0, 0, 2, 3, 8, 40},
	{1, 3, 6, 3, 2, 5},
	{0, 0, 5, 4, 3, 11},
	{1, 1, 6, 4, 4, 8},
}

// FuzzShardedBitIdentity throws randomized topology, workload, and
// shard-count combinations at the sharded executor and requires every
// one to reproduce its serial run byte-for-byte — the metamorphic matrix
// test with the corners chosen adversarially instead of by hand.
func FuzzShardedBitIdentity(f *testing.F) {
	for _, s := range shardedFuzzSeeds {
		f.Add(s.fabric, s.leafPorts, s.hosts, s.wl, s.shards, s.seed)
	}

	f.Fuzz(func(t *testing.T, fabric, leafPorts, hosts, wl, shards uint8, seed uint16) {
		g, cfg, n := fuzzTrial(fabric, leafPorts, hosts, wl, seed)
		nShards := 1 + int(shards%8)

		serialLab := lab.NewTopology(cfg, n)
		want, err := g.Run(serialLab)
		if err != nil {
			t.Fatalf("serial run failed: %v", err)
		}
		wantJSON, _ := json.Marshal(want)

		c, err := lab.NewCluster(cfg, n, nShards)
		if err != nil {
			t.Fatalf("NewCluster(%+v, %d, %d): %v", cfg, n, nShards, err)
		}
		got, err := g.Run(c.Lab)
		if err != nil {
			t.Fatalf("sharded run failed: %v", err)
		}
		gotJSON, _ := json.Marshal(got)
		if string(gotJSON) != string(wantJSON) {
			t.Errorf("%s on %d hosts (fabric %v, leaf %d), %d shards (eff %d): diverged from serial\nserial:  %.200s\nsharded: %.200s",
				g.Name(), n, cfg.Fabric, cfg.LeafPorts, nShards, c.NumShards(),
				wantJSON, gotJSON)
		}
	})
}
