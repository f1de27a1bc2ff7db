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

// FuzzShardedBitIdentity throws randomized topology, workload, and
// shard-count combinations at the sharded executor and requires every
// one to reproduce its serial run byte-for-byte — the metamorphic matrix
// test with the corners chosen adversarially instead of by hand.
func FuzzShardedBitIdentity(f *testing.F) {
	// Seed corpus: each workload and transport on both fabrics, awkward shard counts
	// (1 = degenerate, clamped, prime, and power-of-two splits).
	f.Add(uint8(0), uint8(0), uint8(6), uint8(0), uint8(2), uint16(1994))
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0), uint8(3), uint16(7))
	f.Add(uint8(0), uint8(0), uint8(4), uint8(1), uint8(4), uint16(21))
	f.Add(uint8(1), uint8(1), uint8(6), uint8(1), uint8(7), uint16(3))
	f.Add(uint8(0), uint8(0), uint8(3), uint8(2), uint8(5), uint16(12))
	f.Add(uint8(1), uint8(2), uint8(5), uint8(2), uint8(1), uint16(9))
	f.Add(uint8(0), uint8(0), uint8(2), uint8(3), uint8(8), uint16(40))
	f.Add(uint8(1), uint8(3), uint8(6), uint8(3), uint8(2), uint16(5))
	f.Add(uint8(0), uint8(0), uint8(5), uint8(4), uint8(3), uint16(11))
	f.Add(uint8(1), uint8(1), uint8(6), uint8(4), uint8(4), uint16(8))

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
		got, err := workload.RunSharded(g, c)
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
