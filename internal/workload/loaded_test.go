package workload_test

import (
	"encoding/json"
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/workload"
)

// loadedConfig is the canonical congested-regime configuration the
// loaded tests share: a hub fabric under RED, burst loss, and cell
// reordering.
func loadedConfig(seed uint64) lab.Config {
	return lab.Config{
		Link: lab.LinkATM, Seed: seed, PacketTrace: true,
		Qdisc:        lab.QdiscConfig{Kind: lab.QdiscRED},
		BurstLoss:    sim.GEParams{PGoodBad: 0.002, PBadGood: 0.2, LossBad: 0.5},
		ReorderRate:  0.0005,
		ReorderDepth: 2,
	}
}

// TestFanInRUDPClean runs the fan-in workload on the rudp transport over
// an unimpaired fabric: every request must complete with its payload
// intact, just like TCP.
func TestFanInRUDPClean(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 3}, 5)
	g := workload.FanIn{Transport: workload.TransportRUDP, Requests: 10, Size: 256}
	r, err := g.Run(l)
	if err != nil {
		t.Fatalf("rudp fan-in: %v", err)
	}
	if r.Errors != 0 {
		t.Errorf("%d payload errors on a clean network", r.Errors)
	}
	if want := 4 * 10; r.Requests != want {
		t.Errorf("%d requests, want %d", r.Requests, want)
	}
	for i, lat := range r.Latencies {
		if lat <= 0 || lat > sim.Second {
			t.Errorf("latency[%d] = %v out of range", i, lat)
		}
	}
}

// TestRUDPMessageFitsOneDatagram: an rudp message rides one datagram, so
// on each link — and under a lowered MTU — the largest message that fits
// the interface MTU with the IP, UDP and rudp headers completes, and one
// byte more is refused before anything runs; a 4031-byte datagram on
// Ethernet used to panic in ip_output.
func TestRUDPMessageFitsOneDatagram(t *testing.T) {
	for _, cfg := range []lab.Config{{Link: lab.LinkATM}, {Link: lab.LinkEther}, {Link: lab.LinkATM, MTU: 1000}} {
		l := lab.NewTopology(cfg, 3)
		limit := workload.RUDPMaxMessage(l.MTU())
		if want := min(4096, l.MTU()-20-8-9); limit != want {
			t.Fatalf("%v MTU %d: limit %d, want %d", cfg.Link, l.MTU(), limit, want)
		}
		if _, err := (workload.FanIn{Transport: workload.TransportRUDP, Requests: 2, Size: limit + 1}).Run(l); err == nil {
			t.Errorf("%v MTU %d: a %d-byte message ran", cfg.Link, l.MTU(), limit+1)
		}
		r, err := workload.FanIn{Transport: workload.TransportRUDP, Requests: 2, Size: limit}.Run(l)
		if err != nil || r.Errors != 0 || r.Requests != 4 {
			t.Errorf("%v MTU %d: %d-byte messages: %v, %+v", cfg.Link, l.MTU(), limit, err, r)
		}
	}
}

// TestFanInRUDPUnderLoss runs the rudp transport through the
// Gilbert–Elliott burst-loss chain: retransmission must recover every
// request (latencies may include RTO waits, hence the loose bound).
func TestFanInRUDPUnderLoss(t *testing.T) {
	cfg := lab.Config{
		Link: lab.LinkATM, Seed: 11,
		BurstLoss: sim.GEParams{PGoodBad: 0.005, PBadGood: 0.2, LossBad: 0.6},
	}
	l := lab.NewTopology(cfg, 4)
	g := workload.FanIn{Transport: workload.TransportRUDP, Requests: 8, Size: 200}
	r, err := g.Run(l)
	if err != nil {
		t.Fatalf("rudp fan-in under burst loss: %v", err)
	}
	if r.Errors != 0 {
		t.Errorf("%d payload errors after recovery", r.Errors)
	}
	if want := 3 * 8; r.Requests != want {
		t.Errorf("%d requests, want %d", r.Requests, want)
	}
}

// TestFanInTCPLoaded runs the TCP fan-in with every load knob on at
// once — RED, burst loss, reordering, cross traffic — and requires the
// measured workload to complete exactly.
func TestFanInTCPLoaded(t *testing.T) {
	l := lab.NewTopology(loadedConfig(5), 6)
	g := workload.FanIn{
		Requests: 6, Size: 200,
		Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 65536},
	}
	r, err := g.Run(l)
	if err != nil {
		t.Fatalf("loaded fan-in: %v", err)
	}
	if want := 5 * 6; r.Requests != want {
		t.Errorf("%d requests, want %d", r.Requests, want)
	}
}

// TestLoadedDeterminism requires the full loaded configuration to be a
// pure function of its seed: two fresh labs agree byte for byte, and a
// lab.Reset reuse of the testbed reproduces the fresh run.
func TestLoadedDeterminism(t *testing.T) {
	run := func(l *lab.Lab) string {
		t.Helper()
		g := workload.FanIn{
			Requests: 5, Size: 200,
			Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768},
		}
		r, err := g.Run(l)
		if err != nil {
			t.Fatalf("loaded fan-in: %v", err)
		}
		b, _ := json.Marshal(r)
		return string(b)
	}
	cfg := loadedConfig(9)
	want := run(lab.NewTopology(cfg, 5))
	if got := run(lab.NewTopology(cfg, 5)); got != want {
		t.Errorf("fresh labs diverged:\n%.300s\n%.300s", want, got)
	}

	// Reset reuse: run a different seed first, then reset back.
	reuse := lab.NewTopology(loadedConfig(23), 5)
	run(reuse)
	if err := reuse.Reset(cfg, 0); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	if got := run(reuse); got != want {
		t.Errorf("reset lab diverged from fresh:\n%.300s\n%.300s", want, got)
	}
}

// TestLoadedRUDPDeterminism is the rudp twin of TestLoadedDeterminism
// (without impairments, which slow rudp runs through 1-second RTOs).
func TestLoadedRUDPDeterminism(t *testing.T) {
	cfg := lab.Config{
		Link: lab.LinkATM, Seed: 13, PacketTrace: true,
		Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED},
	}
	run := func(l *lab.Lab) string {
		t.Helper()
		g := workload.FanIn{
			Transport: workload.TransportRUDP, Requests: 5, Size: 200,
			Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768},
		}
		r, err := g.Run(l)
		if err != nil {
			t.Fatalf("loaded rudp fan-in: %v", err)
		}
		b, _ := json.Marshal(r)
		return string(b)
	}
	want := run(lab.NewTopology(cfg, 5))
	if got := run(lab.NewTopology(cfg, 5)); got != want {
		t.Errorf("fresh rudp labs diverged:\n%.300s\n%.300s", want, got)
	}
}

// TestShardedRejectsBurstLoss pins the construction-time rejection: the
// impairment knobs join the fault knobs sharded execution refuses.
func TestShardedRejectsBurstLoss(t *testing.T) {
	cfg := lab.Config{
		Link: lab.LinkATM, Seed: 1,
		BurstLoss: sim.GEParams{PGoodBad: 0.01, PBadGood: 0.5, LossBad: 0.5},
	}
	if _, err := lab.NewCluster(cfg, 4, 2); err == nil {
		t.Error("NewCluster accepted a burst-loss configuration")
	}
	cfg = lab.Config{Link: lab.LinkATM, Seed: 1, ReorderRate: 0.01}
	if _, err := lab.NewCluster(cfg, 4, 2); err == nil {
		t.Error("NewCluster accepted a reordering configuration")
	}
	// Reset must reject them too.
	c, err := lab.NewCluster(lab.Config{Link: lab.LinkATM, Seed: 1}, 4, 2)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if _, err := (workload.FanIn{Requests: 2, Size: 64}).Run(c.Lab); err != nil {
		t.Fatalf("sharded fan-in: %v", err)
	}
	bad := lab.Config{
		Link: lab.LinkATM, Seed: 2,
		BurstLoss: sim.GEParams{PGoodBad: 0.01, PBadGood: 0.5, LossBad: 0.5},
	}
	if err := c.Reset(bad, 0); err == nil {
		t.Error("Cluster.Reset accepted a burst-loss configuration")
	}
}

// TestShardedLoadedBitIdentity requires the shardable slice of the
// loaded tier — qdisc plus cross traffic, both transports — to
// reproduce its serial run byte for byte across shard counts.
func TestShardedLoadedBitIdentity(t *testing.T) {
	for _, transport := range []string{workload.TransportTCP, workload.TransportRUDP} {
		cfg := lab.Config{
			Link: lab.LinkATM, Seed: 17, PacketTrace: true,
			Qdisc: lab.QdiscConfig{Kind: lab.QdiscRED},
		}
		g := workload.FanIn{
			Transport: transport, Requests: 4, Size: 200,
			Cross: &workload.CrossTraffic{Flows: 2, Transfers: 2, MaxBytes: 32768},
		}
		serial, err := g.Run(lab.NewTopology(cfg, 5))
		if err != nil {
			t.Fatalf("%s serial: %v", transport, err)
		}
		want, _ := json.Marshal(serial)
		for _, shards := range []int{2, 3} {
			c, err := lab.NewCluster(cfg, 5, shards)
			if err != nil {
				t.Fatalf("NewCluster(%d): %v", shards, err)
			}
			got, err := g.Run(c.Lab)
			if err != nil {
				t.Fatalf("%s sharded(%d): %v", transport, shards, err)
			}
			gotJSON, _ := json.Marshal(got)
			if string(gotJSON) != string(want) {
				t.Errorf("%s on %d shards diverged from serial\nserial:  %.200s\nsharded: %.200s",
					transport, shards, want, gotJSON)
			}
		}
	}
}
