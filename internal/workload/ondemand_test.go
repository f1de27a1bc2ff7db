package workload

import (
	"reflect"
	"testing"

	"repro/internal/lab"
)

// TestOnDemandVCsEventIdentical is the end-to-end bit-identity contract
// behind the routed-fabric rewrite: because VC signaling charges no
// simulated time, a topology whose VCs are installed lazily by the first
// datagram must produce the exact event stream of one with every VC
// pre-installed. It runs the same traced fan-in twice — once on the
// fabric's on-demand path, once after pre-meshing every pair through the
// fabric's own install path before any traffic, as the old eager builder
// meshed every switch table — and requires the latencies and the full
// per-packet trace to match event for event.
func TestOnDemandVCsEventIdentical(t *testing.T) {
	cfg := lab.Config{Link: lab.LinkATM, Seed: 17, PacketTrace: true}
	const hosts = 9

	onDemand := lab.NewTopology(cfg, hosts)
	got, err := FanIn{Size: 200, Requests: 5, Warmup: 1}.Run(onDemand)
	if err != nil {
		t.Fatal(err)
	}

	preMeshed := lab.NewTopology(cfg, hosts)
	for i := 0; i < hosts; i++ {
		for j := 0; j < hosts; j++ {
			// The eager mesh the sparse fabric replaced: host i reaches
			// host j on VCI 32+j, rewritten at the switch to 32+i.
			if i != j && !preMeshed.Fabric.Connect(i, j) {
				t.Fatalf("no route from host %d to host %d", i, j)
			}
		}
	}
	meshed := preMeshed.Fabric.VCsSetUp()
	if meshed != hosts*(hosts-1) || preMeshed.Switch.NumVCs() != hosts*(hosts-1) {
		t.Fatalf("pre-meshing installed %d routes and %d switch VCs, want %d of each", meshed, preMeshed.Switch.NumVCs(), hosts*(hosts-1))
	}
	want, err := FanIn{Size: 200, Requests: 5, Warmup: 1}.Run(preMeshed)
	if err != nil {
		t.Fatal(err)
	}

	if onDemand.Fabric.VCsSetUp() == 0 {
		t.Fatal("on-demand lab installed no VCs — the test compared two pre-meshed runs")
	}
	if preMeshed.Fabric.VCsSetUp() != meshed {
		t.Fatal("pre-meshed lab still set up VCs on demand")
	}
	if !reflect.DeepEqual(got.Latencies, want.Latencies) {
		t.Error("latencies diverge between on-demand and pre-installed VCs")
	}
	if got.Elapsed != want.Elapsed || got.Requests != want.Requests {
		t.Errorf("run shape diverges: elapsed %v/%v, requests %d/%d",
			got.Elapsed, want.Elapsed, got.Requests, want.Requests)
	}
	if len(got.Events) == 0 {
		t.Fatal("traced run recorded no events")
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Errorf("packet traces diverge: %d vs %d events", len(got.Events), len(want.Events))
	}
}
