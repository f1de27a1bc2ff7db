package workload

import (
	"reflect"
	"testing"

	"repro/internal/atm"
	"repro/internal/lab"
)

// TestOnDemandVCsEventIdentical is the end-to-end bit-identity contract
// behind the routed-fabric rewrite: because VC signaling charges no
// simulated time, a topology whose VCs are installed lazily by the first
// datagram must produce the exact event stream of one with every VC
// pre-installed. It runs the same traced fan-in twice — once on the
// fabric's on-demand path, once after manually pre-meshing every driver
// and switch table the way the old eager builder did — and requires the
// latencies and the full per-packet trace to match event for event.
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
			if i == j {
				continue
			}
			// The eager mesh the sparse fabric replaced: host i reaches
			// host j on VCI 32+j, rewritten at the switch to 32+i.
			preMeshed.Hosts[i].ATMDriver.AddVC(lab.HostAddr(j), atm.DefaultVCI+uint16(j))
			preMeshed.Switch.AddVC(i, atm.DefaultVCI+uint16(j), j, atm.DefaultVCI+uint16(i))
		}
	}
	want, err := FanIn{Size: 200, Requests: 5, Warmup: 1}.Run(preMeshed)
	if err != nil {
		t.Fatal(err)
	}

	if onDemand.Fabric.VCsSetUp() == 0 {
		t.Fatal("on-demand lab installed no VCs — the test compared two pre-meshed runs")
	}
	if preMeshed.Fabric.VCsSetUp() != 0 {
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
