package atm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
)

// buildFabric assembles n hosts on a routed fabric with on-demand VC
// setup — the sparse counterpart of buildStar's eager mesh — through the
// one constructor on a one-env plan, the code sharded runs use.
func buildFabric(t *testing.T, env *sim.Env, kind FabricKind, leafPorts, n int) (*Fabric, []*kern.Kernel, []*ip.Stack, []*Driver, []*swSink) {
	t.Helper()
	return buildFabricOn(t, &ShardPlan{Envs: []*sim.Env{env}, HostShard: make([]int, n)}, kind, leafPorts)
}

// buildFabricOn is buildFabric across a plan's event loops: host i lives
// on the loop of plan.HostShard[i].
func buildFabricOn(t *testing.T, plan *ShardPlan, kind FabricKind, leafPorts int) (*Fabric, []*kern.Kernel, []*ip.Stack, []*Driver, []*swSink) {
	t.Helper()
	n := len(plan.HostShard)
	model := cost.DECstation5000()
	kerns := make([]*kern.Kernel, n)
	ips := make([]*ip.Stack, n)
	drvs := make([]*Driver, n)
	sinks := make([]*swSink, n)
	for i := 0; i < n; i++ {
		env := plan.Envs[plan.HostShard[i]]
		kerns[i] = kern.New(env, model, fmt.Sprintf("h%d", i))
		ips[i] = ip.NewStack(kerns[i], uint32(i+1))
		a := NewAdapter(kerns[i])
		drvs[i] = NewDriver(kerns[i], a, ips[i])
		sinks[i] = &swSink{env: env}
		ips[i].Register(99, sinks[i])
	}
	f := NewFabric(plan, kind, model, leafPorts, drvs)
	return f, kerns, ips, drvs, sinks
}

// TestFabricHubMatchesEagerMesh is the timing-invisibility contract at
// the cell level: the same traffic through an on-demand hub fabric and
// through buildStar's eagerly meshed switch must produce identical
// delivery timelines — VC setup charges no simulated time and the wire
// carries the same VCIs, so the two are indistinguishable.
func TestFabricHubMatchesEagerMesh(t *testing.T) {
	traffic := func(env *sim.Env, kerns []*kern.Kernel, ips []*ip.Stack, sinks []*swSink) ([]sim.Time, [][]byte) {
		for i := 0; i < 3; i++ {
			i := i
			env.Spawn(fmt.Sprintf("tx%d", i), sim.LoopN(4, func(p *sim.Proc, k int) {
				payload := make([]byte, 200+env.RNG().Intn(1800))
				env.RNG().Fill(payload)
				m := kerns[i].Pool.AllocCluster()
				m.Append(payload)
				ips[i].Output(p, uint32((i+1)%3+1), 99, m)
			}))
		}
		env.Run()
		var at []sim.Time
		var got [][]byte
		for _, s := range sinks {
			at = append(at, s.at...)
			got = append(got, s.got...)
		}
		return at, got
	}

	envA := sim.NewEnv()
	envA.Seed(71)
	_, kernsA, ipsA, _, sinksA := buildStar(t, envA, 3)
	atA, gotA := traffic(envA, kernsA, ipsA, sinksA)

	envB := sim.NewEnv()
	envB.Seed(71)
	_, kernsB, ipsB, _, sinksB := buildFabric(t, envB, FabricHub, 0, 3)
	atB, gotB := traffic(envB, kernsB, ipsB, sinksB)

	if len(atA) != len(atB) || len(atA) != 12 {
		t.Fatalf("delivery counts differ: eager %d vs on-demand %d", len(atA), len(atB))
	}
	for i := range atA {
		if atA[i] != atB[i] || !bytes.Equal(gotA[i], gotB[i]) {
			t.Fatalf("delivery %d differs between eager mesh and on-demand fabric", i)
		}
	}
}

// TestFabricOnDemandSparsity pins the tentpole: VC state exists only for
// pairs that have communicated, never O(hosts²).
func TestFabricOnDemandSparsity(t *testing.T) {
	env := sim.NewEnv()
	f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricHub, 0, 8)

	if f.Core.NumVCs() != 0 || f.NumRoutes() != 0 {
		t.Fatalf("fresh fabric holds %d switch VCs, %d routes; want 0", f.Core.NumVCs(), f.NumRoutes())
	}
	for i, d := range drvs {
		if f.NumRoutesFrom(i) != 0 || d.NumReassemblers() != 0 {
			t.Fatalf("fresh host %d sources %d routes, holds %d reassemblers; want 0",
				i, f.NumRoutesFrom(i), d.NumReassemblers())
		}
	}

	payload := make([]byte, 500)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.AllocCluster()
		m.Append(payload)
		ips[0].Output(p, 3, 99, m) // host 0 -> host 2, the only flow
	}))
	env.Run()

	if len(sinks[2].got) != 1 || !bytes.Equal(sinks[2].got[0], payload) {
		t.Fatal("datagram not delivered through on-demand VC")
	}
	if got := f.Core.NumVCs(); got != 1 {
		t.Fatalf("switch holds %d VC entries after one flow, want 1", got)
	}
	if got := f.NumRoutes(); got != 1 {
		t.Fatalf("fabric holds %d routes after one flow, want 1", got)
	}
	if f.NumRoutesFrom(0) != 1 || drvs[2].NumReassemblers() != 1 {
		t.Fatalf("flow endpoints source %d routes / hold %d reassemblers, want 1/1",
			f.NumRoutesFrom(0), drvs[2].NumReassemblers())
	}
	for _, i := range []int{1, 3, 4, 5, 6, 7} {
		if f.NumRoutesFrom(i) != 0 {
			t.Fatalf("idle host %d sources %d routes", i, f.NumRoutesFrom(i))
		}
	}
}

// TestFabricFatTreeCrossLeaf sends across leaves: the path must install
// exactly one entry per hop (source leaf, spine, destination leaf) and
// deliver intact, with the arriving VCI still naming the source host.
func TestFabricFatTreeCrossLeaf(t *testing.T) {
	env := sim.NewEnv()
	f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricFatTree, 2, 6)
	if got := len(f.Leaves); got != 3 {
		t.Fatalf("6 hosts at 2 per leaf built %d leaves, want 3", got)
	}

	payload := make([]byte, 3000)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.AllocCluster()
		m.Append(payload)
		ips[0].Output(p, 6, 99, m) // host 0 (leaf 0) -> host 5 (leaf 2)
	}))
	env.Run()

	if len(sinks[5].got) != 1 || !bytes.Equal(sinks[5].got[0], payload) {
		t.Fatal("cross-leaf datagram not delivered intact")
	}
	if f.Leaves[0].NumVCs() != 1 || f.Core.NumVCs() != 1 || f.Leaves[2].NumVCs() != 1 {
		t.Fatalf("cross-leaf path entries: leaf0=%d core=%d leaf2=%d, want 1 each",
			f.Leaves[0].NumVCs(), f.Core.NumVCs(), f.Leaves[2].NumVCs())
	}
	if f.Leaves[1].NumVCs() != 0 {
		t.Fatalf("uninvolved leaf grew %d VC entries", f.Leaves[1].NumVCs())
	}
	// The last hop restores the source-naming convention.
	if drvs[5].rx.get(DefaultVCI+0) == nil {
		t.Fatalf("destination reassembles on VCIs %v, want DefaultVCI+src (%d)",
			reasmVCIs(drvs[5]), DefaultVCI)
	}
}

func reasmVCIs(d *Driver) []uint16 {
	var out []uint16
	d.rx.each(func(vc *rxVC) { out = append(out, vc.vci) })
	return out
}

// TestFabricTeardownRecyclesTrunkVCIs pins route removal, which a port
// failure makes: removing a cross-leaf route must empty every switch
// table it touched, return its trunk VCIs to the links' pools (so the
// next setup reuses them), and drop the destination's reassembly context.
func TestFabricTeardownRecyclesTrunkVCIs(t *testing.T) {
	env := sim.NewEnv()
	f, _, _, drvs, _ := buildFabric(t, env, FabricFatTree, 2, 4)

	first := f.setup(0, 4) // host 0 (leaf 0) -> host 3 (leaf 1)
	if first == nil {
		t.Fatal("setup failed")
	}
	if vci := first.seg.VCI; vci != DefaultVCI+3 {
		t.Fatalf("host-link tx VCI = %d, want %d", vci, DefaultVCI+3)
	}
	if first.n != 3 {
		t.Fatalf("cross-leaf route has %d hops, want 3", first.n)
	}
	trunk1, trunk2 := first.hops[1].vci, first.hops[2].vci

	// Simulate receive-side state so the removal has something to drop.
	drvs[3].rxFor(first.rxVCI)

	f.FailHostPort(3)
	if f.NumRoutes() != 0 || f.TotalVCs() != 0 {
		t.Fatalf("failing the port left %d routes, %d VC entries", f.NumRoutes(), f.TotalVCs())
	}
	if drvs[3].NumReassemblers() != 0 {
		t.Fatal("removing the route did not reclaim the destination reassembler")
	}

	f.RestoreHostPort(3)
	second := f.setup(0, 4)
	if second == nil {
		t.Fatal("re-setup failed")
	}
	if second.hops[1].vci != trunk1 || second.hops[2].vci != trunk2 {
		t.Fatalf("trunk VCIs not recycled: first (%d,%d), second (%d,%d)",
			trunk1, trunk2, second.hops[1].vci, second.hops[2].vci)
	}
}

// TestFabricRouteRemovalNeedsOneEnv pins the guard on route removal: on a
// plan with more than one event loop, FailHostPort must panic rather than
// unroute cells the serial run would have delivered.
func TestFabricRouteRemovalNeedsOneEnv(t *testing.T) {
	plan := &ShardPlan{
		Envs:      []*sim.Env{sim.NewEnv(), sim.NewEnv()},
		HostShard: []int{0, 1, 1},
	}
	f, _, _, _, _ := buildFabricOn(t, plan, FabricHub, 0)
	if f.setup(1, 3) == nil { // host 1 -> host 2, queued for the hub in shard 0
		t.Fatal("setup failed on a two-env plan")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FailHostPort did not panic on a two-env plan")
			}
		}()
		f.FailHostPort(1)
	}()
	if f.NumRoutes() != 1 || f.HostPort(1).Down() {
		t.Errorf("a refused removal still changed the fabric: %d routes, port down %v", f.NumRoutes(), f.HostPort(1).Down())
	}
}

// TestNoRouteIsACountedDrop sends a datagram no host can take — to an
// address no host owns, or to the sender itself — through a driver on a
// 3-host hub: it is counted in NoRoute and dropped, handing back its PDU
// checkout, its mbuf chain and the transmit lock, and the next datagram to
// a real host still goes out. A forged source address answered by TCP is
// such a datagram.
func TestNoRouteIsACountedDrop(t *testing.T) {
	for name, bad := range map[string]uint32{"unowned": 99, "self": 1} {
		t.Run(name, func(t *testing.T) {
			env := sim.NewEnv()
			f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricHub, 0, 3)
			payload := []byte("after the drop")
			env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
				m := kerns[0].Pool.AllocCluster()
				m.Append([]byte("nowhere"))
				ips[0].Output(p, bad, 99, m)
			}, func(p *sim.Proc) {
				m := kerns[0].Pool.AllocCluster()
				m.Append(payload)
				ips[0].Output(p, 3, 99, m)
			}))
			env.Run()

			d := drvs[0]
			if d.NoRoute != 1 || d.FramesOut != 1 {
				t.Fatalf("NoRoute = %d, FramesOut = %d; want 1 and 1", d.NoRoute, d.FramesOut)
			}
			if st := kerns[0].Pool.PoolStats; st.LiveHeaders != 0 || st.LivePages != 0 {
				t.Fatalf("the drop left %d mbuf headers and %d pages live", st.LiveHeaders, st.LivePages)
			}
			if n := env.Arena().Outstanding(); n != 0 {
				t.Fatalf("the drop left %d arena checkouts outstanding", n)
			}
			if len(sinks[2].got) != 1 || !bytes.Equal(sinks[2].got[0], payload) {
				t.Fatal("the datagram after the drop was not delivered")
			}
			if f.NumRoutesFrom(0) != 1 || f.NumRoutes() != 1 {
				t.Fatalf("the drop installed state: host 0 sources %d routes, the fabric holds %d; want 1 and 1", f.NumRoutesFrom(0), f.NumRoutes())
			}
		})
	}
}

// TestDropRxKeepsActiveReassembly: reclamation must refuse to discard a
// datagram mid-reassembly, and evicting a channel must not leave the
// driver's remembered last-used context pointing at it. Two VCIs
// interleave around the eviction: the evicted VCI, reused, must start from
// a fresh context (the old one's sequence expectation would reject its
// first cell), and the surviving VCI must keep its partial datagram.
func TestDropRxKeepsActiveReassembly(t *testing.T) {
	d := &Driver{K: kern.New(sim.NewEnv(), cost.DECstation5000(), "d")}
	segA, segB := Segmenter{VCI: 40}, Segmenter{VCI: 41}
	a := segA.Segment(make([]byte, 200)) // multi-cell datagrams
	b := segB.Segment(make([]byte, 200))
	push := func(vci uint16, c *Cell) []byte {
		t.Helper()
		dg, err := d.rxFor(vci).reasm.Push(c)
		if err != nil {
			t.Fatalf("VCI %d: %v", vci, err)
		}
		return dg
	}

	push(40, &a[0])
	if d.DropRx(40) {
		t.Fatal("DropRx discarded a mid-reassembly channel")
	}
	push(41, &b[0]) // 41 mid-datagram across 40's eviction
	for i := 1; i < len(a); i++ {
		push(40, &a[i]) // 40 is the remembered context again
	}
	if !d.DropRx(40) {
		t.Fatal("DropRx refused an idle channel")
	}
	if d.NumReassemblers() != 1 {
		t.Fatalf("%d contexts after evicting one of two", d.NumReassemblers())
	}
	if d.lastRx != nil {
		t.Fatal("evicted context is still the remembered one")
	}

	// A new peer reusing VCI 40 starts at sequence number 0; the evicted
	// context expected the old stream's next number.
	segA = Segmenter{VCI: 40}
	again := segA.Segment(make([]byte, 200))
	var got []byte
	for i := range again {
		got = push(40, &again[i])
	}
	if len(got) != 200 {
		t.Fatalf("reused VCI reassembled %d bytes, want 200", len(got))
	}
	for i := 1; i < len(b); i++ {
		got = push(41, &b[i])
	}
	if len(got) != 200 {
		t.Fatalf("surviving VCI reassembled %d bytes, want 200", len(got))
	}

	// Evicting a context that is not the remembered one leaves the
	// remembered one in place; Reset forgets it.
	push(40, &segA.Segment(make([]byte, 200))[0])
	if !d.DropRx(41) || d.lastRx == nil || d.lastRx.vci != 40 {
		t.Fatal("evicting another VCI disturbed the remembered context")
	}
	d.Reset()
	if d.lastRx != nil {
		t.Fatal("Reset kept the remembered context")
	}
}

// TestRemovedRouteKeepsItsParkedOutput pins the slot hazard of route
// removal: an Output parked on a full transmit FIFO holds its flow's
// channel, and removing that flow's route frees the route's slot for the
// next install. Host 0 is part-way through an 8000-byte datagram to host
// 1, parked on its full FIFO, when host 1's port fails; host 3 then opens
// a flow to host 2, which takes the freed slot. Every cell host 0 still
// emits must carry the removed flow's VCI — never the new flow's, whose
// counters and header now fill that slot — and host 3's datagrams, the
// first sent while host 0 is parked and the second after its Output is
// done with the channel, must arrive intact.
func TestRemovedRouteKeepsItsParkedOutput(t *testing.T) {
	env := sim.NewEnv()
	f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricHub, 0, 4)
	payload := make([]byte, 1200)
	env.RNG().Fill(payload)
	var freed *route
	fail := func() {
		if !drvs[0].txBusy || drvs[0].Adapter.TxSpace() != 0 {
			t.Fatal("host 0's Output is not parked on a full FIFO when the port fails")
		}
		freed = f.routes[0].m[flowKey{0, 1}]
		f.FailHostPort(1)
		send3 := func(p *sim.Proc) {
			m := kerns[3].Pool.AllocCluster()
			m.Append(payload)
			ips[3].Output(p, 3, 99, m) // host 3 -> host 2, a new flow
		}
		env.Spawn("tx3", sim.Steps(send3))
		env.SpawnAt(2*sim.Millisecond, "tx3again", sim.Steps(send3))
	}
	// Tap host 0's fiber: record each cell's VCI, and whether the new flow
	// had taken the slot when it left, then deliver it on time. The first
	// cell that fills the FIFO fails the port, once the Output has parked.
	port := f.HostPort(0)
	var vcis []uint16
	afterReuse := 0
	drvs[0].Adapter.SetCut(func(_, at sim.Time, c Cell) {
		h, err := ParseHeader(&c)
		if err != nil {
			t.Fatalf("host 0 emitted a cell with a bad header: %v", err)
		}
		vcis = append(vcis, h.VCI)
		if f.routes[0].m[flowKey{3, 2}] != nil {
			afterReuse++
		}
		if freed == nil && drvs[0].Adapter.TxSpace() == 0 {
			freed = new(route) // fail once
			env.At(env.Now(), "fail", fail)
		}
		env.At(at, "tap", func() { port.InjectCell(c) })
	})

	big := make([]byte, 8000)
	env.RNG().Fill(big)
	env.Spawn("tx0", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.AllocCluster()
		m.Append(big[:4000])
		m.SetNext(kerns[0].Pool.AllocCluster())
		m.Next().Append(big[4000:])
		ips[0].Output(p, 2, 99, m) // host 0 -> host 1
	}))
	env.Run()

	if got := f.routes[0].m[flowKey{3, 2}]; got == nil || got != freed {
		t.Fatal("the new flow did not take the removed route's slot; the test no longer sets up the hazard")
	}
	if afterReuse == 0 {
		t.Fatal("host 0 emitted no cell after the slot was reused; the test no longer sets up the hazard")
	}
	for i, vci := range vcis {
		if vci != DefaultVCI+1 {
			t.Fatalf("host 0's cell %d of %d left on VCI %d, want the removed flow's %d", i, len(vcis), vci, DefaultVCI+1)
		}
	}
	if len(sinks[2].got) != 2 || !bytes.Equal(sinks[2].got[0], payload) || !bytes.Equal(sinks[2].got[1], payload) {
		t.Fatalf("host 2 received %d datagrams; the new flow's frames did not both arrive intact", len(sinks[2].got))
	}
	if len(sinks[1].got) != 0 {
		t.Fatal("host 1 received the datagram its failed port cut off")
	}
}

// TestUnrelatedRemovalKeepsParkedChannel is the other side of the slot
// hazard: removing a route must leave every other flow's channel alone,
// an Output parked on it included. Host 0 is part-way through an
// 8000-byte datagram to host 1, parked on its full FIFO, when host 3's
// port fails and takes host 3's route to host 2 with it. Host 0's channel
// must come out of the frame with its SAR sequence number and Btag
// advanced, so that its next datagram to host 1 reassembles: both must
// arrive, and host 1 must reject no cell.
func TestUnrelatedRemovalKeepsParkedChannel(t *testing.T) {
	env := sim.NewEnv()
	f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricHub, 0, 4)
	send := func(from int, dst uint32, data []byte) func(*sim.Proc) {
		return func(p *sim.Proc) {
			m := kerns[from].Pool.AllocCluster()
			m.Append(data[:min(len(data), 4000)])
			if len(data) > 4000 {
				m.SetNext(kerns[from].Pool.AllocCluster())
				m.Next().Append(data[4000:])
			}
			ips[from].Output(p, dst, 99, m)
		}
	}
	env.Spawn("tx3", sim.Steps(send(3, 3, make([]byte, 100)))) // host 3 -> host 2

	// The first cell host 0 launches onto a full FIFO fails host 3's
	// port, once the Output has parked.
	port := f.HostPort(0)
	failed := false
	drvs[0].Adapter.SetCut(func(_, at sim.Time, c Cell) {
		if !failed && drvs[0].Adapter.TxSpace() == 0 {
			failed = true
			env.At(env.Now(), "fail", func() {
				if !drvs[0].txBusy {
					t.Fatal("host 0's Output is not parked when the port fails")
				}
				f.FailHostPort(3)
			})
		}
		env.At(at, "tap", func() { port.InjectCell(c) })
	})
	big := make([]byte, 8000) // 182 cells: not a whole turn of the 4-bit SAR sequence
	env.RNG().Fill(big)
	env.Spawn("tx0", sim.Steps(send(0, 2, big)))
	env.SpawnAt(2*sim.Millisecond, "tx0again", sim.Steps(send(0, 2, big)))
	env.Run()

	if !failed || f.VCsTornDown == 0 {
		t.Fatal("no route was removed while host 0 was parked; the test no longer sets up the hazard")
	}
	if len(sinks[1].got) != 2 || !bytes.Equal(sinks[1].got[0], big) || !bytes.Equal(sinks[1].got[1], big) {
		t.Fatalf("host 1 received %d of host 0's 2 datagrams intact", len(sinks[1].got))
	}
	if drvs[1].ReassemblyErrors != 0 {
		t.Fatalf("host 1 rejected %d cells of host 0's flow", drvs[1].ReassemblyErrors)
	}
}
