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
		if d.NumTxVCs() != 0 || d.NumReassemblers() != 0 {
			t.Fatalf("fresh host %d holds %d tx VCs, %d reassemblers; want 0",
				i, d.NumTxVCs(), d.NumReassemblers())
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
	if drvs[0].NumTxVCs() != 1 || drvs[2].NumReassemblers() != 1 {
		t.Fatalf("flow endpoints hold %d tx VCs / %d reassemblers, want 1/1",
			drvs[0].NumTxVCs(), drvs[2].NumReassemblers())
	}
	for _, i := range []int{1, 3, 4, 5, 6, 7} {
		if drvs[i].NumTxVCs() != 0 {
			t.Fatalf("idle host %d grew %d tx VCs", i, drvs[i].NumTxVCs())
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

// TestFabricTeardownRecyclesTrunkVCIs pins idle-VC reclamation: tearing
// a cross-leaf route down must empty every switch table it touched,
// return its trunk VCIs to the links' pools (so the next setup reuses
// them), and drop the destination's reassembly context.
func TestFabricTeardownRecyclesTrunkVCIs(t *testing.T) {
	env := sim.NewEnv()
	f, _, _, drvs, _ := buildFabric(t, env, FabricFatTree, 2, 4)

	vci, ok := f.setup(0, 4) // host 0 (leaf 0) -> host 3 (leaf 1)
	if !ok {
		t.Fatal("setup failed")
	}
	if vci != DefaultVCI+3 {
		t.Fatalf("host-link tx VCI = %d, want %d", vci, DefaultVCI+3)
	}
	first := f.routes[0].m[flowKey{0, 3}]
	if first.n != 3 {
		t.Fatalf("cross-leaf route has %d hops, want 3", first.n)
	}
	trunk1, trunk2 := first.hops[1].vci, first.hops[2].vci

	// Simulate receive-side state so teardown has something to drop.
	drvs[3].rxFor(first.rxVCI)

	f.teardown(0, 4)
	if f.NumRoutes() != 0 || f.TotalVCs() != 0 {
		t.Fatalf("teardown left %d routes, %d VC entries", f.NumRoutes(), f.TotalVCs())
	}
	if drvs[3].NumReassemblers() != 0 {
		t.Fatal("teardown did not reclaim the destination reassembler")
	}

	if _, ok := f.setup(0, 4); !ok {
		t.Fatal("re-setup failed")
	}
	second := f.routes[0].m[flowKey{0, 3}]
	if second.hops[1].vci != trunk1 || second.hops[2].vci != trunk2 {
		t.Fatalf("trunk VCIs not recycled: first (%d,%d), second (%d,%d)",
			trunk1, trunk2, second.hops[1].vci, second.hops[2].vci)
	}
}

// TestFabricRouteRemovalNeedsOneEnv pins the guard on the two operations
// that remove routes: on a plan with more than one event loop, VC
// teardown and FailHostPort must panic rather than unroute cells the
// serial run would have delivered.
func TestFabricRouteRemovalNeedsOneEnv(t *testing.T) {
	plan := &ShardPlan{
		Envs:      []*sim.Env{sim.NewEnv(), sim.NewEnv()},
		HostShard: []int{0, 1, 1},
		StageCtl:  func(int, func()) {},
	}
	f, _, _, _, _ := buildFabricOn(t, plan, FabricHub, 0)
	if _, ok := f.setup(1, 3); !ok { // host 1 -> host 2, staged to the hub in shard 0
		t.Fatal("setup failed on a two-env plan")
	}
	for name, op := range map[string]func(){
		"teardown":     func() { f.teardown(1, 3) },
		"FailHostPort": func() { f.FailHostPort(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on a two-env plan", name)
				}
			}()
			op()
		}()
	}
	if f.NumRoutes() != 1 || f.HostPort(1).Down() {
		t.Errorf("a refused removal still changed the fabric: %d routes, port down %v", f.NumRoutes(), f.HostPort(1).Down())
	}
}

// TestDriverTxVCLimitEvictsLRU pins bounded-peer-state reclamation: with
// TxVCLimit set, installing a VC past the limit evicts the
// least-recently-used entry and tears its fabric path down, so a host
// that cycles through many peers holds O(limit) transmit state.
func TestDriverTxVCLimitEvictsLRU(t *testing.T) {
	env := sim.NewEnv()
	f, _, _, drvs, _ := buildFabric(t, env, FabricHub, 0, 5)
	d := drvs[0]
	d.TxVCLimit = 2

	d.segFor(10, 2) // dst host 1
	d.segFor(20, 3) // dst host 2
	d.segFor(30, 2) // touch host 1: host 2 is now LRU
	d.segFor(40, 4) // dst host 3: must evict host 2

	if got := d.NumTxVCs(); got != 2 {
		t.Fatalf("driver holds %d tx VCs, want TxVCLimit=2", got)
	}
	if d.tx.get(3) != nil {
		t.Fatal("LRU entry (dst 3) survived eviction")
	}
	if d.tx.get(2) == nil {
		t.Fatal("recently used entry (dst 2) was evicted")
	}
	// The fabric path went with it: routes for hosts 1 and 3 remain.
	if f.NumRoutes() != 2 || f.Core.NumVCs() != 2 {
		t.Fatalf("fabric holds %d routes, %d switch VCs after eviction; want 2, 2",
			f.NumRoutes(), f.Core.NumVCs())
	}

	// Re-sending to the evicted peer reinstalls transparently.
	if s := d.segFor(50, 3); s.VCI != DefaultVCI+2 {
		t.Fatalf("reinstalled VC carries VCI %d, want %d", s.VCI, DefaultVCI+2)
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
