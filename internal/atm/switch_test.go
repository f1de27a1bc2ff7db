package atm

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
)

// swSink records delivered payloads with their arrival times.
type swSink struct {
	env  *sim.Env
	got  [][]byte
	at   []sim.Time
	srcs []uint32
}

func (s *swSink) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	s.got = append(s.got, mbuf.Linearize(m))
	s.at = append(s.at, s.env.Now())
	s.srcs = append(s.srcs, h.Src)
}

// buildStar assembles n hosts on a hub fabric with a full VC mesh
// installed before any traffic, through the fabric's own install path:
// host i reaches host j on VCI 32+j, rewritten to 32+i at the egress so
// the arriving VCI names the source.
func buildStar(t *testing.T, env *sim.Env, n int) (*Switch, []*kern.Kernel, []*ip.Stack, []*Driver, []*swSink) {
	t.Helper()
	f, kerns, ips, drvs, sinks := buildFabric(t, env, FabricHub, 0, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !f.Connect(i, j) {
				t.Fatalf("no route from host %d to host %d", i, j)
			}
		}
	}
	return f.Core, kerns, ips, drvs, sinks
}

func TestSwitchDeliversOnlyToAddressedHost(t *testing.T) {
	env := sim.NewEnv()
	sw, kerns, ips, _, sinks := buildStar(t, env, 3)
	payload := make([]byte, 900)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := kerns[0].Pool.AllocCluster()
		m.Append(payload)
		ips[0].Output(p, 3, 99, m) // host 0 -> host 2
	}))
	env.Run()
	if len(sinks[2].got) != 1 || !bytes.Equal(sinks[2].got[0], payload) {
		t.Fatal("addressed host did not receive the datagram intact")
	}
	if len(sinks[1].got) != 0 {
		t.Fatal("unaddressed host received the datagram")
	}
	if sw.CellsSwitched == 0 {
		t.Fatal("switch forwarded no cells")
	}
}

func TestSwitchVCIRewriteNamesSource(t *testing.T) {
	// Hosts 1 and 2 both send to host 0; the cells must arrive on
	// distinct VCIs (32+1 and 32+2) and reassemble independently even
	// though they interleave at host 0's adapter.
	env := sim.NewEnv()
	_, kerns, ips, drvs, sinks := buildStar(t, env, 3)
	payloads := [][]byte{nil, make([]byte, 2000), make([]byte, 2000)}
	env.RNG().Fill(payloads[1])
	env.RNG().Fill(payloads[2])
	for i := 1; i <= 2; i++ {
		i := i
		env.Spawn(fmt.Sprintf("tx%d", i), sim.Steps(func(p *sim.Proc) {
			m := kerns[i].Pool.AllocCluster()
			m.Append(payloads[i])
			ips[i].Output(p, 1, 99, m)
		}))
	}
	env.Run()
	if len(sinks[0].got) != 2 {
		t.Fatalf("host 0 delivered %d datagrams, want 2", len(sinks[0].got))
	}
	for k, got := range sinks[0].got {
		src := sinks[0].srcs[k]
		if !bytes.Equal(got, payloads[src-1]) {
			t.Fatalf("datagram %d from host %d corrupted by interleaved reassembly", k, src-1)
		}
	}
	if drvs[0].rx.len() != 2 {
		t.Fatalf("host 0 used %d reassembly contexts, want one per source VCI", drvs[0].rx.len())
	}
}

func TestSwitchDropsUnroutedVC(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	sw := NewSwitch(env)
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa := NewAdapter(ka)
	ab := NewAdapter(kb)
	NewDriver(ka, aa, ipa)
	NewDriver(kb, ab, ipb)
	sw.AttachPort(aa)
	sw.AttachPort(ab)
	// No VC table entries: everything the default PVC carries is
	// unrouted at the switch.
	sink := &swSink{env: env}
	ipb.Register(99, sink)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 40))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if len(sink.got) != 0 {
		t.Fatal("datagram delivered despite missing VC route")
	}
	if sw.CellsUnrouted == 0 {
		t.Fatal("unrouted cells not counted")
	}
}

func TestSwitchThreeHostDeterminism(t *testing.T) {
	// A 3-host star exchanging random payloads must produce identical
	// delivery timelines for a fixed seed. CI runs this under the race
	// detector.
	run := func() ([]sim.Time, [][]byte) {
		env := sim.NewEnv()
		env.Seed(71)
		_, kerns, ips, _, sinks := buildStar(t, env, 3)
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
	at1, got1 := run()
	at2, got2 := run()
	if len(at1) != len(at2) || len(at1) != 3*4 {
		t.Fatalf("delivery counts differ or short: %d vs %d", len(at1), len(at2))
	}
	for i := range at1 {
		if at1[i] != at2[i] || !bytes.Equal(got1[i], got2[i]) {
			t.Fatalf("delivery %d differs between runs", i)
		}
	}
}

// TestSwitchVCTableIndexed pins the table behind forward: per ingress
// port, indexed by VCI. A cell routes only on the port and VCI it was
// installed for; a VCI past the end of the port's table, one inside it
// that was never installed or has been removed, and a reserved one all
// count as unrouted; and NumVCs is a count of entries, not of slots.
func TestSwitchVCTableIndexed(t *testing.T) {
	env := sim.NewEnv()
	model := cost.DECstation5000()
	sw := NewSwitch(env)
	in := NewAdapter(kern.New(env, model, "in"))
	out := NewAdapter(kern.New(env, model, "out"))
	sw.AttachPort(in)
	sw.AttachPort(out)
	cell := func(vci uint16) Cell {
		seg := Segmenter{VCI: vci}
		return seg.Segment(make([]byte, 100))[0]
	}
	sw.AddVC(0, DefaultVCI+2, 1, DefaultVCI+9)
	sw.AddVC(0, DefaultVCI+700, 1, DefaultVCI)
	sw.AddVC(0, DefaultVCI+2, 1, DefaultVCI+7) // reinstalling replaces, it does not add
	if got := sw.NumVCs(); got != 2 {
		t.Fatalf("NumVCs = %d after installing two channels, want 2", got)
	}
	for _, vci := range []uint16{DefaultVCI + 2, DefaultVCI + 700} {
		sw.Port(0).InjectCell(cell(vci))
	}
	for _, vci := range []uint16{DefaultVCI + 3, DefaultVCI + 701, 0xffff, 5} {
		sw.Port(0).InjectCell(cell(vci)) // in range but empty; past the end; far past; reserved
	}
	sw.Port(1).InjectCell(cell(DefaultVCI + 2)) // right VCI, wrong ingress port
	env.Run()
	if sw.CellsSwitched != 2 || sw.CellsUnrouted != 5 {
		t.Fatalf("switched %d, unrouted %d; want 2 and 5", sw.CellsSwitched, sw.CellsUnrouted)
	}
	c, _ := out.PopRx()
	if h, err := ParseHeader(&c); err != nil || h.VCI != DefaultVCI+7 {
		t.Fatalf("first cell left on VCI %d (%v), want the reinstalled %d", h.VCI, err, DefaultVCI+7)
	}

	sw.RemoveVC(0, DefaultVCI+2)
	sw.RemoveVC(0, DefaultVCI+2) // a second removal, and one that was never there, are no-ops
	sw.RemoveVC(0, 0xfff0)
	if got := sw.NumVCs(); got != 1 {
		t.Fatalf("NumVCs = %d after removing one of two, want 1", got)
	}
	sw.Port(0).InjectCell(cell(DefaultVCI + 2))
	env.Run()
	if sw.CellsUnrouted != 6 {
		t.Fatalf("a cell on a removed channel was not counted unrouted (%d)", sw.CellsUnrouted)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddVC accepted a reserved ingress VCI")
			}
		}()
		sw.AddVC(0, DefaultVCI-1, 1, DefaultVCI)
	}()
}

// TestQdiscPortCountsHECOnce: a cell whose header is corrupted on the
// ingress fiber is discarded by the switch's HEC check once, in forward,
// even when its route leads to a qdisc-managed port — one that decides
// admission at forward time, and one whose Scheduler sees cells a fabric
// latency later; the discipline never sees it. A clean cell on the same
// VC is switched through the discipline.
func TestQdiscPortCountsHECOnce(t *testing.T) {
	for _, qd := range []Qdisc{NewDropTail(64), NewDRR(0, 64)} {
		env := sim.NewEnv()
		sw, _, _, drvs, _ := buildStar(t, env, 3)
		out := sw.Port(2)
		out.SetQdisc(qd)
		send := func(corrupt bool) {
			var c Cell
			CellHeader{VCI: DefaultVCI + 2}.Marshal(&c) // host 0 -> host 2
			if corrupt {
				c[1] ^= 0x10
			}
			sw.Port(0).deliverCell(&c)
			env.Run()
		}
		send(true)
		if sw.HECErrors != 1 || sw.CellsSwitched != 0 || sw.CellsDropped != 0 || drvs[2].Adapter.CellsRecv != 0 {
			t.Fatalf("%T, corrupted cell: HECErrors %d, switched %d, dropped %d, host 2 received %d; want 1, 0, 0, 0",
				qd, sw.HECErrors, sw.CellsSwitched, sw.CellsDropped, drvs[2].Adapter.CellsRecv)
		}
		send(false)
		if sw.HECErrors != 1 || sw.CellsSwitched != 1 || drvs[2].Adapter.CellsRecv != 1 {
			t.Fatalf("%T, clean cell: HECErrors %d, switched %d, host 2 received %d; want 1, 1, 1",
				qd, sw.HECErrors, sw.CellsSwitched, drvs[2].Adapter.CellsRecv)
		}
	}
}

// TestCutPortRefusesScheduler: a cut fibre stages its cell at commit,
// before a Scheduler picks the cell that fills the slot, so a port is
// never both — whichever of SetQdisc and SetCut comes second refuses.
func TestCutPortRefusesScheduler(t *testing.T) {
	stage := func(scheduleAt, at sim.Time, c Cell) {}
	for name, setup := range map[string]func(p *Port){
		"cut, then DRR": func(p *Port) { p.SetCut(stage); p.SetQdisc(NewDRR(0, 0)) },
		"DRR, then cut": func(p *Port) { p.SetQdisc(NewDRR(0, 0)); p.SetCut(stage) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: accepted", name)
				}
			}()
			setup(NewSwitch(sim.NewEnv()).newPort(nil, 1e8, 0))
		}()
	}
	p := NewSwitch(sim.NewEnv()).newPort(nil, 1e8, 0)
	p.SetCut(stage)
	p.SetQdisc(NewRED(0, 0, 0, 0, 0, 1)) // a discipline that serves in arrival order may be cut
}
