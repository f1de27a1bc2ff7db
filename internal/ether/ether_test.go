package ether

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"testing/quick"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

var (
	addrA = [6]byte{2, 0, 0, 0, 0, 1}
	addrB = [6]byte{2, 0, 0, 0, 0, 2}
)

func TestEncapsulateDecapsulate(t *testing.T) {
	rng := sim.NewRNG(5)
	f := func(n uint16) bool {
		payload := make([]byte, int(n)%MTU)
		rng.Fill(payload)
		fr := Encapsulate(addrB, addrA, EtherTypeIPv4, payload)
		got, et, ok := Decapsulate(fr)
		if !ok || et != EtherTypeIPv4 {
			return false
		}
		// Short payloads come back padded to the minimum.
		want := payload
		if len(want) < MinPayload {
			padded := make([]byte, MinPayload)
			copy(padded, want)
			want = padded
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenFrames holds the codec to bytes captured before the seal
// moved in place: a padded minimum frame spelled out, and a full-MTU one
// by digest. The driver's in-place seal is held to Encapsulate by
// TestOutputCopiesOnce and FuzzFrameRoundTrip; this holds Encapsulate.
func TestGoldenFrames(t *testing.T) {
	const small = "020000000002" + "020000000001" + "0800" +
		"68656c6c6f2065746865726e6574" + // "hello ethernet"
		"0000000000000000000000000000000000000000000000000000000000000000" + // pad to 46
		"ca3643e0"
	fr := Encapsulate(addrB, addrA, EtherTypeIPv4, []byte("hello ethernet"))
	if got := hex.EncodeToString(fr); got != small {
		t.Errorf("minimum frame\n got %s\nwant %s", got, small)
	}
	p := make([]byte, MTU)
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
	const full = "ebbcc032e3a2ead4619d0540459d997758a2b8b12cf3bedf6afffec9c80d15dc"
	if got := sha256.Sum256(Encapsulate(addrA, addrB, 0x86dd, p)); hex.EncodeToString(got[:]) != full {
		t.Errorf("full-MTU frame digest %x, want %s", got, full)
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	fr := Encapsulate(addrB, addrA, EtherTypeIPv4, []byte("hello ethernet"))
	for i := range fr {
		fr[i] ^= 0x01
		if _, _, ok := Decapsulate(fr); ok {
			t.Fatalf("FCS missed corruption at byte %d", i)
		}
		fr[i] ^= 0x01
	}
	if _, _, ok := Decapsulate(fr); !ok {
		t.Fatal("pristine frame rejected")
	}
}

func TestDecapsulateShortFrame(t *testing.T) {
	if _, _, ok := Decapsulate(make(Frame, 10)); ok {
		t.Fatal("runt frame accepted")
	}
}

func TestMinimumFramePadding(t *testing.T) {
	fr := Encapsulate(addrB, addrA, EtherTypeIPv4, []byte{1})
	if len(fr) != HeaderLen+MinPayload+FCSLen {
		t.Fatalf("frame length %d, want minimum %d", len(fr), HeaderLen+MinPayload+FCSLen)
	}
}

type sink struct{ got [][]byte }

func (s *sink) Input(p *sim.Proc, h ip.Header, m *mbuf.Mbuf) {
	s.got = append(s.got, mbuf.Linearize(m))
}

func buildPair(t *testing.T) (*sim.Env, *kern.Kernel, *kern.Kernel, *ip.Stack, *ip.Stack, *Adapter, *Adapter) {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	aa := NewAdapter(ka, addrA)
	ab := NewAdapter(kb, addrB)
	Connect(aa, ab)
	NewDriver(ka, aa, ipa)
	NewDriver(kb, ab, ipb)
	return env, ka, kb, ipa, ipb, aa, ab
}

func TestDriverEndToEnd(t *testing.T) {
	env, ka, _, ipa, ipb, _, _ := buildPair(t)
	s := &sink{}
	ipb.Register(99, s)
	payload := make([]byte, 1200)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.AllocCluster()
		m.Append(payload)
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if len(s.got) != 1 || !bytes.Equal(s.got[0], payload) {
		t.Fatal("payload corrupted or lost")
	}
}

func TestDriverStripsPadding(t *testing.T) {
	// A 5-byte datagram rides a padded minimum frame; IP must trim the
	// padding using the header's total length.
	env, ka, _, ipa, ipb, _, _ := buildPair(t)
	s := &sink{}
	ipb.Register(99, s)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append([]byte{9, 8, 7, 6, 5})
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if len(s.got) != 1 {
		t.Fatal("datagram lost")
	}
	if !bytes.Equal(s.got[0], []byte{9, 8, 7, 6, 5}) {
		t.Fatalf("padding not stripped: got %d bytes", len(s.got[0]))
	}
}

func TestWireSlowerThanATM(t *testing.T) {
	// 1400 bytes at 10 Mb/s must occupy the wire for over a millisecond,
	// the bandwidth gap Table 1 attributes the large-size difference to.
	env, ka, _, ipa, ipb, aa, _ := buildPair(t)
	ipb.Register(99, &sink{})
	start := sim.Time(0)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.AllocCluster()
		m.Append(make([]byte, 1400))
		start = env.Now()
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if aa.FramesSent != 1 {
		t.Fatal("frame not sent")
	}
	elapsed := env.Now() - start
	if elapsed < 1100*sim.Microsecond {
		t.Fatalf("1400B took %v end to end; 10 Mb/s wire should dominate", elapsed)
	}
}

func TestFrameLossDrops(t *testing.T) {
	env, ka, _, ipa, ipb, _, ab := buildPair(t)
	s := &sink{}
	ipb.Register(99, s)
	ab.SetImpairments(sim.GEParams{LossGood: 1}, 7) // drop everything
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 50))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if len(s.got) != 0 {
		t.Fatal("frame delivered despite 100% loss")
	}
}

func TestEtherChargesLayer(t *testing.T) {
	env, ka, kb, ipa, ipb, _, _ := buildPair(t)
	for _, k := range []*kern.Kernel{ka, kb} {
		k.Trace.EnablePackets()
	}
	ipb.Register(99, &sink{})
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 80))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	var tx, rx sim.Time
	for _, e := range ka.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerEtherTx {
			tx += e.Dur
		}
	}
	for _, e := range kb.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerEtherRx {
			rx += e.Dur
		}
	}
	if tx == 0 || rx == 0 {
		t.Fatal("Ether layers uncharged")
	}
	if rx <= tx {
		t.Fatalf("LANCE receive (%v) should cost more than transmit (%v)", rx, tx)
	}
}

func TestIFGSerializesBackToBackFrames(t *testing.T) {
	env, ka, _, ipa, ipb, aa, _ := buildPair(t)
	s := &sink{}
	ipb.Register(99, s)
	env.Spawn("tx", sim.LoopN(3, func(p *sim.Proc, i int) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 60))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	if aa.FramesSent != 3 || len(s.got) != 3 {
		t.Fatalf("sent %d delivered %d", aa.FramesSent, len(s.got))
	}
}

// TestFCSMatchesBitwiseReference pins the stdlib CRC-32 the frame FCS
// now uses to the bit-at-a-time reference it replaced.
func TestFCSMatchesBitwiseReference(t *testing.T) {
	rng := sim.NewRNG(13)
	for _, n := range []int{1, 14, 64, 1500} {
		b := make([]byte, n)
		rng.Fill(b)
		if got, want := fcs(b), fcsBitwise(b); got != want {
			t.Fatalf("fcs(%d bytes) = %#x, bitwise reference %#x", n, got, want)
		}
	}
}

// TestEtherRxChargesCarryTheirPacket: the receive interrupt's charge for
// a frame is the datagram's — Delivery.Arrive precedes it — so every
// Ether(rx) CPU event of a 1,200-byte datagram's receive names its
// packet.
func TestEtherRxChargesCarryTheirPacket(t *testing.T) {
	env, ka, kb, ipa, ipb, _, _ := buildPair(t)
	kb.Trace.EnablePackets()
	ipb.Register(99, &sink{})
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 1200))
		ipa.Output(p, 2, 99, m)
	}))
	env.Run()
	var anon, total sim.Time
	for _, e := range kb.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerEtherRx {
			total += e.Dur
			if e.ID.IsZero() {
				anon += e.Dur
			}
		}
	}
	if total == 0 {
		t.Fatal("no Ether(rx) charge recorded: the test is vacuous")
	}
	if anon != 0 {
		t.Errorf("%v of %v Ether(rx) CPU carries no packet identity", anon, total)
	}
}
