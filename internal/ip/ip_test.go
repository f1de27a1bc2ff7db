package ip

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(totalLen uint16, id uint16, ttl, proto uint8, src, dst uint32) bool {
		h := Header{
			TotalLen: int(totalLen)%9000 + HeaderLen,
			ID:       id, TTL: ttl, Proto: proto, Src: src, Dst: dst,
		}
		b := make([]byte, HeaderLen)
		h.Marshal(b)
		got, err := Parse(b)
		return err == nil && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderChecksumDetectsCorruption(t *testing.T) {
	h := Header{TotalLen: 100, ID: 7, TTL: 64, Proto: 6, Src: 1, Dst: 2}
	b := make([]byte, HeaderLen)
	h.Marshal(b)
	for i := 0; i < HeaderLen; i++ {
		b[i] ^= 0xff
		if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("corruption at byte %d: err %v, want a checksum mismatch", i, err)
		}
		b[i] ^= 0xff
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	b := make([]byte, HeaderLen)
	(&Header{TotalLen: 20}).Marshal(b)
	b[0] = 0x46 // IHL 6: options unsupported, under a good checksum
	b[10], b[11] = 0, 0
	ck := checksum.Checksum(b)
	b[10], b[11] = byte(ck>>8), byte(ck)
	if _, err := Parse(b); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("options header: err %v, want a version refusal", err)
	}
	(&Header{TotalLen: HeaderLen - 1}).Marshal(b)
	if _, err := Parse(b); err == nil {
		t.Error("a total length shorter than the header accepted")
	}
}

// fakeIf is a loopback interface delivering to another stack.
type fakeIf struct {
	mtu  int
	peer *Stack
	sent int
}

func (f *fakeIf) Output(p *sim.Proc, m *mbuf.Mbuf) {
	f.sent++
	f.peer.Enqueue(m)
}
func (f *fakeIf) MTU() int     { return f.mtu }
func (f *fakeIf) Name() string { return "fake0" }

type capture struct {
	payloads [][]byte
	headers  []Header
}

func (c *capture) Input(p *sim.Proc, h Header, m *mbuf.Mbuf) {
	c.headers = append(c.headers, h)
	c.payloads = append(c.payloads, mbuf.Linearize(m))
}

func newTwoStacks(t *testing.T) (*sim.Env, *kern.Kernel, *Stack, *Stack, *capture) {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	sa := NewStack(ka, 0x0a000001)
	sb := NewStack(kb, 0x0a000002)
	fa := &fakeIf{mtu: 9188, peer: sb}
	fb := &fakeIf{mtu: 9188, peer: sa}
	sa.Attach(fa)
	sb.Attach(fb)
	cap := &capture{}
	sb.Register(ProtoTCP, cap)
	return env, ka, sa, sb, cap
}

func TestOutputInputRoundTrip(t *testing.T) {
	env, ka, sa, _, cap := newTwoStacks(t)
	payload := make([]byte, 777)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		rest := payload
		cur := m
		for {
			n := cur.Append(rest)
			rest = rest[n:]
			if len(rest) == 0 {
				break
			}
			next := ka.Pool.Alloc()
			cur.SetNext(next)
			cur = next
		}
		sa.Output(p, 0x0a000002, ProtoTCP, m)
	}))
	env.Run()
	if len(cap.payloads) != 1 {
		t.Fatalf("delivered %d datagrams", len(cap.payloads))
	}
	if !bytes.Equal(cap.payloads[0], payload) {
		t.Fatal("payload corrupted")
	}
	h := cap.headers[0]
	if h.Src != 0x0a000001 || h.Dst != 0x0a000002 || h.Proto != ProtoTCP {
		t.Fatalf("header fields wrong: %+v", h)
	}
	if h.TotalLen != len(payload)+HeaderLen {
		t.Fatalf("TotalLen = %d", h.TotalLen)
	}
}

func TestOutputMTUPanic(t *testing.T) {
	env, ka, sa, _, _ := newTwoStacks(t)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.AllocCluster()
		m.Append(make([]byte, 4096))
		m2 := ka.Pool.AllocCluster()
		m2.Append(make([]byte, 4096))
		m3 := ka.Pool.AllocCluster()
		m3.Append(make([]byte, 4096))
		m.SetNext(m2)
		m2.SetNext(m3)
		sa.Output(p, 0x0a000002, ProtoTCP, m)
	}))
	// The output frame runs inside the event loop, so the panic surfaces
	// from Run, not from the spawning closure.
	defer func() {
		if recover() == nil {
			t.Error("oversize datagram did not panic")
		}
	}()
	env.Run()
}

func TestInputDropsUnknownProto(t *testing.T) {
	env, ka, sa, sb, _ := newTwoStacks(t)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append([]byte{1, 2, 3})
		sa.Output(p, 0x0a000002, 250, m) // unregistered protocol
	}))
	env.Run()
	if sb.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", sb.Drops)
	}
}

func TestInputDropsCorruptHeader(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	s := NewStack(k, 1)
	s.Attach(&fakeIf{mtu: 9000, peer: s})
	s.Register(ProtoTCP, &capture{})
	m := k.Pool.Alloc()
	hdr := make([]byte, HeaderLen)
	(&Header{TotalLen: 23, TTL: 4, Proto: ProtoTCP, Src: 9, Dst: 1}).Marshal(hdr)
	hdr[13] ^= 0x55 // corrupt after checksum computation
	m.Append(hdr)
	m.Append([]byte{1, 2, 3})
	s.Enqueue(m)
	env.Run()
	if s.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", s.Drops)
	}
}

func TestInputTrimsPadding(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	s := NewStack(k, 1)
	s.Attach(&fakeIf{mtu: 9000, peer: s})
	cap := &capture{}
	s.Register(ProtoTCP, cap)
	m := k.Pool.Alloc()
	hdr := make([]byte, HeaderLen)
	(&Header{TotalLen: HeaderLen + 3, TTL: 4, Proto: ProtoTCP, Src: 9, Dst: 1}).Marshal(hdr)
	m.Append(hdr)
	m.Append([]byte{7, 8, 9})
	m.Append(make([]byte, 20)) // link-level padding
	s.Enqueue(m)
	env.Run()
	if len(cap.payloads) != 1 || !bytes.Equal(cap.payloads[0], []byte{7, 8, 9}) {
		t.Fatalf("padding not trimmed: %v", cap.payloads)
	}
}

func TestIPQLatencyCharged(t *testing.T) {
	env, ka, sa, sb, _ := newTwoStacks(t)
	sb.K.Trace.EnablePackets()
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		m := ka.Pool.Alloc()
		m.Append(make([]byte, 30))
		sa.Output(p, 0x0a000002, ProtoTCP, m)
	}))
	env.Run()
	var ipq sim.Time
	for _, e := range sb.K.Trace.Events() {
		if e.Kind == trace.EvCPU && e.Layer == trace.LayerIPQ {
			ipq += e.Dur
		}
	}
	if ipq != sb.K.Cost.SoftintDispatch {
		t.Fatalf("IPQ charge %v, want %v", ipq, sb.K.Cost.SoftintDispatch)
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	env, ka, sa, _, cap := newTwoStacks(t)
	env.Spawn("tx", sim.LoopN(5, func(p *sim.Proc, i int) {
		m := ka.Pool.Alloc()
		m.Append([]byte{byte(i)})
		sa.Output(p, 0x0a000002, ProtoTCP, m)
	}))
	env.Run()
	if len(cap.payloads) != 5 {
		t.Fatalf("delivered %d", len(cap.payloads))
	}
	for i, pl := range cap.payloads {
		if pl[0] != byte(i) {
			t.Fatalf("reordered: %v", cap.payloads)
		}
	}
}

func TestIDsIncrement(t *testing.T) {
	env, ka, sa, _, cap := newTwoStacks(t)
	env.Spawn("tx", sim.LoopN(3, func(p *sim.Proc, i int) {
		m := ka.Pool.Alloc()
		m.Append([]byte{1})
		sa.Output(p, 0x0a000002, ProtoTCP, m)
	}))
	env.Run()
	if len(cap.headers) != 3 {
		t.Fatal("missing datagrams")
	}
	for i := 1; i < 3; i++ {
		if cap.headers[i].ID != cap.headers[i-1].ID+1 {
			t.Fatalf("IDs not incrementing: %v %v", cap.headers[i-1].ID, cap.headers[i].ID)
		}
	}
}
