package udp

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, n uint16) bool {
		h := Header{SrcPort: sp, DstPort: dp, Length: int(n)%9000 + HeaderLen}
		b := make([]byte, HeaderLen)
		h.Marshal(b)
		got, err := ParseHeader(b)
		return err == nil && got.SrcPort == sp && got.DstPort == dp &&
			got.Length == h.Length && got.Cksum == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pair builds a two-host ATM testbed with UDP stacks.
type pair struct {
	env    *sim.Env
	sa, sb *Stack
	aa, ab *atm.Adapter
	da, db *atm.Driver
}

func newPair(t *testing.T) *pair {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	p := &pair{env: env}
	p.aa, p.ab = atm.NewAdapter(ka), atm.NewAdapter(kb)
	atm.Connect(p.aa, p.ab)
	p.da = atm.NewDriver(ka, p.aa, ipa)
	p.db = atm.NewDriver(kb, p.ab, ipb)
	p.sa = NewStack(ka, ipa)
	p.sb = NewStack(kb, ipb)
	return p
}

func TestSendRecvRoundTrip(t *testing.T) {
	p := newPair(t)
	payload := make([]byte, 1400)
	p.env.RNG().Fill(payload)
	var got Datagram
	eb, err := p.sb.Bind(53)
	if err != nil {
		t.Fatal(err)
	}
	var recv *RecvFromOp
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { recv = eb.RecvFrom(pr) },
		func(pr *sim.Proc) { got = recv.D },
	))
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, err := p.sa.Bind(0)
		if err != nil {
			t.Error(err)
			return
		}
		ea.SendTo(pr, 2, 53, payload)
	}))
	p.env.Run()
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("payload corrupted")
	}
	if got.Src != 1 {
		t.Fatalf("source address %d", got.Src)
	}
}

func TestSizesProperty(t *testing.T) {
	f := func(n uint16) bool {
		p := newPair(t)
		size := int(n) % 8000
		payload := make([]byte, size)
		p.env.RNG().Fill(payload)
		eb, _ := p.sb.Bind(99)
		var got Datagram
		var recv *RecvFromOp
		p.env.Spawn("rx", sim.Steps(
			func(pr *sim.Proc) { recv = eb.RecvFrom(pr) },
			func(pr *sim.Proc) { got = recv.D },
		))
		p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
			ea, _ := p.sa.Bind(0)
			ea.SendTo(pr, 2, 99, payload)
		}))
		p.env.Run()
		return bytes.Equal(got.Data, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksumDetectsHostCorruption(t *testing.T) {
	p := newPair(t)
	p.db.FlipNext(100 * 8) // a payload bit of the next datagram received
	eb, _ := p.sb.Bind(7)
	received := false
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { eb.RecvFrom(pr) },
		func(pr *sim.Proc) { received = true },
	))
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, _ := p.sa.Bind(0)
		ea.SendTo(pr, 2, 7, make([]byte, 500))
	}))
	// RecvFrom never returns: run a bounded slice of virtual time.
	p.env.RunUntil(100 * sim.Millisecond)
	if received {
		t.Fatal("corrupted datagram delivered despite checksum")
	}
	if p.sb.ChecksumErrors != 1 {
		t.Fatalf("ChecksumErrors = %d, want 1", p.sb.ChecksumErrors)
	}
}

func TestChecksumOffDeliversCorruption(t *testing.T) {
	// The NFS-style configuration: no UDP checksum. A controller flip
	// is invisible (there is no recovery in UDP — the paper's point that
	// elimination is an application decision).
	p := newPair(t)
	p.sa.ChecksumOff = true
	p.db.FlipNext(100 * 8)
	eb, _ := p.sb.Bind(7)
	payload := make([]byte, 500)
	p.env.RNG().Fill(payload)
	var got Datagram
	var recv *RecvFromOp
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { recv = eb.RecvFrom(pr) },
		func(pr *sim.Proc) { got = recv.D },
	))
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, _ := p.sa.Bind(0)
		ea.SendTo(pr, 2, 7, payload)
	}))
	p.env.Run()
	if got.Data == nil {
		t.Fatal("datagram not delivered")
	}
	if bytes.Equal(got.Data, payload) {
		t.Fatal("corruption did not occur; test vacuous")
	}
}

func TestNoChecksumFasterThanChecksum(t *testing.T) {
	rtt := func(off bool) sim.Time {
		p := newPair(t)
		p.sa.ChecksumOff = off
		p.sb.ChecksumOff = off
		eb, _ := p.sb.Bind(7)
		payload := make([]byte, 4000)
		var done sim.Time
		var srecv *RecvFromOp
		p.env.Spawn("server", sim.Steps(
			func(pr *sim.Proc) { srecv = eb.RecvFrom(pr) },
			func(pr *sim.Proc) {
				d := srecv.D
				eb.SendTo(pr, d.Src, d.SrcPort, d.Data)
			},
		))
		var ea *Endpoint
		p.env.Spawn("client", sim.Steps(
			func(pr *sim.Proc) {
				ea, _ = p.sa.Bind(0)
				ea.SendTo(pr, 2, 7, payload)
			},
			func(pr *sim.Proc) { ea.RecvFrom(pr) },
			func(pr *sim.Proc) { done = p.env.Now() },
		))
		p.env.Run()
		return done
	}
	on, off := rtt(false), rtt(true)
	if off >= on {
		t.Fatalf("checksum-off RTT %v not faster than on %v", off, on)
	}
}

func TestBindConflicts(t *testing.T) {
	p := newPair(t)
	if _, err := p.sb.Bind(80); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sb.Bind(80); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	e1, err := p.sb.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := p.sb.Bind(0)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Port() == e2.Port() {
		t.Fatal("ephemeral ports collided")
	}
}

func TestUnboundPortDrops(t *testing.T) {
	p := newPair(t)
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, _ := p.sa.Bind(0)
		ea.SendTo(pr, 2, 1234, []byte("nobody home"))
	}))
	p.env.Run()
	if p.sb.NoPortDrops != 1 {
		t.Fatalf("NoPortDrops = %d", p.sb.NoPortDrops)
	}
}

func TestQueueingMultipleDatagrams(t *testing.T) {
	p := newPair(t)
	eb, _ := p.sb.Bind(7)
	var got []byte
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, _ := p.sa.Bind(0)
		pr.Call(sim.LoopN(5, func(pr *sim.Proc, i int) {
			ea.SendTo(pr, 2, 7, []byte{byte(i)})
		}))
	}))
	var recv *RecvFromOp
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { pr.Sleep(50 * sim.Millisecond) }, // let them queue
		func(pr *sim.Proc) {
			pr.Call(sim.LoopN(6, func(pr *sim.Proc, i int) {
				if i > 0 {
					got = append(got, recv.D.Data...)
				}
				if i < 5 {
					recv = eb.RecvFrom(pr)
				}
			}))
		},
	))
	p.env.Run()
	if !bytes.Equal(got, []byte{0, 1, 2, 3, 4}) {
		t.Fatalf("order/content wrong: %v", got)
	}
}

// TestReceiverOwnsACheckout pins the receive contract: RecvFrom hands the
// receiver an arena checkout holding exactly the payload, the queued chain
// is freed when it is copied out, Release gives the checkout back (poisoned
// under Arena.Poison, so a reader that kept it reads 0xDB) and a second
// Release is a no-op.
func TestReceiverOwnsACheckout(t *testing.T) {
	p := newPair(t)
	p.env.Arena().Poison = true
	payload := make([]byte, 1400)
	p.env.RNG().Fill(payload)
	eb, _ := p.sb.Bind(7)
	var recv *RecvFromOp
	var got Datagram
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { recv = eb.RecvFrom(pr) },
		func(pr *sim.Proc) { got = recv.D },
	))
	p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
		ea, _ := p.sa.Bind(0)
		ea.SendTo(pr, 2, 7, payload)
	}))
	p.env.Run()
	if !bytes.Equal(got.Data, payload) {
		t.Fatal("payload corrupted")
	}
	if n := p.env.Arena().Outstanding(); n != 1 {
		t.Fatalf("%d checkouts outstanding while the receiver holds its datagram, want 1", n)
	}
	if live := p.sb.K.Pool.PoolStats.LiveHeaders; live != 0 {
		t.Fatalf("%d mbuf headers live after the copyout: the queued chain was not freed", live)
	}
	kept := got.Data
	eb.Release(&got)
	eb.Release(&got)
	if got.Data != nil || p.env.Arena().Outstanding() != 0 {
		t.Fatalf("after Release: Data %v, %d outstanding", got.Data != nil, p.env.Arena().Outstanding())
	}
	if kept[0] != 0xDB || kept[len(kept)-1] != 0xDB {
		t.Fatal("a released datagram was not poisoned")
	}
}

// TestQueuedDatagramsAreFreed: datagrams still queued when their endpoint
// is closed or its stack is reset hold mbuf chains, and both free them,
// leaving the receiving host's pool with nothing live.
func TestQueuedDatagramsAreFreed(t *testing.T) {
	for _, how := range []string{"close", "reset"} {
		p := newPair(t)
		eb, _ := p.sb.Bind(7)
		p.env.Spawn("tx", sim.Steps(func(pr *sim.Proc) {
			ea, _ := p.sa.Bind(0)
			pr.Call(sim.LoopN(5, func(pr *sim.Proc, i int) {
				ea.SendTo(pr, 2, 7, make([]byte, 100+2000*i)) // small mbufs and clusters
			}))
		}))
		p.env.Run()
		pool := &p.sb.K.Pool.PoolStats
		if eb.Pending() != 5 || pool.LiveHeaders == 0 || pool.LivePages == 0 {
			t.Fatalf("%s: %d queued holding %d headers, %d pages; want 5 holding both kinds",
				how, eb.Pending(), pool.LiveHeaders, pool.LivePages)
		}
		if how == "close" {
			eb.Close()
		} else {
			p.sb.Reset()
		}
		if eb.Pending() != 0 || pool.LiveHeaders != 0 || pool.LivePages != 0 {
			t.Errorf("after %s: %d queued, %d headers and %d pages live", how, eb.Pending(), pool.LiveHeaders, pool.LivePages)
		}
	}
}

// seal makes raw a well-formed datagram: Length the datagram's length
// and, when the checksum field is nonzero, a checksum that verifies.
func seal(raw []byte, src, dst uint32) {
	if len(raw) < HeaderLen || len(raw) > 0xffff {
		return
	}
	raw[4], raw[5] = byte(len(raw)>>8), byte(len(raw))
	if raw[6] == 0 && raw[7] == 0 {
		return
	}
	raw[6], raw[7] = 0, 0
	ps := udpPseudo(src, dst, len(raw))
	ps.Add(raw)
	ck := ps.Checksum()
	if ck == 0 {
		ck = 0xffff
	}
	raw[6], raw[7] = byte(ck>>8), byte(ck)
}

// verdict is the reference for what udp_input does with raw on a host
// whose one bound port, if bound, is port: which counter moves, computed
// on the flat bytes rather than a chain.
func verdict(raw []byte, src, dst uint32, bound bool, port uint16) string {
	if len(raw) < HeaderLen || int(raw[4])<<8|int(raw[5]) != len(raw) {
		return "bad header"
	}
	if raw[6] != 0 || raw[7] != 0 {
		pseudo := []byte{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src),
			byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst), 0, ProtoUDP, raw[4], raw[5]}
		if !checksum.Verify(append(pseudo, raw...)) {
			return "checksum"
		}
	}
	if !bound || uint16(raw[2])<<8|uint16(raw[3]) != port {
		return "no port"
	}
	return "delivered"
}

// FuzzUDPInput hands udp_input arbitrary bytes, as a chain of mbufs of
// up to per bytes each, on a host with or without a port bound where the
// datagram is headed; seal first repairs Length and the checksum so that
// the delivery path is reached. Every input must move exactly the counter
// verdict names — the ledger DatagramsIn + ChecksumErrors + NoPortDrops +
// BadHeaders has no other way out — a delivery must carry exactly the
// payload, and once the receiver has released it the host holds no mbuf
// and its loop no checkout.
func FuzzUDPInput(f *testing.F) {
	hdr := func(dport, length, ck uint16, payload string) []byte {
		return append([]byte{0x08, 0x01, byte(dport >> 8), byte(dport), byte(length >> 8), byte(length), byte(ck >> 8), byte(ck)}, payload...)
	}
	f.Add(hdr(7, 13, 0, "hello"), true, false, uint8(108))               // zero checksum
	f.Add(hdr(7, 13, 1, "hello"), true, true, uint8(3))                  // nonzero checksum, sealed to verify
	f.Add(hdr(7, 13, 0x1234, "hello"), true, false, uint8(108))          // nonzero checksum that fails
	f.Add(hdr(7, 14, 0, "hello"), true, false, uint8(108))               // Length + 1
	f.Add(hdr(7, 12, 0, "hello"), true, false, uint8(108))               // Length - 1
	f.Add(hdr(7, 8, 0, ""), true, false, uint8(108))                     // empty payload
	f.Add(hdr(9, 13, 0, "hello"), false, false, uint8(108))              // no port
	f.Add([]byte{0, 7, 0, 7, 0}, true, false, uint8(2))                  // short header
	f.Add(hdr(7, 0, 1, string(make([]byte, 300))), true, true, uint8(0)) // one byte an mbuf
	f.Fuzz(func(t *testing.T, raw []byte, bound, sealed bool, per uint8) {
		const src, dst = 1, 2
		if sealed {
			seal(raw, src, dst)
		}
		env := sim.NewEnv()
		k := kern.New(env, cost.DECstation5000(), "b")
		s := NewStack(k, ip.NewStack(k, dst))
		var ep *Endpoint
		var port uint16
		if bound {
			if len(raw) >= 4 {
				port = uint16(raw[2])<<8 | uint16(raw[3])
			}
			ep, _ = s.Bind(port)
			port = ep.Port() // Bind(0) picks an ephemeral port
		}
		chain := k.Pool.Alloc()
		for m, rest := chain, raw; len(rest) > 0; {
			n := min(len(rest), int(per%mbuf.MLEN)+1)
			if m.Cap() < n {
				next := k.Pool.Alloc()
				m.SetNext(next)
				m = next
			}
			rest = rest[m.Append(rest[:n]):]
		}

		var recv *RecvFromOp
		var got *Datagram
		if ep != nil {
			env.Spawn("rx", sim.Steps(
				func(pr *sim.Proc) { recv = ep.RecvFrom(pr) },
				func(pr *sim.Proc) { got = &recv.D },
			))
		}
		env.Spawn("input", sim.Steps(func(pr *sim.Proc) {
			s.Input(pr, ip.Header{Src: src, Dst: dst, Proto: ProtoUDP}, chain)
		}))
		env.Run()

		moved := map[string]int64{"delivered": s.DatagramsIn, "checksum": s.ChecksumErrors,
			"no port": s.NoPortDrops, "bad header": s.BadHeaders}
		want := verdict(raw, src, dst, bound, port)
		for name, n := range moved {
			if (name == want) != (n == 1) || n > 1 {
				t.Fatalf("counters %v, want only %q to move", moved, want)
			}
		}
		if (got != nil) != (want == "delivered") {
			t.Fatalf("verdict %q, but the receiver got a datagram: %v", want, got != nil)
		}
		if got != nil {
			sport := uint16(raw[0])<<8 | uint16(raw[1])
			if !bytes.Equal(got.Data, raw[HeaderLen:]) || got.Src != src || got.SrcPort != sport {
				t.Fatalf("delivered %d bytes from %d:%d, want %d from %d:%d",
					len(got.Data), got.Src, got.SrcPort, len(raw)-HeaderLen, src, sport)
			}
			ep.Release(got)
		}
		if hdrs, pages := k.Pool.PoolStats.LiveHeaders, k.Pool.PoolStats.LivePages; hdrs != 0 || pages != 0 {
			t.Fatalf("%d mbuf headers and %d pages live after the input ended", hdrs, pages)
		}
		if n := env.Arena().Outstanding(); n != 0 {
			t.Fatalf("%d checkouts outstanding after Release", n)
		}
	})
}
