package tcp

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/ether"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/sock"
)

func TestHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win, mss uint16, alt bool) bool {
		h := Header{
			SrcPort: sp, DstPort: dp,
			Seq: Seq(seq), Ack: Seq(ack),
			Flags: flags & 0x3f, Win: win, MSS: mss,
		}
		if alt {
			h.AltCksum = AltCksumNone
		}
		b := make([]byte, 28)
		n := h.Marshal(b)
		got, off, err := Parse(b[:n])
		if err != nil || off != n {
			return false
		}
		got.Cksum = h.Cksum // checksum written separately
		return got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderParseErrors(t *testing.T) {
	if _, _, err := Parse(make([]byte, 10)); err == nil {
		t.Error("short header accepted")
	}
	b := make([]byte, 20)
	(&Header{}).Marshal(b)
	b[12] = 2 << 4 // data offset 8 bytes < 20
	if _, _, err := Parse(b); err == nil {
		t.Error("bad offset accepted")
	}
	b2 := make([]byte, 24)
	(&Header{MSS: 100}).Marshal(b2)
	b2[21] = 3 // malformed MSS option length
	if _, _, err := Parse(b2); err == nil {
		t.Error("malformed option accepted")
	}
}

func TestFlagString(t *testing.T) {
	if got := FlagString(FlagSYN | FlagACK); got != "SYN|ACK" {
		t.Fatalf("FlagString = %q", got)
	}
	if got := FlagString(0); got != "none" {
		t.Fatalf("FlagString(0) = %q", got)
	}
}

func TestSeqArithmetic(t *testing.T) {
	a := Seq(0xfffffff0)
	b := a.Add(0x20) // wraps
	if !a.Lt(b) || !b.Gt(a) || !a.Leq(b) || !b.Geq(a) {
		t.Fatal("wrapped comparison broken")
	}
	if b.Diff(a) != 0x20 {
		t.Fatalf("Diff = %d", b.Diff(a))
	}
	if maxSeq(a, b) != b || minSeq(a, b) != a {
		t.Fatal("max/min broken across wrap")
	}
	if !a.Leq(a) || !a.Geq(a) || a.Lt(a) || a.Gt(a) {
		t.Fatal("reflexive comparisons broken")
	}
}

func TestSeqProperty(t *testing.T) {
	f := func(x uint32, d uint16) bool {
		a := Seq(x)
		b := a.Add(int(d))
		if d == 0 {
			return a == b
		}
		return a.Lt(b) && b.Diff(a) == int(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// pair is a two-host ATM testbed at the TCP level.
type pair struct {
	env    *sim.Env
	ka, kb *kern.Kernel
	sa, sb *Stack
	aa, ab *atm.Adapter
}

func newPair(t *testing.T, mode cost.ChecksumMode) *pair {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	p := &pair{env: env}
	p.ka = kern.New(env, model, "a")
	p.kb = kern.New(env, model, "b")
	ipa := ip.NewStack(p.ka, 1)
	ipb := ip.NewStack(p.kb, 2)
	p.aa, p.ab = atm.NewAdapter(p.ka), atm.NewAdapter(p.kb)
	atm.Connect(p.aa, p.ab)
	da := atm.NewDriver(p.ka, p.aa, ipa)
	db := atm.NewDriver(p.kb, p.ab, ipb)
	da.Mode, db.Mode = mode, mode
	p.sa = NewStack(p.ka, ipa)
	p.sb = NewStack(p.kb, ipb)
	p.sa.Mode, p.sb.Mode = mode, mode
	return p
}

// drainFrame accepts one connection and reads until EOF or error,
// appending everything read to *got (when non-nil) and reporting each
// read's length to each (when non-nil). done, if set, runs before the
// frame returns.
type drainFrame struct {
	ln   *Listener
	got  *[]byte
	conn **Conn
	each func(n int)
	done func()

	pc     int
	accept *AcceptOp
	so     *sock.Socket
	buf    []byte
	recv   *sock.RecvOp
}

func (f *drainFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.accept = f.ln.Accept(p)
			return
		case 1:
			f.so = f.accept.So
			if f.conn != nil {
				*f.conn = f.accept.C
			}
			f.buf = make([]byte, 4096)
			f.pc = 2
		case 2:
			f.pc = 3
			f.recv = f.so.Recv(p, f.buf)
			return
		case 3:
			if f.recv.Err != nil || f.recv.N == 0 {
				if f.done != nil {
					f.done()
				}
				p.Return()
				return
			}
			if f.got != nil {
				*f.got = append(*f.got, f.buf[:f.recv.N]...)
			}
			if f.each != nil {
				f.each(f.recv.N)
			}
			f.pc = 2
		}
	}
}

// echoFrame accepts one connection and echoes every read back to the
// sender until EOF or error.
type echoFrame struct {
	ln *Listener

	pc     int
	accept *AcceptOp
	so     *sock.Socket
	buf    []byte
	recv   *sock.RecvOp
	send   *sock.SendOp
}

func (f *echoFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.accept = f.ln.Accept(p)
			return
		case 1:
			f.so = f.accept.So
			f.accept.C.SetNoDelay(true)
			f.buf = make([]byte, 64)
			f.pc = 2
		case 2:
			f.pc = 3
			f.recv = f.so.Recv(p, f.buf)
			return
		case 3:
			if f.recv.Err != nil || f.recv.N == 0 {
				p.Return()
				return
			}
			f.pc = 4
			f.send = f.so.Send(p, f.buf[:f.recv.N])
			return
		case 4:
			if f.send.Err != nil {
				p.Return()
				return
			}
			f.pc = 2
		}
	}
}

// txFrame connects, optionally after a stagger delay, sends one payload,
// and closes the socket.
type txFrame struct {
	t       *testing.T
	s       *Stack
	payload []byte
	nodelay bool
	stagger sim.Time
	conn    **Conn

	pc   int
	op   *ConnectOp
	send *sock.SendOp
}

func (f *txFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			if f.stagger > 0 && !p.Sleep(f.stagger) {
				return
			}
		case 1:
			f.pc = 2
			f.op = f.s.Connect(p, 2, 80)
			return
		case 2:
			if f.op.Err != nil {
				f.t.Error(f.op.Err)
				p.Return()
				return
			}
			if f.conn != nil {
				*f.conn = f.op.C
			}
			f.op.C.SetNoDelay(f.nodelay)
			f.pc = 3
			f.send = f.op.So.Send(p, f.payload)
			return
		case 3:
			if f.send.Err != nil {
				f.t.Error(f.send.Err)
			}
			f.pc = 4
			f.op.So.Close(p)
			return
		case 4:
			p.Return()
			return
		}
	}
}

// rpcClientFrame connects and performs iters request/response exchanges
// of 64 bytes each against an echo server, then closes.
type rpcClientFrame struct {
	t     *testing.T
	s     *Stack
	iters int
	done  func()

	pc    int
	op    *ConnectOp
	so    *sock.Socket
	buf   []byte
	i     int
	total int
	recv  *sock.RecvOp
	send  *sock.SendOp
}

func (f *rpcClientFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.op = f.s.Connect(p, 2, 80)
			return
		case 1:
			if f.op.Err != nil {
				f.t.Error(f.op.Err)
				p.Return()
				return
			}
			f.so = f.op.So
			f.op.C.SetNoDelay(true)
			f.buf = make([]byte, 64)
			f.pc = 2
		case 2: // next exchange, or close once all are done
			if f.i == f.iters {
				f.pc = 5
				f.so.Close(p)
				return
			}
			f.i++
			f.total = 0
			f.pc = 3
			f.send = f.so.Send(p, f.buf)
			return
		case 3: // read the echo until the full 64 bytes are back
			if f.total >= 64 {
				f.pc = 2
				continue
			}
			f.pc = 4
			f.recv = f.so.Recv(p, f.buf[f.total:])
			return
		case 4:
			f.total += f.recv.N
			f.pc = 3
		case 5:
			if f.done != nil {
				f.done()
			}
			p.Return()
			return
		}
	}
}

func TestConnectEstablishes(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var clientConn, serverConn *Conn
	var accept *AcceptOp
	p.env.Spawn("server", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		func(pr *sim.Proc) { serverConn = accept.C },
	))
	var conn *ConnectOp
	p.env.Spawn("client", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				return
			}
			clientConn = conn.C
		},
	))
	p.env.Run()
	if clientConn == nil || serverConn == nil {
		t.Fatal("handshake incomplete")
	}
	if clientConn.State() != StateEstablished || serverConn.State() != StateEstablished {
		t.Fatalf("states: %v / %v", clientConn.State(), serverConn.State())
	}
	// MSS negotiated from the ATM MTU.
	wantMSS := atm.MTU - ip.HeaderLen - HeaderLen
	if clientConn.MSS() != wantMSS || serverConn.MSS() != wantMSS {
		t.Fatalf("MSS %d/%d, want %d", clientConn.MSS(), serverConn.MSS(), wantMSS)
	}
}

func TestListenPortConflict(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	if _, err := p.sb.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sb.Listen(80); err == nil {
		t.Fatal("duplicate listen accepted")
	}
}

// transfer sends payload a→b and returns what b received.
func transfer(t *testing.T, p *pair, payload []byte, nodelay bool) []byte {
	t.Helper()
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	p.env.Spawn("rx", &drainFrame{ln: ln, got: &got})
	p.env.Spawn("tx", &txFrame{t: t, s: p.sa, payload: payload, nodelay: nodelay})
	p.env.Run()
	return got
}

func TestTransferIntegritySizes(t *testing.T) {
	for _, n := range []int{0, 1, 100, 1024, 1025, 4096, 8000, 20000, 60000} {
		p := newPair(t, cost.ChecksumStandard)
		payload := make([]byte, n)
		p.env.RNG().Fill(payload)
		got := transfer(t, p, payload, true)
		if !bytes.Equal(got, payload) {
			t.Fatalf("n=%d: corrupted transfer (got %d bytes)", n, len(got))
		}
	}
}

func TestTransferIntegrityQuick(t *testing.T) {
	f := func(n uint16, seed uint64) bool {
		p := newPair(t, cost.ChecksumStandard)
		p.env.Seed(seed)
		payload := make([]byte, int(n)%20000)
		p.env.RNG().Fill(payload)
		got := transfer(t, p, payload, true)
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTransferAllChecksumModes(t *testing.T) {
	for _, mode := range []cost.ChecksumMode{
		cost.ChecksumStandard, cost.ChecksumIntegrated, cost.ChecksumNone,
	} {
		p := newPair(t, mode)
		payload := make([]byte, 10000)
		p.env.RNG().Fill(payload)
		got := transfer(t, p, payload, true)
		if !bytes.Equal(got, payload) {
			t.Fatalf("mode %v: corrupted transfer", mode)
		}
	}
}

func TestRecoveryFromCellLoss(t *testing.T) {
	for _, mode := range []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone} {
		p := newPair(t, mode)
		p.ab.SetImpairments(sim.GEParams{LossGood: 0.002}, 0, 0, 11)
		p.env.Seed(11)
		payload := make([]byte, 60000)
		p.env.RNG().Fill(payload)
		got := transfer(t, p, payload, true)
		if !bytes.Equal(got, payload) {
			t.Fatalf("mode %v: loss recovery failed (%d/%d bytes)", mode, len(got), len(payload))
		}
		if p.aa.CellsDropped+p.ab.CellsDropped == 0 {
			t.Fatalf("mode %v: no loss injected; test vacuous", mode)
		}
		if p.sa.Stats.Retransmits == 0 {
			t.Fatalf("mode %v: no retransmissions despite loss", mode)
		}
	}
}

func TestChecksumDetectsCorruptionAALOff(t *testing.T) {
	// End-to-end argument in action: corrupt a cell payload. The AAL
	// CRC-10 catches it first (frame discarded), TCP retransmits, and
	// the data still arrives intact.
	p := newPair(t, cost.ChecksumStandard)
	dropped := false
	payload := make([]byte, 9000)
	p.env.RNG().Fill(payload)
	// Corrupt by dropping one cell mid-stream.
	p.env.At(2*sim.Millisecond, "sabotage", func() {
		if !dropped {
			p.ab.DropNext()
			dropped = true
		}
	})
	got := transfer(t, p, payload, true)
	if !bytes.Equal(got, payload) {
		t.Fatal("recovery after mid-stream cell loss failed")
	}
}

func TestFastPathFailsForRPC(t *testing.T) {
	// Echo (bidirectional) traffic: header prediction's data case must
	// essentially never hit for single-segment exchanges, because every
	// data segment carries a piggybacked ACK of new data (§3).
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	const iters = 20
	p.env.Spawn("server", &echoFrame{ln: ln})
	p.env.Spawn("client", &rpcClientFrame{t: t, s: p.sa, iters: iters})
	p.env.Run()
	data := p.sa.Stats.FastPathData + p.sb.Stats.FastPathData
	if data > 2 {
		t.Errorf("fast path data hits = %d for RPC traffic, expected ~0", data)
	}
	if p.sa.Stats.SlowPath+p.sb.Stats.SlowPath < iters {
		t.Error("slow path barely used; predicates suspect")
	}
}

func TestFastPathSucceedsForBulk(t *testing.T) {
	// Unidirectional transfer: the receiver should take the data fast
	// path for most segments (§3's "two common cases of unidirectional
	// data transfer").
	p := newPair(t, cost.ChecksumStandard)
	payload := make([]byte, 200000)
	p.env.RNG().Fill(payload)
	got := transfer(t, p, payload, true)
	if !bytes.Equal(got, payload) {
		t.Fatal("bulk transfer corrupted")
	}
	if p.sb.Stats.FastPathData < 10 {
		t.Errorf("receiver fast-path data hits = %d, expected many", p.sb.Stats.FastPathData)
	}
}

func TestFastPathPureAck(t *testing.T) {
	// The pure-ACK fast path requires an unchanged advertised window, so
	// drive the clean case: sub-MSS stop-and-wait sends to a receiver
	// that drains its buffer completely before the delayed ACK fires.
	// Each such ACK arrives with the window back at the high-water mark —
	// unchanged — and must take the sender's fast path.
	p := newPair(t, cost.ChecksumStandard)
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 4
	p.env.Spawn("rx", &drainFrame{ln: ln})
	var conn *ConnectOp
	var send *sock.SendOp
	msg := make([]byte, 512)
	p.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			conn.C.SetNoDelay(true)
			pr.Call(sim.LoopN(2*rounds, func(pr *sim.Proc, i int) {
				if i%2 == 0 {
					send = conn.So.Send(pr, msg)
				} else {
					if send.Err != nil {
						t.Error(send.Err)
					}
					// Wait out the peer's delayed ACK before the next send.
					pr.Sleep(300 * sim.Millisecond)
				}
			}))
		},
		func(pr *sim.Proc) { conn.So.Close(pr) },
	))
	p.env.Run()
	if p.sa.Stats.FastPathAck < rounds-1 {
		t.Errorf("sender fast-path ACK hits = %d, expected >= %d",
			p.sa.Stats.FastPathAck, rounds-1)
	}
}

func TestPredictionDisabledNeverFastPaths(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	p.sa.PredictionEnabled = false
	p.sb.PredictionEnabled = false
	payload := make([]byte, 100000)
	got := transfer(t, p, payload, true)
	if !bytes.Equal(got, payload) {
		t.Fatal("transfer corrupted")
	}
	if p.sa.Stats.FastPathData+p.sa.Stats.FastPathAck+
		p.sb.Stats.FastPathData+p.sb.Stats.FastPathAck != 0 {
		t.Fatal("fast path used despite prediction disabled")
	}
	if p.sa.Stats.PCBCacheHits+p.sb.Stats.PCBCacheHits != 0 {
		t.Fatal("PCB cache used despite prediction disabled")
	}
}

func TestNagleCoalesces(t *testing.T) {
	// With Nagle on, many tiny writes while an ACK is outstanding must
	// produce far fewer segments than writes.
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	const writes = 50
	var received int
	p.env.Spawn("rx", &drainFrame{ln: ln, each: func(n int) { received += n }})
	var conn *ConnectOp
	p.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			pr.Call(sim.LoopN(writes, func(pr *sim.Proc, i int) {
				conn.So.Send(pr, []byte{byte(i)})
			}))
		},
		func(pr *sim.Proc) { conn.So.Close(pr) },
	))
	p.env.Run()
	if received != writes {
		t.Fatalf("received %d bytes, want %d", received, writes)
	}
	dataSegs := p.sa.Stats.SegsOut
	if dataSegs >= writes {
		t.Errorf("Nagle sent %d segments for %d 1-byte writes; expected coalescing", dataSegs, writes)
	}
}

func TestCloseHandshakeStates(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	var server, client *Conn
	var srvEOF bool
	var accept *AcceptOp
	var srecv *sock.RecvOp
	p.env.Spawn("server", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		func(pr *sim.Proc) {
			server = accept.C
			srecv = accept.So.Recv(pr, make([]byte, 16))
		},
		func(pr *sim.Proc) {
			if srecv.Err != nil || srecv.N != 0 {
				t.Errorf("expected EOF, got n=%d err=%v", srecv.N, srecv.Err)
				pr.Return()
				return
			}
			srvEOF = true
			accept.So.Close(pr) // passive close
		},
	))
	var conn *ConnectOp
	p.env.Spawn("client", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			client = conn.C
			conn.So.Close(pr) // active close
		},
	))
	p.env.Run()
	if !srvEOF {
		t.Fatal("server never saw EOF")
	}
	if server.State() != StateClosed {
		t.Fatalf("server state %v, want CLOSED (after LAST_ACK)", server.State())
	}
	// The active closer passes through TIME_WAIT and is released by the
	// 2MSL timer, which has fired by the time Run drains the queue.
	if client.State() != StateClosed {
		t.Fatalf("client state %v, want CLOSED after TIME_WAIT", client.State())
	}
	// Event identity (see workload.TestEventIdentity): the events fired,
	// the drained clock and both stacks' counters, captured before the
	// 2MSL release became a timer on the connection. The count was
	// re-captured (78 → 59) when a sleep that has to wait began serving
	// the events ahead of its wake instead of parking behind them: 19
	// wakes stopped being events; the clock and the digest did not move.
	stats := fmt.Sprintf("%+v %+v", p.sa.Stats, p.sb.Stats)
	sum := sha256.Sum256([]byte(stats))
	if got, want := fmt.Sprintf("%d %d %x", p.env.Fired(), p.env.Now(), sum[:8]), "59 3000586580 dbe4468e8dd74928"; got != want {
		t.Errorf("fired, clock, stats digest = %s, want %s (%s)", got, want, stats)
	}
}

func TestRTTEstimatorConverges(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	payload := make([]byte, 50000)
	transfer(t, p, payload, true)
	// Find the client conn's SRTT via the stack: use a fresh echo-style
	// check instead; simplest: srtt must be positive and on the order of
	// the simulated RTT (hundreds of µs to a few ms).
	// The transfer helper closes the conn, so measure via a new pair.
	p2 := newPair(t, cost.ChecksumStandard)
	ln, _ := p2.sb.Listen(80)
	p2.env.Spawn("rx", &drainFrame{ln: ln})
	var srtt sim.Time
	var conn *ConnectOp
	p2.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = p2.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			conn.C.SetNoDelay(true)
			pr.Call(sim.LoopN(40, func(pr *sim.Proc, i int) {
				if i%2 == 0 {
					conn.So.Send(pr, make([]byte, 1000))
				} else {
					pr.Sleep(5 * sim.Millisecond)
				}
			}))
		},
		func(pr *sim.Proc) {
			srtt = conn.C.SRTT()
			conn.So.Close(pr)
		},
	))
	p2.env.Run()
	if srtt <= 0 || srtt > 50*sim.Millisecond {
		t.Fatalf("SRTT = %v, implausible", srtt)
	}
}

func TestStateString(t *testing.T) {
	if StateEstablished.String() != "ESTABLISHED" {
		t.Fatal("state name broken")
	}
	if State(99).String() == "" {
		t.Fatal("unknown state unnamed")
	}
}

func TestAltChecksumNegotiation(t *testing.T) {
	// Both ends configured for elimination: negotiated off.
	p := newPair(t, cost.ChecksumNone)
	payload := make([]byte, 5000)
	p.env.RNG().Fill(payload)
	got := transfer(t, p, payload, true)
	if !bytes.Equal(got, payload) {
		t.Fatal("negotiated-off transfer corrupted")
	}
	if p.sa.Stats.ChecksumErrors+p.sb.Stats.ChecksumErrors != 0 {
		t.Fatal("checksum errors on a negotiated-off connection")
	}
}

func TestAltChecksumMismatchInteroperates(t *testing.T) {
	// Client wants elimination, server does not: the option must not
	// take effect, segments stay checksummed, and data flows — the
	// failure mode this guards against is a silent blackhole where one
	// end sends zero checksums the other drops.
	p := newPair(t, cost.ChecksumStandard)
	p.sa.Mode = cost.ChecksumNone // client offers; server stays standard
	payload := make([]byte, 5000)
	p.env.RNG().Fill(payload)
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	var serverConn, clientConn *Conn
	p.env.Spawn("rx", &drainFrame{ln: ln, got: &got, conn: &serverConn})
	p.env.Spawn("tx", &txFrame{t: t, s: p.sa, payload: payload, nodelay: true, conn: &clientConn})
	p.env.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("mismatched-mode transfer corrupted or blackholed")
	}
	if clientConn.ChecksumEliminated() || serverConn.ChecksumEliminated() {
		t.Fatal("one-sided offer negotiated the checksum off")
	}
	if p.sa.Stats.ChecksumErrors+p.sb.Stats.ChecksumErrors != 0 {
		t.Fatal("checksum errors under mismatch: zero-checksum segments leaked")
	}
}

func TestAltChecksumNegotiatedFlag(t *testing.T) {
	p := newPair(t, cost.ChecksumNone)
	ln, _ := p.sb.Listen(80)
	var sc, cc *Conn
	var accept *AcceptOp
	p.env.Spawn("s", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		func(pr *sim.Proc) { sc = accept.C },
	))
	var conn *ConnectOp
	p.env.Spawn("c", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				return
			}
			cc = conn.C
		},
	))
	p.env.Run()
	if cc == nil || sc == nil || !cc.ChecksumEliminated() || !sc.ChecksumEliminated() {
		t.Fatal("both-ends offer did not negotiate the checksum off")
	}
}

func TestDeterministicTransfers(t *testing.T) {
	run := func() int64 {
		p := newPair(t, cost.ChecksumStandard)
		p.env.Seed(5)
		payload := make([]byte, 30000)
		p.env.RNG().Fill(payload)
		transfer(t, p, payload, true)
		return int64(p.env.Now())
	}
	if run() != run() {
		t.Fatal("same seed produced different completion times")
	}
}

func TestMultipleConnectionsDemux(t *testing.T) {
	// Three concurrent connections to one listener: the PCB table must
	// demultiplex them and each stream must arrive intact.
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	const conns = 3
	payloads := make([][]byte, conns)
	results := make([][]byte, conns)
	for i := range payloads {
		payloads[i] = make([]byte, 3000+i*1000)
		p.env.RNG().Fill(payloads[i])
	}
	for i := 0; i < conns; i++ {
		got := new([]byte)
		p.env.Spawn("srv", &drainFrame{ln: ln, got: got, done: func() {
			// Identify the stream by its first byte tag.
			results[(*got)[0]] = *got
		}})
	}
	for i := 0; i < conns; i++ {
		payloads[i][0] = byte(i)
		p.env.Spawn("cli", &txFrame{
			t: t, s: p.sa, payload: payloads[i], nodelay: true,
			stagger: sim.Time(i) * 3 * sim.Millisecond, // stagger
		})
	}
	p.env.Run()
	for i := range payloads {
		if !bytes.Equal(results[i], payloads[i]) {
			t.Fatalf("stream %d corrupted or crossed (%d vs %d bytes)",
				i, len(results[i]), len(payloads[i]))
		}
	}
	if p.sb.Table.Len() < 1 {
		t.Fatal("PCB table empty")
	}
}

func TestPCBCacheThrashAcrossConnections(t *testing.T) {
	// Interleaved traffic on two connections defeats the single-entry
	// cache; hit rate must be well below a single-connection run.
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	for i := 0; i < 2; i++ {
		p.env.Spawn("srv", &echoFrame{ln: ln})
	}
	done := 0
	for i := 0; i < 2; i++ {
		p.env.Spawn("cli", &rpcClientFrame{t: t, s: p.sa, iters: 15, done: func() { done++ }})
	}
	p.env.Run()
	if done != 2 {
		t.Fatal("clients did not finish")
	}
	lookups := p.sb.Stats.PCBCacheHits + p.sb.Stats.PCBListSearched
	if lookups == 0 {
		t.Fatal("no lookups recorded")
	}
	// With two interleaved connections some lookups must miss the cache.
	if p.sb.Stats.PCBListSearched == 0 {
		t.Error("cache never missed despite interleaved connections")
	}
}

func TestDelayedAckTimerFires(t *testing.T) {
	// A receiver whose application never responds must still ACK within
	// the 200 ms fast-timer bound, or the sender would retransmit.
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	var accept *AcceptOp
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		// Read but never reply: only the delayed-ACK timer can ACK.
		func(pr *sim.Proc) { accept.So.Recv(pr, make([]byte, 64)) },
	))
	var acked bool
	var conn *ConnectOp
	p.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			conn.C.SetNoDelay(true)
			conn.So.Send(pr, make([]byte, 64))
		},
		func(pr *sim.Proc) { pr.Sleep(400 * sim.Millisecond) },
		func(pr *sim.Proc) { acked = conn.C.sndUna == conn.C.sndMax },
	))
	p.env.RunUntil(2 * sim.Second)
	if !acked {
		t.Fatal("data not acknowledged within the delayed-ACK bound")
	}
	if p.sb.Stats.DelayedAcks == 0 {
		t.Fatal("delayed-ACK counter not incremented")
	}
	if p.sa.Stats.Retransmits != 0 {
		t.Fatal("sender retransmitted despite timely delayed ACK")
	}
}

func TestRSTDropsConnection(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	ln, _ := p.sb.Listen(80)
	var srvConn *Conn
	var accept *AcceptOp
	p.env.Spawn("rx", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		func(pr *sim.Proc) { srvConn = accept.C },
	))
	var clientErr error
	var conn *ConnectOp
	var recv *sock.RecvOp
	p.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			pr.Sleep(5 * sim.Millisecond)
		},
		func(pr *sim.Proc) {
			// Forge a RST from the server side by injecting it directly
			// into the client's input path.
			c := conn.C
			c.input(pr, Header{Flags: FlagRST, Seq: c.rcvNxt}, nil)
		},
		func(pr *sim.Proc) { recv = conn.So.Recv(pr, make([]byte, 8)) },
		func(pr *sim.Proc) { clientErr = recv.Err },
	))
	p.env.Run()
	if srvConn == nil {
		t.Fatal("handshake failed")
	}
	if clientErr != ErrReset {
		t.Fatalf("Recv error = %v, want ErrReset", clientErr)
	}
}

func TestSegmentationRespectsMSS(t *testing.T) {
	// Over Ethernet (MSS 1460) a 10000-byte transfer must produce
	// segments no larger than the MSS, and at least ceil(10000/1460).
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka := kern.New(env, model, "a")
	kb := kern.New(env, model, "b")
	ipa := ip.NewStack(ka, 1)
	ipb := ip.NewStack(kb, 2)
	var ea, eb [6]byte
	ea[5], eb[5] = 1, 2
	aa := ether.NewAdapter(ka, ea)
	ab := ether.NewAdapter(kb, eb)
	ether.Connect(aa, ab)
	ether.NewDriver(ka, aa, ipa)
	ether.NewDriver(kb, ab, ipb)
	sa := NewStack(ka, ipa)
	sb := NewStack(kb, ipb)

	ln, _ := sb.Listen(80)
	total := 0
	env.Spawn("rx", &drainFrame{ln: ln, each: func(n int) { total += n }})
	var conn *ConnectOp
	env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { conn = sa.Connect(pr, 2, 80) },
		func(pr *sim.Proc) {
			if conn.Err != nil {
				t.Error(conn.Err)
				pr.Return()
				return
			}
			if conn.C.MSS() != ether.MTU-ip.HeaderLen-HeaderLen {
				t.Errorf("Ethernet MSS = %d", conn.C.MSS())
			}
			conn.C.SetNoDelay(true)
			conn.So.Send(pr, make([]byte, 10000))
		},
	))
	env.Run()
	if total != 10000 {
		t.Fatalf("received %d of 10000", total)
	}
	if sa.Stats.SegsOut < 7 { // ceil(10000/1460) = 7 data segments minimum
		t.Fatalf("only %d segments for 10000 bytes over Ethernet", sa.Stats.SegsOut)
	}
}

// TestRexmtGiveUpAfterPeerVanishes pins BSD's TCP_MAXRXTSHIFT
// behaviour (at this simulation's raised threshold): when the peer's
// PCB disappears without an RST — here torn down silently, the way an
// expired TIME_WAIT entry vanishes — the sender's retransmissions go
// unanswered, and after maxRexmtShift backed-off timeouts the
// connection drops with ErrTimeout instead of probing forever. The
// event queue must fully drain: before the give-up existed this
// scenario kept the simulation alive eternally at maxRTO intervals.
func TestRexmtGiveUpAfterPeerVanishes(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var serverConn *Conn
	var accept *AcceptOp
	p.env.Spawn("server", sim.Steps(
		func(pr *sim.Proc) { accept = ln.Accept(pr) },
		func(pr *sim.Proc) { serverConn = accept.C },
	))
	var conn *ConnectOp
	p.env.Spawn("client", sim.Steps(
		func(pr *sim.Proc) { conn = p.sa.Connect(pr, 2, 80) },
	))
	p.env.Run()
	if conn.Err != nil || serverConn == nil {
		t.Fatalf("handshake failed: %v", conn.Err)
	}
	clientConn := conn.C

	// The peer vanishes silently: no RST, no FIN, just no PCB.
	serverConn.drop(nil)

	var send *sock.SendOp
	p.env.Spawn("tx", sim.Steps(
		func(pr *sim.Proc) { send = clientConn.Socket().Send(pr, []byte("hello?")) },
	))
	p.env.Run()

	if clientConn.State() != StateClosed {
		t.Errorf("client state %v after give-up, want CLOSED", clientConn.State())
	}
	if clientConn.Socket().Err != ErrTimeout {
		t.Errorf("socket error %v, want ErrTimeout", clientConn.Socket().Err)
	}
	_ = send
	if _, ok := p.env.NextEventAt(); ok {
		t.Error("events still pending after the connection gave up")
	}
}

// TestRTOBackoffSaturates checks the backoff shift saturates at maxRTO
// instead of overflowing: at maxRexmtShift 32 a raw base<<shift wraps
// int64 negative (the pre-first-sample base of 3s overflows at shift
// 22), and the minRTO clamp would then fire the slowest, most
// backed-off retries 64x faster than modeled.
func TestRTOBackoffSaturates(t *testing.T) {
	c := &Conn{}
	for shift := uint(0); shift <= maxRexmtShift; shift++ {
		c.rexmtShift = shift
		if d := c.rto(); d < minRTO || d > maxRTO {
			t.Fatalf("shift %d: rto %v outside [%v, %v]", shift, d, minRTO, maxRTO)
		}
	}
	c.rexmtShift = maxRexmtShift
	if d := c.rto(); d != maxRTO {
		t.Fatalf("rto at max shift = %v, want %v", d, maxRTO)
	}
}

// TestSpareOutputFrameDoesNotPinConn runs a transfer long enough for
// tcp_output to be entered while it is already running (the user's send
// and the ACK-driven input side overlap), which leaves the loop holding a
// spare output frame. Parked, the spare must be all zeros: it names no
// connection and no mbuf, so a connection that has closed is not kept
// alive by a frame some other connection will borrow next.
func TestSpareOutputFrameDoesNotPinConn(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	payload := make([]byte, 60000)
	p.env.RNG().Fill(payload)
	if got := transfer(t, p, payload, true); !bytes.Equal(got, payload) {
		t.Fatal("corrupted transfer")
	}
	spare := sim.Local[spareOutput](p.env).f
	if spare == nil {
		t.Fatal("no output call overlapped another: the transfer no longer exercises the spare")
	}
	if !reflect.DeepEqual(*spare, outputOp{}) {
		t.Fatalf("the parked spare still holds state: %+v", *spare)
	}
}

// cycleServer accepts connections for good: each one gets a 200-byte
// request echoed back, then is closed once the client has closed.
type cycleServer struct {
	ln  *Listener
	buf []byte

	pc     int
	accept *AcceptOp
	so     *sock.Socket
	total  int
	recv   *sock.RecvOp
	err    error
}

func (f *cycleServer) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.accept = f.ln.Accept(p)
			return
		case 1: // read the request
			f.so, f.total = f.accept.So, 0
			f.pc = 2
		case 2:
			if f.total == len(f.buf) {
				f.pc = 4
				f.so.Send(p, f.buf)
				return
			}
			f.pc = 3
			f.recv = f.so.Recv(p, f.buf[f.total:])
			return
		case 3:
			if f.recv.Err != nil || f.recv.N == 0 {
				f.err = fmt.Errorf("server read %d of %d bytes: %v", f.total, len(f.buf), f.recv.Err)
				p.Return()
				return
			}
			f.total += f.recv.N
			f.pc = 2
		case 4: // echoed; wait for the client's FIN, then close
			f.pc = 5
			f.recv = f.so.Recv(p, f.buf)
			return
		case 5:
			if f.recv.N != 0 {
				f.pc = 4
				continue
			}
			f.pc = 0
			f.so.Close(p)
			return
		}
	}
}

// cycleClient makes one connection each time start wakes it: connect,
// write a 200-byte request, read the echo, close.
type cycleClient struct {
	s      *Stack
	start  *sim.WaitQueue
	msg    []byte
	buf    []byte
	cycles int

	pc    int
	op    *ConnectOp
	so    *sock.Socket
	total int
	recv  *sock.RecvOp
	err   error
}

func (f *cycleClient) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			f.pc = 1
			f.start.Wait(p)
			return
		case 1:
			f.pc = 2
			f.op = f.s.Connect(p, 2, 80)
			return
		case 2:
			if f.op.Err != nil {
				f.err = f.op.Err
				p.Return()
				return
			}
			f.so, f.total = f.op.So, 0
			f.pc = 3
			f.so.Send(p, f.msg)
			return
		case 3:
			if f.total == len(f.buf) {
				f.cycles++
				f.pc = 0
				f.so.Close(p)
				return
			}
			f.pc = 4
			f.recv = f.so.Recv(p, f.buf[f.total:])
			return
		case 4:
			if f.recv.Err != nil || f.recv.N == 0 {
				f.err = fmt.Errorf("client read %d of %d bytes: %v", f.total, len(f.buf), f.recv.Err)
				p.Return()
				return
			}
			f.total += f.recv.N
			f.pc = 3
		}
	}
}

// TestConnIsOneAllocation holds a connection to one allocation an end:
// the Conn, which carries its socket, PCB, timers and operation frames
// by value. Each counted cycle is a whole connection — connect, a
// 200-byte exchange, close, and the 2MSL drain out of TIME_WAIT — between
// two processes that live across cycles, after a warm-up connection has
// grown the loop's free lists and queues to their high-water marks.
// Before, an end was about eleven allocations: the Conn and the two
// method values bound into its timers, the socket and its two first
// frames, the two protocol frames, the PCB, the connect or accept op,
// and TIME_WAIT's two closures.
func TestConnIsOneAllocation(t *testing.T) {
	p := newPair(t, cost.ChecksumStandard)
	ln, err := p.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	var start sim.WaitQueue
	srv := &cycleServer{ln: ln, buf: make([]byte, 200)}
	cli := &cycleClient{s: p.sa, start: &start, msg: make([]byte, 200), buf: make([]byte, 200)}
	p.env.Spawn("server", srv)
	p.env.Spawn("client", cli)
	p.env.Run()
	cycle := func() {
		start.Wake()
		p.env.Run()
	}
	cycle() // the warm-up connection
	const runs = 20
	allocs := testing.AllocsPerRun(runs, cycle)
	if srv.err != nil || cli.err != nil {
		t.Fatalf("server: %v; client: %v", srv.err, cli.err)
	}
	if cli.cycles != runs+2 || p.sa.Table.Len() != 0 || p.sb.Table.Len() != 1 {
		t.Fatalf("%d connections made, want %d; %d and %d PCBs left, want 0 and the listener's",
			cli.cycles, runs+2, p.sa.Table.Len(), p.sb.Table.Len())
	}
	if allocs != 2 {
		t.Errorf("a connection costs %v allocations, want 2: one Conn an end", allocs)
	}
}

// TestSynAckRetransmittedWhileItsAckIsInFlight forces the server's
// retransmission timer at every microsecond of a handshake. Where it
// fires after the client has sent its ACK of the SYN-ACK but before the
// server has taken it in, that ACK is processed while the retransmitted
// SYN-ACK is still being built or is inside ip_output. tcp_output must
// have advanced snd_nxt and snd_max past the SYN when it decided to send:
// advanced later, from an snd_nxt the ACK has already moved past the SYN,
// it counts the SYN a second time, and the idle connection retransmits a
// sequence byte that does not exist until it gives up. Whatever the
// instant, the handshake must end with every send variable at iss+1 and
// an idle connection that sends nothing more.
func TestSynAckRetransmittedWhileItsAckIsInFlight(t *testing.T) {
	run := func(at sim.Time) (p *pair, client, server *Conn, raced bool) {
		p = newPair(t, cost.ChecksumStandard)
		ln, err := p.sb.Listen(80)
		if err != nil {
			t.Fatal(err)
		}
		var accept *AcceptOp
		p.env.Spawn("server", sim.Steps(
			func(pr *sim.Proc) { accept = ln.Accept(pr) },
			func(pr *sim.Proc) { server = accept.C },
		))
		var op *ConnectOp
		p.env.Spawn("client", sim.Steps(
			func(pr *sim.Proc) { op = p.sa.Connect(pr, 2, 80) },
			func(pr *sim.Proc) { client = op.C },
		))
		p.env.At(at, "force-rexmt", func() {
			for _, e := range p.sb.Table.Entries() {
				if c, ok := e.Owner.(*Conn); ok && c.state == StateSynRcvd {
					raced = op.c.state == StateEstablished
					c.TimerFired(&c.rexmt)
				}
			}
		})
		p.env.RunUntil(at + 600*sim.Second)
		return p, client, server, raced
	}

	races := 0
	for at := sim.Time(0); at < 2*sim.Millisecond; at += sim.Microsecond {
		p, client, server, raced := run(at)
		if client == nil || server == nil {
			t.Fatalf("at %v: handshake incomplete", at)
		}
		if raced {
			races++
		}
		for name, c := range map[string]*Conn{"client": client, "server": server} {
			una, nxt, top := c.sndUna.Diff(c.iss), c.sndNxt.Diff(c.iss), c.sndMax.Diff(c.iss)
			if una > nxt || nxt > top {
				t.Errorf("at %v, %s: snd_una %d, snd_nxt %d, snd_max %d past iss: out of order", at, name, una, nxt, top)
			}
			if una != 1 || nxt != 1 || top != 1 {
				t.Errorf("at %v, %s: snd_una %d, snd_nxt %d, snd_max %d past iss, want 1 each", at, name, una, nxt, top)
			}
		}
		if n := p.sb.Stats.Retransmits; n > 1 || p.sa.Stats.Retransmits != 0 {
			t.Errorf("at %v: the idle connection retransmitted %d times after the forced one", at,
				n-1+p.sa.Stats.Retransmits)
		}
		if t.Failed() {
			return
		}
	}
	if races == 0 {
		t.Fatal("no instant found the client's ACK in flight: the scan misses the race")
	}
	t.Logf("%d instants with the ACK in flight", races)
}
