package sock

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// newSocket returns a stand-alone socket; in the stack every socket is
// embedded in its connection.
func newSocket(k *kern.Kernel) *Socket {
	so := new(Socket)
	so.Init(k)
	return so
}

// loopProto is a loopback protocol: Send moves the send buffer's contents
// straight into the receive buffer of a peer socket.
type loopProto struct {
	self, peer *Socket
	sends      int
	rcvds      int
	closes     int
}

func (lp *loopProto) Send(p *sim.Proc) {
	lp.sends++
	n := lp.self.Snd.Len()
	if n == 0 {
		return
	}
	chain := lp.self.Snd.Chain()
	dup, _ := lp.self.K.Pool.Copy(chain, 0, n)
	lp.self.Snd.Drop(n)
	lp.peer.Rcv.Append(dup)
	lp.peer.RcvWakeup()
	lp.self.SndWakeup()
}

func (lp *loopProto) Rcvd(p *sim.Proc)  { lp.rcvds++ }
func (lp *loopProto) Close(p *sim.Proc) { lp.closes++; lp.peer.SetEof() }

func newLoopPair(env *sim.Env) (*Socket, *Socket, *loopProto) {
	k := kern.New(env, cost.DECstation5000(), "h")
	a, b := newSocket(k), newSocket(k)
	pa := &loopProto{self: a, peer: b}
	pb := &loopProto{self: b, peer: a}
	a.Proto, b.Proto = pa, pb
	a.Connected, b.Connected = true, true
	return a, b, pa
}

// recvLoopFrame reads from so repeatedly until total reaches want,
// handing each read's length to the each callback.
type recvLoopFrame struct {
	t    *testing.T
	so   *Socket
	want int
	buf  []byte
	each func(n int)

	pc, total int
	recv      *RecvOp
}

func (f *recvLoopFrame) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			if f.total >= f.want {
				p.Return()
				return
			}
			f.pc = 1
			f.recv = f.so.Recv(p, f.buf)
			return
		case 1:
			if f.recv.Err != nil {
				f.t.Error(f.recv.Err)
				p.Return()
				return
			}
			f.each(f.recv.N)
			f.total += f.recv.N
			f.recv = nil
			f.pc = 0
		}
	}
}

func TestSendRecvRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	a, b, _ := newLoopPair(env)
	payload := make([]byte, 3000)
	env.RNG().Fill(payload)
	var got []byte
	buf := make([]byte, 1024)
	env.Spawn("rx", &recvLoopFrame{t: t, so: b, want: len(payload), buf: buf,
		each: func(n int) { got = append(got, buf[:n]...) }})
	var send *SendOp
	env.Spawn("tx", sim.Steps(
		func(p *sim.Proc) { send = a.Send(p, payload) },
		func(p *sim.Proc) {
			if send.Err != nil || send.N != len(payload) {
				t.Errorf("Send = %d, %v", send.N, send.Err)
			}
		},
	))
	env.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("data corrupted through socket layer")
	}
}

func TestSendUsesClustersAboveThreshold(t *testing.T) {
	env := sim.NewEnv()
	a, _, _ := newLoopPair(env)
	k := a.K
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		a.Send(p, make([]byte, 2000))
	}))
	env.Run()
	if k.Pool.Stats.ClusterAllocs == 0 {
		t.Fatal("2000-byte write did not use clusters")
	}
	// Small writes use normal mbufs only.
	env2 := sim.NewEnv()
	k2 := kern.New(env2, cost.DECstation5000(), "h2")
	a2 := newSocket(k2)
	a2.Proto = &funcProto{}
	a2.Connected = true
	env2.Spawn("tx", sim.Steps(func(p *sim.Proc) {
		a2.Send(p, make([]byte, 500))
	}))
	env2.Run()
	if k2.Pool.Stats.ClusterAllocs != 0 {
		t.Fatal("500-byte write used clusters")
	}
	// ceil(500/108) = 5 normal mbufs, the paper's "one to eight mbufs
	// are used for transfers of less than 1KB".
	if k2.Pool.Stats.MbufAllocs != 5 {
		t.Fatalf("500-byte write used %d mbufs, want 5", k2.Pool.Stats.MbufAllocs)
	}
}

func TestSendBlocksOnFullBuffer(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	so := newSocket(k)
	drained := false
	// A protocol that never drains until poked.
	so.Proto = &funcProto{
		send: func(p *sim.Proc) {},
	}
	so.Connected = true
	sent := 0
	var send *SendOp
	env.Spawn("tx", sim.Steps(
		func(p *sim.Proc) { send = so.Send(p, make([]byte, DefaultHiwat+100)) },
		func(p *sim.Proc) { sent = send.N },
	))
	env.Spawn("drainer", sim.Steps(
		func(p *sim.Proc) { p.Sleep(10 * sim.Millisecond) },
		func(p *sim.Proc) {
			// Free exactly enough space for the tail of the write.
			so.Snd.Drop(200)
			drained = true
			so.SndWakeup()
		},
	))
	env.Run()
	if !drained {
		t.Fatal("drainer never ran")
	}
	if sent != DefaultHiwat+100 {
		t.Fatalf("Send returned %d, want %d", sent, DefaultHiwat+100)
	}
}

type funcProto struct {
	send  func(p *sim.Proc)
	rcvd  func(p *sim.Proc)
	close func(p *sim.Proc)
}

func (f *funcProto) Send(p *sim.Proc) {
	if f.send != nil {
		f.send(p)
	}
}
func (f *funcProto) Rcvd(p *sim.Proc) {
	if f.rcvd != nil {
		f.rcvd(p)
	}
}
func (f *funcProto) Close(p *sim.Proc) {
	if f.close != nil {
		f.close(p)
	}
}

func TestRecvEOF(t *testing.T) {
	env := sim.NewEnv()
	a, b, _ := newLoopPair(env)
	var n1, n2 int
	var r1, r2 *RecvOp
	buf := make([]byte, 10)
	env.Spawn("rx", sim.Steps(
		func(p *sim.Proc) { r1 = b.Recv(p, buf) },
		func(p *sim.Proc) { n1 = r1.N; r2 = b.Recv(p, buf) },
		func(p *sim.Proc) { n2 = r2.N },
	))
	env.Spawn("tx", sim.Steps(
		func(p *sim.Proc) { a.Send(p, []byte("hi")) },
		func(p *sim.Proc) { p.Sleep(sim.Millisecond) },
		func(p *sim.Proc) { a.Close(p) },
	))
	env.Run()
	if n1 != 2 || n2 != 0 {
		t.Fatalf("Recv = %d then %d, want 2 then 0 (EOF)", n1, n2)
	}
}

func TestRecvError(t *testing.T) {
	env := sim.NewEnv()
	_, b, _ := newLoopPair(env)
	boom := errors.New("boom")
	var err error
	var recv *RecvOp
	env.Spawn("rx", sim.Steps(
		func(p *sim.Proc) { recv = b.Recv(p, make([]byte, 4)) },
		func(p *sim.Proc) { err = recv.Err },
	))
	env.Spawn("killer", sim.Steps(
		func(p *sim.Proc) { p.Sleep(sim.Millisecond) },
		func(p *sim.Proc) { b.SetError(boom) },
	))
	env.Run()
	if err != boom {
		t.Fatalf("Recv err = %v, want boom", err)
	}
}

func TestSendErrorInterrupts(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	so := newSocket(k)
	so.Proto = &funcProto{}
	so.Connected = true
	boom := errors.New("reset")
	var err error
	var send *SendOp
	env.Spawn("tx", sim.Steps(
		// Fill the buffer, then block; the error must unblock us.
		func(p *sim.Proc) { send = so.Send(p, make([]byte, DefaultHiwat*2)) },
		func(p *sim.Proc) { err = send.Err },
	))
	env.Spawn("killer", sim.Steps(
		func(p *sim.Proc) { p.Sleep(sim.Millisecond) },
		func(p *sim.Proc) { so.SetError(boom) },
	))
	env.Run()
	if err != boom {
		t.Fatalf("Send err = %v, want reset", err)
	}
}

func TestIntegratedModeStashesChecksums(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	so := newSocket(k)
	so.Mode = cost.ChecksumIntegrated
	var captured *mbuf.Mbuf
	so.Proto = &funcProto{send: func(p *sim.Proc) {
		captured = so.Snd.Chain()
	}}
	so.Connected = true
	payload := make([]byte, 2000)
	env.RNG().Fill(payload)
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { so.Send(p, payload) }))
	env.Run()
	if captured == nil {
		t.Fatal("no chain captured")
	}
	for m := captured; m != nil; m = m.Next() {
		if !m.CsumValid {
			t.Fatal("integrated copyin did not stash a partial checksum")
		}
	}
}

func TestStandardModeNoStash(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	so := newSocket(k)
	var captured *mbuf.Mbuf
	so.Proto = &funcProto{send: func(p *sim.Proc) { captured = so.Snd.Chain() }}
	so.Connected = true
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { so.Send(p, make([]byte, 100)) }))
	env.Run()
	if captured.CsumValid {
		t.Fatal("standard mode stashed a checksum")
	}
}

func TestBufferDropPanicsBeyondContent(t *testing.T) {
	env := sim.NewEnv()
	k := kern.New(env, cost.DECstation5000(), "h")
	var b Buffer
	b.initBuffer(k, "t")
	defer func() {
		if recover() == nil {
			t.Fatal("over-drop did not panic")
		}
	}()
	b.Drop(1)
}

func TestUserLayerCharged(t *testing.T) {
	env := sim.NewEnv()
	a, b, _ := newLoopPair(env)
	a.K.Trace.Enable()
	env.Spawn("rx", sim.Steps(func(p *sim.Proc) {
		b.Recv(p, make([]byte, 64))
	}))
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { a.Send(p, make([]byte, 64)) }))
	env.Run()
	var tx, rx sim.Time
	for _, s := range a.K.Trace.Spans() {
		switch s.Layer {
		case trace.LayerUserTx:
			tx += s.Duration()
		case trace.LayerUserRx:
			rx += s.Duration()
		}
	}
	if tx == 0 || rx == 0 {
		t.Fatalf("User layers uncharged: tx=%v rx=%v", tx, rx)
	}
}

func TestRecvPartialReads(t *testing.T) {
	env := sim.NewEnv()
	a, b, _ := newLoopPair(env)
	payload := []byte("0123456789")
	var reads []string
	buf := make([]byte, 3)
	env.Spawn("rx", &recvLoopFrame{t: t, so: b, want: len(payload), buf: buf,
		each: func(n int) { reads = append(reads, string(buf[:n])) }})
	env.Spawn("tx", sim.Steps(func(p *sim.Proc) { a.Send(p, payload) }))
	env.Run()
	joined := ""
	for _, r := range reads {
		joined += r
	}
	if joined != string(payload) {
		t.Fatalf("partial reads reassembled %q", joined)
	}
}
