package rudp

import (
	"testing"

	"repro/internal/atm"
	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/udp"
)

// echoServer accepts one stream and writes back every message on it.
type echoServer struct {
	e   *Endpoint
	buf []byte

	pc     int
	accept *AcceptOp
	recv   *RecvOp
	send   *SendOp
	err    error
}

func (f *echoServer) Step(p *sim.Proc) {
	switch f.pc {
	case 0:
		f.pc = 1
		f.accept = f.e.Accept(p)
	case 1:
		f.pc = 2
		f.recv = f.accept.C.Recv(p, f.buf)
	case 2:
		if f.recv.Err != nil || f.recv.N == 0 {
			f.err = f.recv.Err
			p.Return()
			return
		}
		f.pc = 3
		f.send = f.accept.C.Send(p, f.buf[:f.recv.N])
	case 3:
		if f.err = f.send.Err; f.err != nil {
			p.Return()
			return
		}
		f.pc = 2
		f.recv = f.accept.C.Recv(p, f.buf)
	}
}

// echoClient makes one exchange each time start wakes it.
type echoClient struct {
	c        *Conn
	start    *sim.WaitQueue
	msg, buf []byte

	pc        int
	send      *SendOp
	recv      *RecvOp
	exchanges int
	err       error
}

func (f *echoClient) Step(p *sim.Proc) {
	switch f.pc {
	case 0:
		f.pc = 1
		f.send = f.c.Send(p, f.msg)
	case 1:
		if f.err = f.send.Err; f.err != nil {
			p.Return()
			return
		}
		f.pc = 2
		f.recv = f.c.Recv(p, f.buf)
	case 2:
		if f.recv.Err != nil || f.recv.N != len(f.msg) {
			f.err = f.recv.Err
			p.Return()
			return
		}
		f.exchanges++
		f.pc = 0
		f.start.Wait(p)
	}
}

// newStream builds two hosts on the paper's ATM fiber, a listening
// endpoint on port 7 of host 2 and a stream dialed to it from host 1.
func newStream(t *testing.T) (*sim.Env, *Endpoint, *Conn) {
	t.Helper()
	env := sim.NewEnv()
	model := cost.DECstation5000()
	ka, kb := kern.New(env, model, "a"), kern.New(env, model, "b")
	ipa, ipb := ip.NewStack(ka, 1), ip.NewStack(kb, 2)
	aa, ab := atm.NewAdapter(ka), atm.NewAdapter(kb)
	atm.Connect(aa, ab)
	atm.NewDriver(ka, aa, ipa)
	atm.NewDriver(kb, ab, ipb)
	ua, ub := udp.NewStack(ka, ipa), udp.NewStack(kb, ipb)
	e, err := Listen(kb, ub, 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(ka, ua, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	return env, e, c
}

// TestRUDPMessageAllocations pins what a message costs on a warm stream:
// the sender's retained copy and the receiver's delivered copy — two
// allocations, every other buffer and frame reused. The datagrams the
// pump reads, the message's and its ack's, are arena checkouts it hands
// back before acking, so none is outstanding between exchanges. It is
// TestConnIsOneAllocation's counterpart for the rival transport.
func TestRUDPMessageAllocations(t *testing.T) {
	env, e, c := newStream(t)
	var start sim.WaitQueue
	srv := &echoServer{e: e, buf: make([]byte, 200)}
	cli := &echoClient{c: c, start: &start, msg: make([]byte, 200), buf: make([]byte, 200)}
	env.Spawn("server", srv)
	env.Spawn("client", cli)
	env.Run()
	exchange := func() {
		start.Wake()
		env.Run()
	}
	for i := 0; i < 4; i++ {
		exchange() // warm the free lists and the slices' capacity
	}
	const runs = 50
	allocs := testing.AllocsPerRun(runs, exchange)
	if srv.err != nil || cli.err != nil {
		t.Fatalf("server: %v; client: %v", srv.err, cli.err)
	}
	// The first exchange ran at spawn; AllocsPerRun adds a warm-up run.
	if want := 1 + 4 + runs + 1; cli.exchanges != want {
		t.Fatalf("%d exchanges, want %d", cli.exchanges, want)
	}
	if c.e.Retransmits != 0 || e.Retransmits != 0 {
		t.Fatalf("%d and %d retransmissions on a loss-free link", c.e.Retransmits, e.Retransmits)
	}
	if perMsg := allocs / 2; perMsg != 2 {
		t.Errorf("a message costs %v allocations, want 2: its retained copy and its delivered copy", perMsg)
	}
	if n := env.Arena().Outstanding(); n != 0 {
		t.Errorf("%d datagrams still checked out between exchanges", n)
	}
}

// TestCrashFreesQueuedDatagrams crashes a server endpoint at an instant
// its udp queue holds datagrams the pump has not read — a burst of
// messages arriving back to back — and requires that, once the client
// gives up and the loop drains, neither host holds an mbuf and the loop
// holds no checkout: Crash closes the udp endpoint, which frees what is
// queued, and the pump releases a datagram it was already reading.
func TestCrashFreesQueuedDatagrams(t *testing.T) {
	env, e, c := newStream(t)
	msg := make([]byte, 2000) // a cluster a datagram
	env.Spawn("client", sim.Steps(func(p *sim.Proc) {
		p.Call(sim.LoopN(8, func(p *sim.Proc, _ int) { c.Send(p, msg) }))
	}))
	for e.ep.Pending() == 0 {
		if !env.Step() {
			t.Fatal("the burst drained without ever queueing at the server")
		}
	}
	e.Crash()
	c.Abort()
	env.Run()
	for _, k := range []*kern.Kernel{c.e.K, e.K} {
		if st := k.Pool.PoolStats; st.LiveHeaders != 0 || st.LivePages != 0 {
			t.Errorf("%s: %d mbuf headers and %d pages live", k.Name(), st.LiveHeaders, st.LivePages)
		}
	}
	if n := env.Arena().Outstanding(); n != 0 {
		t.Errorf("%d checkouts outstanding", n)
	}
}
