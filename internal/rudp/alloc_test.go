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

// TestRUDPMessageAllocations pins what a message costs on a warm stream:
// the sender's retained copy, the datagram udp gives the receiver, and
// the datagram of the ack that answers it — three allocations, every
// other buffer and frame reused. It is TestConnIsOneAllocation's
// counterpart for the rival transport.
func TestRUDPMessageAllocations(t *testing.T) {
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
	if perMsg := allocs / 2; perMsg != 3 {
		t.Errorf("a message costs %v allocations, want 3: its retained copy, its datagram and its ack's", perMsg)
	}
}
