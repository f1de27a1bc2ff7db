// The reliable-UDP transport: the workload contract (transport.go) over
// internal/rudp's message streams, so that a TCP-versus-rudp comparison
// at equal load runs the same harness frames over either stack.
package workload

import (
	"fmt"

	"repro/internal/ip"
	"repro/internal/lab"
	"repro/internal/rudp"
	"repro/internal/sim"
	"repro/internal/udp"
)

type rudpTransport struct{}

func (rudpTransport) listen(h *lab.Host, port uint16) (listener, error) {
	e, err := rudp.Listen(h.Kern, h.UDP, port)
	if err != nil {
		return nil, err
	}
	return &rudpListener{e: e}, nil
}

func (rudpTransport) clients(hs []*lab.Host, port uint16) []conn {
	ends, cs := make([]rudpConn, len(hs)), make([]conn, len(hs))
	for i, h := range hs {
		ends[i] = rudpConn{host: h, port: port}
		cs[i] = &ends[i]
	}
	return cs
}

// RUDPMaxMessage returns the largest message the rudp transport carries
// over interfaces of the given MTU. A message rides one datagram, so it
// is the MTU less the IP, UDP and worst-case rudp headers, and never more
// than rudp.MaxMessage.
func RUDPMaxMessage(mtu int) int {
	return min(rudp.MaxMessage, mtu-ip.HeaderLen-udp.HeaderLen-rudp.MaxHeaderBytes)
}

// rudpFor is the transport for messages of size bytes over interfaces of
// the given MTU.
func rudpFor(size, mtu int) (transport, error) {
	if limit := RUDPMaxMessage(mtu); size > limit {
		return nil, fmt.Errorf("workload: rudp carries one message a datagram, at most %d bytes on a %d-byte MTU; got %d",
			limit, mtu, size)
	}
	return rudpTransport{}, nil
}

type rudpListener struct {
	e  *rudp.Endpoint
	op *rudp.AcceptOp
}

func (l *rudpListener) accept(p *sim.Proc) { l.op = l.e.Accept(p) }

func (l *rudpListener) accepted(reuse conn) (conn, error) {
	op := l.op
	l.op = nil
	if op.Err != nil {
		return nil, op.Err
	}
	r, _ := reuse.(*rudpConn)
	if r == nil {
		r = new(rudpConn)
	}
	*r = rudpConn{c: op.C}
	return r, nil
}

// crash kills the endpoint: it is workload-owned state the lab's crash
// handling (which resets the TCP stack) cannot see.
func (l *rudpListener) crash() { l.e.Crash() }

// rudpConn is one end of an rudp message stream. It is its own exchange
// frame.
type rudpConn struct {
	host *lab.Host // the dialing host; nil on an accepted end
	port uint16    // and the server port it dials
	c    *rudp.Conn

	// op is the stream operation in flight or just completed: a
	// *rudp.RecvOp or *rudp.SendOp; nil after a dial or an exchange, whose
	// outcome is err.
	op  any
	err error

	// Exchange state.
	msg, buf []byte
	pc       int
}

// blocks is false: there is no handshake, the first data packet carries
// the connection setup.
func (r *rudpConn) blocks() bool { return false }

func (r *rudpConn) dial(*sim.Proc) {
	r.op = nil
	r.c, r.err = rudp.Dial(r.host.Kern, r.host.UDP, lab.HostAddr(0), r.port)
}

func (r *rudpConn) recv(p *sim.Proc, buf []byte) { r.op = r.c.Recv(p, buf) }

func (r *rudpConn) send(p *sim.Proc, b []byte) { r.op = r.c.Send(p, b) }

func (r *rudpConn) close(p *sim.Proc) { r.c.Close(p) }

func (r *rudpConn) done() (int, error) {
	switch op := r.op.(type) {
	case *rudp.RecvOp:
		return op.N, op.Err
	case *rudp.SendOp:
		return 0, op.Err
	}
	return 0, r.err
}

func (r *rudpConn) abort() {
	if r.c != nil {
		r.c.Abort()
	}
}

// reap aborts the stream (idempotent if a deadline already did) and drops
// it, so the next dial starts a fresh one.
func (r *rudpConn) reap() {
	r.c.Abort()
	r.c = nil
}

func (r *rudpConn) peer() uint32 { return r.c.RemoteAddr() }

func (r *rudpConn) exchange(p *sim.Proc, msg, buf []byte) {
	r.msg, r.buf, r.pc = msg, buf, 0
	p.Call(r)
}

// Step drives one exchange: send the request message, receive the one
// response message. An aborted stream surfaces as end-of-stream, a
// zero-length response.
func (r *rudpConn) Step(p *sim.Proc) {
	for {
		switch r.pc {
		case 0: // send the request
			r.pc = 1
			r.send(p, r.msg)
			return
		case 1: // sent; read the response message
			if _, err := r.done(); err != nil {
				r.finish(p, err)
				return
			}
			r.pc = 2
			r.recv(p, r.buf)
			return
		case 2: // fold in the response
			n, err := r.done()
			if err == nil && n != len(r.buf) {
				err = fmt.Errorf("%d-byte response, want %d", n, len(r.buf))
			}
			r.finish(p, err)
			return
		}
	}
}

// finish ends the exchange with its outcome.
func (r *rudpConn) finish(p *sim.Proc, err error) {
	r.op, r.err = nil, err
	p.Return()
}
