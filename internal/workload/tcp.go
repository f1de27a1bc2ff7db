// The TCP transport: the workload contract (transport.go) over the
// kernel's TCP stack and stream sockets.
package workload

import (
	"fmt"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/sock"
	"repro/internal/tcp"
)

// tcpTransport is the TCP stack with Nagle's algorithm off on both ends
// of every connection — the request/response setting — unless nagle
// leaves it on, the setting of the one-way streams (bulk, cross traffic).
type tcpTransport struct{ nagle bool }

func (t tcpTransport) listen(h *lab.Host, port uint16) (listener, error) {
	ln, err := h.TCP.Listen(port)
	if err != nil {
		return nil, err
	}
	return &tcpListener{ln: ln, nagle: t.nagle}, nil
}

func (t tcpTransport) client(h *lab.Host, port uint16) conn {
	return &tcpConn{stack: h.TCP, port: port, nagle: t.nagle}
}

type tcpListener struct {
	ln    *tcp.Listener
	nagle bool
	op    *tcp.AcceptOp
}

func (l *tcpListener) accept(p *sim.Proc) { l.op = l.ln.Accept(p) }

func (l *tcpListener) accepted() (conn, error) {
	op := l.op
	l.op = nil
	if op.Err != nil {
		return nil, op.Err
	}
	if !l.nagle {
		op.C.SetNoDelay(true)
	}
	return &tcpConn{so: op.So, c: op.C}, nil
}

// crash has nothing to do: the lab resets the host's TCP stack itself.
func (l *tcpListener) crash() {}

// tcpConn is one end of a TCP connection. It is its own exchange frame.
type tcpConn struct {
	stack *tcp.Stack // the dialing host's; nil on an accepted end
	port  uint16     // and the server port it dials
	nagle bool       // left on for a dialed connection
	so    *sock.Socket
	c     *tcp.Conn

	// op is the stack operation in flight or just completed: a
	// *tcp.ConnectOp, *sock.RecvOp or *sock.SendOp; nil after an exchange,
	// whose outcome is err.
	op  any
	err error

	// Exchange state.
	msg, buf []byte
	pc       int
	total    int
}

func (t *tcpConn) blocks() bool { return true }

func (t *tcpConn) dial(p *sim.Proc) { t.op = t.stack.Connect(p, lab.HostAddr(0), t.port) }

func (t *tcpConn) recv(p *sim.Proc, buf []byte) { t.op = t.so.Recv(p, buf) }

func (t *tcpConn) send(p *sim.Proc, b []byte) { t.op = t.so.Send(p, b) }

func (t *tcpConn) close(p *sim.Proc) { t.so.Close(p) }

func (t *tcpConn) done() (int, error) {
	switch op := t.op.(type) {
	case *tcp.ConnectOp:
		t.op = nil
		if op.Err == nil {
			t.so, t.c = op.So, op.C
			if !t.nagle {
				t.c.SetNoDelay(true)
			}
		}
		return 0, op.Err
	case *sock.RecvOp:
		return op.N, op.Err
	case *sock.SendOp:
		return 0, op.Err
	}
	return 0, t.err
}

func (t *tcpConn) abort() {
	if op, ok := t.op.(*tcp.ConnectOp); ok {
		op.Abort()
	} else if t.c != nil {
		t.c.Abort()
	}
}

// reap returns the dead socket's buffered chains to the pool: the
// connection is closed and no operation is parked on it, so the buffers
// are safe to release — without this every outage would strand the
// aborted request's mbufs for the run's lifetime.
func (t *tcpConn) reap() {
	t.so.Snd.Drop(t.so.Snd.Len())
	t.so.Rcv.Drop(t.so.Rcv.Len())
	t.so, t.c = nil, nil
}

func (t *tcpConn) peer() uint32 { return t.c.Key().RemoteAddr }

func (t *tcpConn) exchange(p *sim.Proc, msg, buf []byte) {
	t.msg, t.buf, t.pc = msg, buf, 0
	p.Call(t)
}

// Step drives one exchange: write the request, then read the stream
// until the whole response is in.
func (t *tcpConn) Step(p *sim.Proc) {
	for {
		switch t.pc {
		case 0: // write the request
			t.pc = 1
			t.send(p, t.msg)
			return
		case 1: // request written; read the response
			if _, err := t.done(); err != nil {
				t.finish(p, err)
				return
			}
			t.total = 0
			t.pc = 2
		case 2: // read loop head
			if t.total >= len(t.buf) {
				t.finish(p, nil)
				return
			}
			t.pc = 3
			t.recv(p, t.buf[t.total:])
			return
		case 3: // fold in one read's result
			n, err := t.done()
			if err == nil && n == 0 {
				err = fmt.Errorf("workload: unexpected EOF after %d of %d bytes",
					t.total, len(t.buf))
			}
			if err != nil {
				t.finish(p, err)
				return
			}
			t.total += n
			t.pc = 2
		}
	}
}

// finish ends the exchange with its outcome.
func (t *tcpConn) finish(p *sim.Proc, err error) {
	t.op, t.err = nil, err
	p.Return()
}
