package rudp

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/kern"
	"repro/internal/sim"
	"repro/internal/udp"
)

// ErrCrashed fails the parked Accepts of an endpoint that suffered a
// simulated kernel crash (Endpoint.Crash).
var ErrCrashed = errors.New("rudp: host crashed")

const (
	// MaxMessage is the largest message Send accepts: one message rides
	// one datagram, so there is no segmentation layer to reassemble.
	MaxMessage = 4096
	// maxWindow bounds unacknowledged messages in flight. At 32 the
	// 32-bit ack bitfield always covers the whole outstanding span, so
	// one surviving ack repairs every earlier loss.
	maxWindow = 32
	// seenSpan is how far behind the latest received sequence the
	// receiver remembers arrivals (for duplicate detection and bitfield
	// construction); it comfortably exceeds ack coverage + window.
	seenSpan = 128
	// maxRexmtShift is the retransmission give-up threshold, TCP's
	// TCP_MAXRXTSHIFT: after this many consecutive backed-off timeouts
	// the stream is aborted rather than probed forever. It matches the
	// TCP stack's raised value so the rival-transport comparison holds
	// give-up patience equal: in a large unstaggered run whose lock-step
	// retry waves need ~26 simulated minutes to drain, rudp must not
	// abort measured flows where TCP survives.
	maxRexmtShift = 32

	minRTO = 1 * sim.Second
	maxRTO = 64 * sim.Second
)

// seqLT reports a < b in 16-bit circular sequence space.
func seqLT(a, b uint16) bool { return int16(a-b) < 0 }

// connKey identifies a peer (remote address, remote port).
type connKey struct {
	addr uint32
	port uint16
}

// Endpoint is one bound rudp port: the UDP endpoint, the demultiplexing
// table of per-peer connections, and the two service processes every
// endpoint runs — the receive pump (parse, ack, deliver, wake) and the
// timer work loop (retransmissions dispatch here, mirroring the TCP
// stack's deferred-work pattern).
type Endpoint struct {
	K *kern.Kernel
	U *udp.Stack

	ep        *udp.Endpoint
	conns     map[connKey]*Conn
	listening bool
	backlog   []*Conn
	acceptWq  sim.WaitQueue
	err       error // set when the endpoint dies (host crash); fails Accepts

	due    []*Conn // connections whose retransmission timer expired
	workWq sim.WaitQueue

	// Stats.
	PacketsIn   int64
	PacketsOut  int64
	HeaderBytes int64
	BadHeaders  int64
	Retransmits int64
}

// newEndpoint binds port (0 = ephemeral) and spawns the service
// processes.
func newEndpoint(k *kern.Kernel, u *udp.Stack, port uint16, listening bool) (*Endpoint, error) {
	ep, err := u.Bind(port)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		K: k, U: u, ep: ep,
		conns:     make(map[connKey]*Conn),
		listening: listening,
	}
	e.acceptWq.Init("rudp.accept")
	e.workWq.Init("rudp.work")
	k.Env.Spawn("", &pumpFrame{e: e})
	k.Env.Spawn("", &workLoopFrame{e: e})
	return e, nil
}

// procName names one of the endpoint's two service processes.
func (e *Endpoint) procName(what string) string {
	return fmt.Sprintf("%s.rudp:%d.%s", e.K.Name(), e.ep.Port(), what)
}

// Listen binds port and accepts a connection per peer that sends to it.
func Listen(k *kern.Kernel, u *udp.Stack, port uint16) (*Endpoint, error) {
	return newEndpoint(k, u, port, true)
}

// Dial binds an ephemeral port and returns a connection to the remote
// endpoint. There is no handshake: the connection exists as soon as
// both sides have state for it, and the remote side materializes its
// half when the first packet arrives.
func Dial(k *kern.Kernel, u *udp.Stack, raddr uint32, rport uint16) (*Conn, error) {
	e, err := newEndpoint(k, u, 0, false)
	if err != nil {
		return nil, err
	}
	return e.conn(connKey{addr: raddr, port: rport}), nil
}

// conn returns (creating if needed) the connection to key.
func (e *Endpoint) conn(key connKey) *Conn {
	if c := e.conns[key]; c != nil {
		return c
	}
	c := &Conn{
		e: e, raddr: key.addr, rport: key.port,
		seen: make(map[uint16]struct{}),
		oo:   make(map[uint16]ooSlot),
	}
	c.sndWq.Init("rudp.snd")
	c.rcvWq.Init("rudp.rcv")
	c.rexmt.Bind(c)
	e.conns[key] = c
	return c
}

// Accept blocks until a peer's first packet creates a connection, then
// returns it (as a frame call; read op.C when the frame pops).
func (e *Endpoint) Accept(p *sim.Proc) *AcceptOp {
	op := &AcceptOp{e: e}
	p.Call(op)
	return op
}

// AcceptOp is the frame behind Accept.
type AcceptOp struct {
	e  *Endpoint
	pc int

	// C is the accepted connection, valid once the frame returns; Err is
	// set instead when the endpoint died (host crash) while waiting.
	C   *Conn
	Err error
}

// Step waits for the backlog to fill.
func (f *AcceptOp) Step(p *sim.Proc) {
	for {
		switch f.pc {
		case 0:
			if f.e.err != nil {
				f.Err = f.e.err
				p.Return()
				return
			}
			if len(f.e.backlog) == 0 {
				f.e.K.SleepOn(p, &f.e.acceptWq)
				return
			}
			f.C = f.e.backlog[0]
			copy(f.e.backlog, f.e.backlog[1:])
			f.e.backlog = f.e.backlog[:len(f.e.backlog)-1]
			f.pc = 1
		case 1:
			p.Return()
			return
		}
	}
}

// Crash simulates a kernel crash: every stream aborts locally (blocked
// senders and receivers wake and unwind), parked Accepts fail with
// ErrCrashed, deferred timer work dies with the kernel, and the UDP
// port unbinds so a restarted application can Listen on it again.
// Nothing is transmitted; peers discover the death through their own
// timers, like the TCP stack's Crash.
func (e *Endpoint) Crash() {
	keys := make([]connKey, 0, len(e.conns))
	for k := range e.conns {
		keys = append(keys, k)
	}
	// The conns map iterates in random order; aborts wake processes in
	// wake-queue order, so a deterministic crash sorts first.
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].addr != keys[j].addr {
			return keys[i].addr < keys[j].addr
		}
		return keys[i].port < keys[j].port
	})
	for _, k := range keys {
		e.conns[k].abort()
	}
	clear(e.conns)
	e.backlog = nil
	e.err = ErrCrashed
	e.acceptWq.WakeAll()
	clear(e.due)
	e.due = e.due[:0]
	e.ep.Close()
}

// dispatch queues a connection's retransmission for the work loop,
// exactly like the TCP stack's timer service.
func (e *Endpoint) dispatch(c *Conn) {
	e.due = append(e.due, c)
	e.workWq.Wake()
}

// workLoopFrame pops and runs one retransmission per Step.
type workLoopFrame struct {
	e *Endpoint
}

// Name implements sim.Namer: the process is named when something asks.
func (f *workLoopFrame) Name() string { return f.e.procName("timer") }

// Step drives the timer service process.
func (f *workLoopFrame) Step(p *sim.Proc) {
	e := f.e
	if len(e.due) == 0 {
		e.workWq.Wait(p)
		return
	}
	c := e.due[0]
	copy(e.due, e.due[1:])
	e.due[len(e.due)-1] = nil
	e.due = e.due[:len(e.due)-1]
	c.rexmtFire(p)
}

// sndEntry is one unacknowledged message.
type sndEntry struct {
	seq     uint16
	payload []byte
	fin     bool
	sentAt  sim.Time
	rexmted bool
	acked   bool
}

// ooSlot buffers one out-of-order arrival until the sequence gap fills.
type ooSlot struct {
	payload []byte
	fin     bool
}

// Conn is one reliable message stream to a peer.
type Conn struct {
	e     *Endpoint
	raddr uint32
	rport uint16

	// Send side: a sliding window of unacked entries, the shared
	// Jacobson/Karn estimator state, and the retransmission timer.
	sndNxt       uint16
	unacked      []*sndEntry
	srtt, rttvar sim.Time
	rtTiming     bool
	rtSeq        uint16
	rtStart      sim.Time
	rexmtShift   uint
	rexmt        sim.Timer
	sndWq        sim.WaitQueue
	closed       bool

	// Receive side: the latest-sequence/ack-bitfield record, the
	// in-order delivery cursor with its out-of-order buffer, and the
	// queue of delivered-but-unread messages.
	rcvLatest uint16
	rcvAny    bool
	seen      map[uint16]struct{}
	rcvNxt    uint16
	oo        map[uint16]ooSlot
	rdy       [][]byte
	rcvFin    bool
	rcvWq     sim.WaitQueue
}

// RemoteAddr returns the peer host's address.
func (c *Conn) RemoteAddr() uint32 { return c.raddr }

// SRTT exposes the smoothed RTT estimate.
func (c *Conn) SRTT() sim.Time { return c.srtt }

// rto mirrors the TCP stack's timer: srtt + 4·rttvar, doubled per
// backoff, clamped to [minRTO, maxRTO]. The backoff shift saturates at
// maxRTO before it is applied: shifts up to maxRexmtShift would wrap
// the multiplication negative, and the minRTO clamp would then turn a
// 64-second timeout into a 1-second one.
func (c *Conn) rto() sim.Time {
	base := 2 * sim.Second
	if c.srtt != 0 {
		base = c.srtt + 4*c.rttvar
	}
	d := maxRTO
	if base <= maxRTO>>c.rexmtShift {
		d = base << c.rexmtShift
	}
	if d < minRTO {
		d = minRTO
	}
	return d
}

// rttUpdate folds a sample into srtt/rttvar (Jacobson 1988).
func (c *Conn) rttUpdate(sample sim.Time) {
	if c.srtt == 0 {
		c.srtt = sample
		c.rttvar = sample / 2
		return
	}
	delta := sample - c.srtt
	c.srtt += delta / 8
	if delta < 0 {
		delta = -delta
	}
	c.rttvar += (delta - c.rttvar) / 4
}

// setRexmt (re)arms the retransmission timer.
func (c *Conn) setRexmt() {
	env := c.e.K.Env
	c.rexmt.Set(env, env.Now()+c.rto(), "rudp.rexmt")
}

// clearRexmt cancels any pending timer.
func (c *Conn) clearRexmt() { c.rexmt.Stop() }

// TimerFired implements sim.TimerOwner: the armed retransmission deadline
// elapsed.
func (c *Conn) TimerFired(*sim.Timer) { c.e.dispatch(c) }

// rexmtFire handles a retransmission timeout: back off, mark the timed
// sample dead (Karn), and resend every unacked message with refreshed
// ack state.
func (c *Conn) rexmtFire(p *sim.Proc) {
	if len(c.unacked) == 0 {
		return
	}
	if c.rexmtShift >= maxRexmtShift {
		// Give up, like TCP past TCP_MAXRXTSHIFT: the peer is
		// unreachable or its endpoint is gone (datagrams to a
		// vanished peer vanish silently), so abandoning the window
		// is the only exit — retransmitting forever at maxRTO never
		// drains.
		c.abort()
		return
	}
	c.rexmtShift++
	c.rtTiming = false
	c.setRexmt()
	p.Call(&rexmtAllFrame{c: c})
}

// Abort abandons the stream immediately and locally, as an application
// deadline would: nothing is transmitted, so the peer discovers the
// death only through its own retransmission timers.
func (c *Conn) Abort() { c.abort() }

// abort abandons the stream after retransmission give-up: the unacked
// window is discarded, the timer cancelled, and both directions wake —
// blocked senders find a closed stream, blocked receivers end-of-stream.
func (c *Conn) abort() {
	c.unacked = c.unacked[:0]
	c.clearRexmt()
	c.closed = true
	c.rcvFin = true
	c.sndWq.WakeAll()
	c.rcvWq.WakeAll()
}

// header returns the ack-bearing header for the next outgoing packet;
// seq is filled by the caller for Data/Fin packets. Before the first
// reception the header carries AckNone instead of ack state: Ack's zero
// value would otherwise read as "seq 0 received" and retire the peer's
// first message without delivery.
func (c *Conn) header() Header {
	if !c.rcvAny {
		return Header{Seq: c.sndNxt, AckNone: true}
	}
	return Header{Seq: c.sndNxt, Ack: c.rcvLatest, AckBits: c.ackBits()}
}

// ackBits builds the 32-bit bitfield behind rcvLatest from the seen set.
func (c *Conn) ackBits() uint32 {
	if !c.rcvAny {
		return 0
	}
	var bits uint32
	for i := 0; i < 32; i++ {
		if _, ok := c.seen[c.rcvLatest-1-uint16(i)]; ok {
			bits |= 1 << i
		}
	}
	return bits
}

// packet encodes one entry's (re)transmission with current ack state.
func (c *Conn) packet(ent *sndEntry) []byte {
	h := c.header()
	h.Seq = ent.seq
	h.Data = !ent.fin
	h.Fin = ent.fin
	buf := make([]byte, MaxHeaderBytes+len(ent.payload))
	n := h.Marshal(buf)
	c.e.HeaderBytes += int64(n)
	copy(buf[n:], ent.payload)
	return buf[:n+len(ent.payload)]
}

// ackPacket encodes a pure acknowledgement.
func (c *Conn) ackPacket() []byte {
	h := c.header()
	buf := make([]byte, MaxHeaderBytes)
	n := h.Marshal(buf)
	c.e.HeaderBytes += int64(n)
	return buf[:n]
}

// processAck retires entries the header acknowledges, samples RTT per
// Karn, and manages the timer. Returns true if anything newly retired.
func (c *Conn) processAck(h Header) bool {
	if h.AckNone {
		return false // peer has received nothing; no sequence is covered
	}
	retired := false
	for _, ent := range c.unacked {
		if ent.acked {
			continue
		}
		d := uint16(h.Ack - ent.seq)
		covered := ent.seq == h.Ack || (d >= 1 && d <= 32 && h.AckBits&(1<<(d-1)) != 0)
		if !covered {
			continue
		}
		ent.acked = true
		retired = true
		if c.rtTiming && ent.seq == c.rtSeq && !ent.rexmted {
			c.rtTiming = false
			c.rttUpdate(c.e.K.Env.Now() - c.rtStart)
		}
	}
	if !retired {
		return false
	}
	for len(c.unacked) > 0 && c.unacked[0].acked {
		c.unacked = c.unacked[1:]
	}
	c.rexmtShift = 0
	if len(c.unacked) == 0 {
		c.clearRexmt()
	} else {
		c.setRexmt()
	}
	c.sndWq.WakeAll()
	return true
}

// recordArrival folds a consumed sequence into the receiver's ack state.
func (c *Conn) recordArrival(seq uint16) {
	c.seen[seq] = struct{}{}
	if !c.rcvAny || seqLT(c.rcvLatest, seq) {
		c.rcvLatest = seq
		c.rcvAny = true
	}
	// Trim the seen set so it cannot grow with the stream.
	for s := range c.seen {
		if uint16(c.rcvLatest-s) > seenSpan {
			delete(c.seen, s)
		}
	}
}

// deliver buffers a data/fin packet and drains the in-order prefix into
// the ready queue, waking readers.
func (c *Conn) deliver(h Header, payload []byte) {
	if seqLT(h.Seq, c.rcvNxt) {
		return // duplicate of something already delivered
	}
	if _, dup := c.oo[h.Seq]; dup {
		return
	}
	buf := make([]byte, len(payload))
	copy(buf, payload)
	c.oo[h.Seq] = ooSlot{payload: buf, fin: h.Fin}
	for {
		slot, ok := c.oo[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.oo, c.rcvNxt)
		c.rcvNxt++
		if slot.fin {
			c.rcvFin = true
		} else {
			c.rdy = append(c.rdy, slot.payload)
		}
	}
	c.rcvWq.WakeAll()
}

// pumpFrame is the endpoint's receive service process: one datagram per
// cycle — parse, demultiplex, retire acks, deliver data, and answer
// consumed sequences with an immediate ack.
type pumpFrame struct {
	e *Endpoint

	pc     int
	recv   *udp.RecvFromOp
	ackTo  *Conn
	ackPkt []byte
}

// Name implements sim.Namer: the process is named when something asks.
func (f *pumpFrame) Name() string { return f.e.procName("pump") }

// Step drives the pump.
func (f *pumpFrame) Step(p *sim.Proc) {
	e := f.e
	for {
		switch f.pc {
		case 0: // wait for the next datagram
			f.pc = 1
			f.recv = e.ep.RecvFrom(p)
			return
		case 1: // parse and process it
			d := f.recv.D
			f.recv = nil
			f.pc = 0
			h, n, err := ParseHeader(d.Data)
			if err != nil {
				e.BadHeaders++
				continue
			}
			e.PacketsIn++
			key := connKey{addr: d.Src, port: d.SrcPort}
			c := e.conns[key]
			if c == nil {
				if !e.listening {
					continue // stray datagram to a client port
				}
				c = e.conn(key)
				e.backlog = append(e.backlog, c)
				e.acceptWq.WakeAll()
			}
			c.processAck(h)
			if !h.Data && !h.Fin {
				continue
			}
			c.recordArrival(h.Seq)
			c.deliver(h, d.Data[n:])
			// Ack immediately: latency beats bandwidth for a
			// request/response rival, so there is no delayed-ack timer.
			f.ackTo = c
			f.ackPkt = c.ackPacket()
			f.pc = 2
			e.PacketsOut++
			e.ep.SendTo(p, c.raddr, c.rport, f.ackPkt)
			return
		case 2: // ack sent; next datagram
			f.ackTo, f.ackPkt = nil, nil
			f.pc = 0
		}
	}
}

// rexmtAllFrame resends every unacked entry, one datagram per Step.
type rexmtAllFrame struct {
	c *Conn

	pc int
	i  int
}

// Step drives the retransmission burst.
func (f *rexmtAllFrame) Step(p *sim.Proc) {
	c := f.c
	for {
		switch f.pc {
		case 0: // send the next unacked entry
			for f.i < len(c.unacked) && c.unacked[f.i].acked {
				f.i++
			}
			if f.i >= len(c.unacked) {
				p.Return()
				return
			}
			ent := c.unacked[f.i]
			ent.rexmted = true
			f.i++
			c.e.Retransmits++
			c.e.PacketsOut++
			f.pc = 0
			c.e.ep.SendTo(p, c.raddr, c.rport, c.packet(ent))
			return
		}
	}
}

// Send transmits one message reliably (as a frame call). Messages keep
// their boundaries: the peer's Recv returns exactly this payload.
type SendOp struct {
	c   *Conn
	msg []byte

	pc  int
	ent *sndEntry

	// Err reports a rejected send (oversized message, closed stream),
	// valid once the frame returns.
	Err error
}

// Send queues msg and transmits it, blocking while the window is full.
func (c *Conn) Send(p *sim.Proc, msg []byte) *SendOp {
	op := &SendOp{c: c, msg: msg}
	p.Call(op)
	return op
}

// Step drives the send.
func (f *SendOp) Step(p *sim.Proc) {
	c := f.c
	for {
		switch f.pc {
		case 0: // validate, then wait for window space
			if len(f.msg) > MaxMessage {
				f.Err = fmt.Errorf("rudp: message %d exceeds %d bytes", len(f.msg), MaxMessage)
				p.Return()
				return
			}
			if c.closed {
				f.Err = fmt.Errorf("rudp: send on closed stream")
				p.Return()
				return
			}
			if len(c.unacked) >= maxWindow {
				c.e.K.SleepOn(p, &c.sndWq)
				return
			}
			f.pc = 1
		case 1: // assign a sequence and transmit
			payload := make([]byte, len(f.msg))
			copy(payload, f.msg)
			f.ent = &sndEntry{seq: c.sndNxt, payload: payload, sentAt: c.e.K.Env.Now()}
			c.sndNxt++
			c.unacked = append(c.unacked, f.ent)
			if !c.rtTiming {
				c.rtTiming = true
				c.rtSeq = f.ent.seq
				c.rtStart = f.ent.sentAt
			}
			if len(c.unacked) == 1 {
				c.setRexmt()
			}
			f.pc = 2
			c.e.PacketsOut++
			c.e.ep.SendTo(p, c.raddr, c.rport, c.packet(f.ent))
			return
		case 2: // done
			f.ent = nil
			p.Return()
			return
		}
	}
}

// RecvOp is the frame behind Recv.
type RecvOp struct {
	c   *Conn
	buf []byte

	pc int

	// N is the received message length (0 = end of stream), valid once
	// the frame returns. Err reports a message longer than buf.
	N   int
	Err error
}

// Recv blocks until one whole message (or the peer's fin) arrives, then
// copies it into buf.
func (c *Conn) Recv(p *sim.Proc, buf []byte) *RecvOp {
	op := &RecvOp{c: c, buf: buf}
	p.Call(op)
	return op
}

// Step drives the receive.
func (f *RecvOp) Step(p *sim.Proc) {
	c := f.c
	for {
		switch f.pc {
		case 0: // wait for a ready message or EOF
			if len(c.rdy) == 0 {
				if c.rcvFin {
					f.N = 0
					p.Return()
					return
				}
				c.e.K.SleepOn(p, &c.rcvWq)
				return
			}
			msg := c.rdy[0]
			copy(c.rdy, c.rdy[1:])
			c.rdy[len(c.rdy)-1] = nil
			c.rdy = c.rdy[:len(c.rdy)-1]
			if len(msg) > len(f.buf) {
				f.Err = fmt.Errorf("rudp: %d-byte message exceeds %d-byte buffer", len(msg), len(f.buf))
				p.Return()
				return
			}
			f.N = copy(f.buf, msg)
			f.pc = 1
		case 1: // done
			p.Return()
			return
		}
	}
}

// CloseOp is the frame behind Close.
type CloseOp struct {
	c  *Conn
	pc int
}

// Close ends the stream: a fin rides the sequence space like a
// zero-length message (retransmitted until acknowledged), so the peer's
// Recv sees end-of-stream exactly after the last message.
func (c *Conn) Close(p *sim.Proc) {
	op := &CloseOp{c: c}
	p.Call(op)
}

// Step drives the close.
func (f *CloseOp) Step(p *sim.Proc) {
	c := f.c
	for {
		switch f.pc {
		case 0: // wait for window space, then send the fin
			if c.closed {
				p.Return()
				return
			}
			if len(c.unacked) >= maxWindow {
				c.e.K.SleepOn(p, &c.sndWq)
				return
			}
			c.closed = true
			ent := &sndEntry{seq: c.sndNxt, fin: true, sentAt: c.e.K.Env.Now()}
			c.sndNxt++
			c.unacked = append(c.unacked, ent)
			if len(c.unacked) == 1 {
				c.setRexmt()
			}
			f.pc = 1
			c.e.PacketsOut++
			c.e.ep.SendTo(p, c.raddr, c.rport, c.packet(ent))
			return
		case 1: // done (the pump retires the fin's ack)
			p.Return()
			return
		}
	}
}
