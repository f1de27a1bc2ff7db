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
	c := &Conn{e: e, raddr: key.addr, rport: key.port}
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

// sndEntry is one unacknowledged message. buf is the message behind
// MaxHeaderBytes of headroom: each (re)transmission marshals its header
// into the headroom, right against the payload, and sends the packet from
// there.
type sndEntry struct {
	seq     uint16
	fin     bool
	rexmted bool
	acked   bool
	buf     []byte
}

// ooSlot buffers one out-of-order arrival until the sequence gap fills.
type ooSlot struct {
	seq     uint16
	fin     bool
	payload []byte
}

// Conn is one reliable message stream to a peer, and the frames of the
// operations it runs, held by value so that a message allocates only its
// two copies — the sender's retained one and the receiver's delivered
// one: one Send, one Recv and one Close at a time.
type Conn struct {
	e     *Endpoint
	raddr uint32
	rport uint16

	// Send side: a sliding window of unacked entries, the shared
	// Jacobson/Karn estimator state, and the retransmission timer.
	// Retired entries are copied out of the front of unacked, so the
	// slice keeps its capacity.
	sndNxt       uint16
	unacked      []sndEntry
	srtt, rttvar sim.Time
	rtTiming     bool
	rtSeq        uint16
	rtStart      sim.Time
	rexmtShift   uint
	rexmt        sim.Timer
	sndWq        sim.WaitQueue
	closed       bool
	// sending counts transmissions of entries whose SendTo is still
	// copying the packet out; while one is, a transmission marshals into
	// a fresh buffer instead of rewriting an entry's headroom.
	sending int

	// Receive side: the latest-sequence/ack-bitfield record, the
	// in-order delivery cursor with its out-of-order buffer, and the
	// queue of delivered-but-unread messages.
	rcvLatest uint16
	rcvAny    bool
	seen      uint64 // bit i: rcvLatest-1-i was received
	rcvNxt    uint16
	oo        []ooSlot // ahead of rcvNxt, nearest first
	rdy       [][]byte
	rcvFin    bool
	rcvWq     sim.WaitQueue

	send     SendOp
	recv     RecvOp
	close    CloseOp
	rexmtAll rexmtAllFrame
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
	c.rexmtAll = rexmtAllFrame{c: c}
	p.Call(&c.rexmtAll)
}

// Abort abandons the stream immediately and locally, as an application
// deadline would: nothing is transmitted, so the peer discovers the
// death only through its own retransmission timers.
func (c *Conn) Abort() { c.abort() }

// abort abandons the stream after retransmission give-up: the unacked
// window is discarded, the timer cancelled, and both directions wake —
// blocked senders find a closed stream, blocked receivers end-of-stream.
func (c *Conn) abort() {
	clear(c.unacked)
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

// ackBits is the 32-bit bitfield behind rcvLatest: the nearest half of
// the seen register.
func (c *Conn) ackBits() uint32 { return uint32(c.seen) }

// transmit sends one entry with the current ack state, as a tail call.
// The calling frame decrements sending when it resumes: until then
// SendTo may still be copying the packet out of the entry's buffer.
func (c *Conn) transmit(p *sim.Proc, ent *sndEntry) {
	h := c.header()
	h.Seq = ent.seq
	h.Data = !ent.fin
	h.Fin = ent.fin
	var hdr [MaxHeaderBytes]byte
	n := h.Marshal(hdr[:])
	c.e.HeaderBytes += int64(n)
	var pkt []byte
	if c.sending == 0 {
		pkt = ent.buf[MaxHeaderBytes-n:]
	} else {
		// Another transmission may be copying this entry's headroom:
		// it is rare (a retransmission timeout during a send), so copy.
		pkt = make([]byte, n+len(ent.buf)-MaxHeaderBytes)
		copy(pkt[n:], ent.buf[MaxHeaderBytes:])
	}
	copy(pkt, hdr[:n])
	c.sending++
	c.e.PacketsOut++
	c.e.ep.SendTo(p, c.raddr, c.rport, pkt)
}

// ackPacket encodes a pure acknowledgement into buf.
func (c *Conn) ackPacket(buf *[MaxHeaderBytes]byte) []byte {
	n := c.header().Marshal(buf[:])
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
	for i := range c.unacked {
		ent := &c.unacked[i]
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
	k := 0
	for k < len(c.unacked) && c.unacked[k].acked {
		k++
	}
	n := copy(c.unacked, c.unacked[k:])
	clear(c.unacked[n:])
	c.unacked = c.unacked[:n]
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
// The seen register remembers 64 sequences behind rcvLatest, twice what
// the ack bitfield reports; a sequence never re-enters that span once it
// has left it, because rcvLatest only advances.
func (c *Conn) recordArrival(seq uint16) {
	switch {
	case !c.rcvAny:
		c.rcvLatest, c.rcvAny = seq, true
	case seqLT(c.rcvLatest, seq):
		// The old latest moves d places back; shifts of 64 or more
		// leave nothing.
		d := seq - c.rcvLatest
		c.seen = c.seen<<d | 1<<(d-1)
		c.rcvLatest = seq
	default:
		if d := c.rcvLatest - seq; d != 0 {
			c.seen |= 1 << (d - 1)
		}
	}
}

// deliver buffers a data/fin packet, drains the in-order prefix into the
// ready queue, and wakes readers. payload is the pump's datagram, which
// goes back to udp once deliver returns: what is kept is a copy.
func (c *Conn) deliver(h Header, payload []byte) {
	if seqLT(h.Seq, c.rcvNxt) {
		return // duplicate of something already delivered
	}
	if h.Seq != c.rcvNxt {
		if !c.hold(h, payload) {
			return // duplicate of an arrival already held
		}
	} else {
		c.accept(h.Fin, keep(h, payload))
		n := 0
		for n < len(c.oo) && c.oo[n].seq == c.rcvNxt {
			c.accept(c.oo[n].fin, c.oo[n].payload)
			n++
		}
		k := copy(c.oo, c.oo[n:])
		clear(c.oo[k:])
		c.oo = c.oo[:k]
	}
	c.rcvWq.WakeAll()
}

// keep copies the payload of a data packet the receiver retains; a fin
// carries none.
func keep(h Header, payload []byte) []byte {
	if h.Fin {
		return nil
	}
	b := make([]byte, len(payload))
	copy(b, payload)
	return b
}

// accept delivers the arrival at rcvNxt.
func (c *Conn) accept(fin bool, payload []byte) {
	c.rcvNxt++
	if fin {
		c.rcvFin = true
	} else {
		c.rdy = append(c.rdy, payload)
	}
}

// hold buffers an arrival ahead of rcvNxt in distance order, reporting
// false if it is already held. Every held sequence lies ahead of rcvNxt,
// which advances only through held sequences, so the order is stable.
func (c *Conn) hold(h Header, payload []byte) bool {
	d := h.Seq - c.rcvNxt
	i := 0
	for i < len(c.oo) && c.oo[i].seq-c.rcvNxt < d {
		i++
	}
	if i < len(c.oo) && c.oo[i].seq == h.Seq {
		return false
	}
	c.oo = append(c.oo, ooSlot{})
	copy(c.oo[i+1:], c.oo[i:])
	c.oo[i] = ooSlot{seq: h.Seq, fin: h.Fin, payload: keep(h, payload)}
	return true
}

// pumpFrame is the endpoint's receive service process: one datagram per
// cycle — parse, demultiplex, retire acks, deliver data, hand the
// datagram back to udp, and answer consumed sequences with an immediate
// ack, marshaled into ack.
type pumpFrame struct {
	e *Endpoint

	pc   int
	recv *udp.RecvFromOp
	ack  [MaxHeaderBytes]byte
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
		case 1: // process it, release it, and ack what it consumed
			c := e.input(&f.recv.D)
			e.ep.Release(&f.recv.D)
			f.recv = nil
			f.pc = 0
			if c == nil {
				continue
			}
			// Ack immediately: latency beats bandwidth for a
			// request/response rival, so there is no delayed-ack timer.
			// SendTo has copied the ack out before the pump resumes.
			e.PacketsOut++
			e.ep.SendTo(p, c.raddr, c.rport, c.ackPacket(&f.ack))
			return
		}
	}
}

// input parses one datagram, demultiplexes it, retires what its ack state
// covers and delivers its data or fin. It returns the connection that
// consumed a sequence, which owes the peer an ack, or nil.
func (e *Endpoint) input(d *udp.Datagram) *Conn {
	h, n, err := ParseHeader(d.Data)
	if err != nil {
		e.BadHeaders++
		return nil
	}
	e.PacketsIn++
	key := connKey{addr: d.Src, port: d.SrcPort}
	c := e.conns[key]
	if c == nil {
		if !e.listening {
			return nil // stray datagram to a client port
		}
		c = e.conn(key)
		e.backlog = append(e.backlog, c)
		e.acceptWq.WakeAll()
	}
	c.processAck(h)
	if !h.Data && !h.Fin {
		return nil
	}
	c.recordArrival(h.Seq)
	c.deliver(h, d.Data[n:])
	return c
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
	if f.pc == 1 {
		c.sending--
	}
	for f.i < len(c.unacked) && c.unacked[f.i].acked {
		f.i++
	}
	if f.i >= len(c.unacked) {
		p.Return()
		return
	}
	ent := &c.unacked[f.i]
	ent.rexmted = true
	f.i++
	c.e.Retransmits++
	f.pc = 1
	c.transmit(p, ent)
}

// queue appends the next sequence to the send window, arming the timer
// if the window was empty, and returns its entry.
func (c *Conn) queue(fin bool, buf []byte) *sndEntry {
	c.unacked = append(c.unacked, sndEntry{seq: c.sndNxt, fin: fin, buf: buf})
	c.sndNxt++
	if len(c.unacked) == 1 {
		c.setRexmt()
	}
	return &c.unacked[len(c.unacked)-1]
}

// Send transmits one message reliably (as a frame call). Messages keep
// their boundaries: the peer's Recv returns exactly this payload.
type SendOp struct {
	c   *Conn
	msg []byte

	pc int

	// Err reports a rejected send (oversized message, closed stream),
	// valid once the frame returns.
	Err error
}

// Send queues msg and transmits it, blocking while the window is full.
// The returned frame is the Conn's, valid until the next Send.
func (c *Conn) Send(p *sim.Proc, msg []byte) *SendOp {
	c.send = SendOp{c: c, msg: msg}
	p.Call(&c.send)
	return &c.send
}

// Step drives the send.
func (f *SendOp) Step(p *sim.Proc) {
	c := f.c
	for {
		switch f.pc {
		case 0: // validate, then wait for window space
			if len(f.msg) > MaxMessage {
				f.Err = fmt.Errorf("rudp: message %d exceeds %d bytes", len(f.msg), MaxMessage)
				f.finish(p)
				return
			}
			if c.closed {
				f.Err = fmt.Errorf("rudp: send on closed stream")
				f.finish(p)
				return
			}
			if len(c.unacked) >= maxWindow {
				c.e.K.SleepOn(p, &c.sndWq)
				return
			}
			f.pc = 1
		case 1: // assign a sequence and transmit
			buf := make([]byte, MaxHeaderBytes+len(f.msg))
			copy(buf[MaxHeaderBytes:], f.msg)
			ent := c.queue(false, buf)
			if !c.rtTiming {
				c.rtTiming = true
				c.rtSeq = ent.seq
				c.rtStart = c.e.K.Env.Now()
			}
			f.pc = 2
			c.transmit(p, ent)
			return
		case 2: // done
			c.sending--
			f.finish(p)
			return
		}
	}
}

// finish returns from the frame, which the Conn keeps: it lets go of the
// caller's message.
func (f *SendOp) finish(p *sim.Proc) {
	f.msg = nil
	p.Return()
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
// copies it into buf. The returned frame is the Conn's, valid until the
// next Recv.
func (c *Conn) Recv(p *sim.Proc, buf []byte) *RecvOp {
	c.recv = RecvOp{c: c, buf: buf}
	p.Call(&c.recv)
	return &c.recv
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
					f.finish(p)
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
				f.finish(p)
				return
			}
			f.N = copy(f.buf, msg)
			f.pc = 1
		case 1: // done
			f.finish(p)
			return
		}
	}
}

// finish returns from the frame, which the Conn keeps: it lets go of the
// caller's buffer.
func (f *RecvOp) finish(p *sim.Proc) {
	f.buf = nil
	p.Return()
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
	c.close = CloseOp{c: c}
	p.Call(&c.close)
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
			f.pc = 1
			c.transmit(p, c.queue(true, make([]byte, MaxHeaderBytes)))
			return
		case 1: // done (the pump retires the fin's ack)
			c.sending--
			p.Return()
			return
		}
	}
}
