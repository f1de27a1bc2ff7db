// Package ip implements the IPv4 layer of the simulated stack: real header
// marshaling and parsing (with a real header checksum), the output path,
// and the input path's software-interrupt queue — the IPQ whose scheduling
// latency the paper reports as its own row in Table 3.
//
// Routing is the trivial two-host case the paper measures (a private,
// switchless network): every datagram goes out the single attached
// interface. Fragmentation is unnecessary because TCP segments to the
// interface MSS; Output enforces this with a panic rather than silently
// producing wrong timing.
package ip

import (
	"fmt"

	"repro/internal/checksum"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// HeaderLen is the length of an IPv4 header without options.
const HeaderLen = 20

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// Header is a parsed IPv4 header (no options).
type Header struct {
	TotalLen int
	ID       uint16
	TTL      uint8
	Proto    uint8
	Src, Dst uint32
}

// Marshal writes the header, including a freshly computed header checksum,
// into b, which must be at least HeaderLen bytes.
func (h *Header) Marshal(b []byte) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = 0
	b[2] = byte(h.TotalLen >> 8)
	b[3] = byte(h.TotalLen)
	b[4] = byte(h.ID >> 8)
	b[5] = byte(h.ID)
	b[6], b[7] = 0, 0 // no fragmentation
	b[8] = h.TTL
	b[9] = h.Proto
	b[10], b[11] = 0, 0
	b[12] = byte(h.Src >> 24)
	b[13] = byte(h.Src >> 16)
	b[14] = byte(h.Src >> 8)
	b[15] = byte(h.Src)
	b[16] = byte(h.Dst >> 24)
	b[17] = byte(h.Dst >> 16)
	b[18] = byte(h.Dst >> 8)
	b[19] = byte(h.Dst)
	ck := checksum.Checksum(b[:HeaderLen])
	b[10] = byte(ck >> 8)
	b[11] = byte(ck)
}

// Parse reads and validates a header from b. It returns an error for a bad
// version, short buffer, or checksum mismatch.
func Parse(b []byte) (Header, error) {
	var h Header
	if len(b) < HeaderLen {
		return h, fmt.Errorf("ip: short header (%d bytes)", len(b))
	}
	if b[0] != 0x45 {
		return h, fmt.Errorf("ip: unsupported version/IHL %#x", b[0])
	}
	if !checksum.Verify(b[:HeaderLen]) {
		return h, fmt.Errorf("ip: header checksum mismatch")
	}
	h.TotalLen = int(b[2])<<8 | int(b[3])
	h.ID = uint16(b[4])<<8 | uint16(b[5])
	h.TTL = b[8]
	h.Proto = b[9]
	h.Src = uint32(b[12])<<24 | uint32(b[13])<<16 | uint32(b[14])<<8 | uint32(b[15])
	h.Dst = uint32(b[16])<<24 | uint32(b[17])<<16 | uint32(b[18])<<8 | uint32(b[19])
	return h, nil
}

// Dst reads the destination address out of a marshaled header without
// validating anything — the cheap decode drivers use on the transmit
// path to resolve a link-layer destination. A short buffer returns 0.
func Dst(b []byte) uint32 {
	if len(b) < HeaderLen {
		return 0
	}
	return uint32(b[16])<<24 | uint32(b[17])<<16 | uint32(b[18])<<8 | uint32(b[19])
}

// PacketIDOf derives the trace identity of a marshaled datagram the way
// a packet capture would: addresses from the IP header and, for TCP,
// ports and sequence number from the transport header behind it. Short
// or non-TCP datagrams yield an identity with only the fields that
// exist (UDP traffic traces address-level; a truncated buffer yields
// the zero identity). Drivers use it to label their typed events, since
// the wire bytes are the only identity the lowest layers ever see.
func PacketIDOf(dg []byte) trace.PacketID {
	if len(dg) < HeaderLen {
		return trace.PacketID{}
	}
	id := trace.PacketID{
		Src: uint32(dg[12])<<24 | uint32(dg[13])<<16 | uint32(dg[14])<<8 | uint32(dg[15]),
		Dst: uint32(dg[16])<<24 | uint32(dg[17])<<16 | uint32(dg[18])<<8 | uint32(dg[19]),
	}
	if dg[9] == ProtoTCP && len(dg) >= HeaderLen+8 {
		t := dg[HeaderLen:]
		id.SrcPort = uint16(t[0])<<8 | uint16(t[1])
		id.DstPort = uint16(t[2])<<8 | uint16(t[3])
		id.Seq = uint32(t[4])<<24 | uint32(t[5])<<16 | uint32(t[6])<<8 | uint32(t[7])
	}
	return id
}

// NetIf is a network interface as IP sees it: something that can transmit
// a complete IP datagram. The ATM and Ethernet drivers implement it.
type NetIf interface {
	// Output transmits the datagram in process context, charging its own
	// driver costs. The chain includes the IP header. It is a frame call:
	// it may push a frame onto p, so it must be the caller's last action
	// before its Step returns.
	Output(p *sim.Proc, m *mbuf.Mbuf)
	// MTU returns the maximum datagram size the interface accepts.
	MTU() int
	// Name identifies the interface in diagnostics.
	Name() string
}

// Handler receives demultiplexed datagram payloads (header stripped).
// Input is a frame call: it may push a frame onto p, so it must be the
// caller's last action before its Step returns.
type Handler interface {
	Input(p *sim.Proc, h Header, m *mbuf.Mbuf)
}

// queued is one datagram waiting on the IP input queue.
type queued struct {
	m  *mbuf.Mbuf
	at sim.Time       // enqueue time, the start of the IPQ span
	id trace.PacketID // identity captured at enqueue, for attribution
}

// Stack is one host's IP layer.
type Stack struct {
	K    *kern.Kernel
	If   NetIf
	Addr uint32

	// handlers is a fixed table, not a map: this stack speaks TCP and
	// UDP, and the protocol lookup runs once per datagram.
	handlers [2]registered
	// The input queue starts in slot, in the stack itself, so that a
	// host's first datagram needs no allocation: most hosts of a fan-in
	// never hold two. Dequeue shifts the rest down, keeping q on slot
	// until a second datagram arrives while one waits.
	q        []queued
	slot     [1]queued
	wq       sim.WaitQueue
	nextID   uint16
	out      *outOp // free output frames, linked through next
	outFrame outOp  // the first of them, so a stack is one allocation

	// Drops counts datagrams discarded on input (bad header, no handler),
	// for tests and fault-injection experiments.
	Drops int64

	// The netisr: the service process and its root frame, held here so
	// that starting it allocates nothing.
	proc   sim.Proc
	netisr netisrFrame
}

// registered is one protocol's input handler.
type registered struct {
	proto uint8
	h     Handler
}

// NewStack creates the IP layer for a host with the given address and
// starts its software-interrupt service process (the netisr).
func NewStack(k *kern.Kernel, addr uint32) *Stack { return new(Stack).Init(k, addr) }

// Init readies a zero Stack in place, as NewStack does, and returns it.
func (s *Stack) Init(k *kern.Kernel, addr uint32) *Stack {
	s.K, s.Addr = k, addr
	s.q = s.slot[:0]
	s.wq.Init("ipq")
	s.outFrame.s = s
	s.out = &s.outFrame
	s.netisr.s = s
	k.Env.SpawnIn(&s.proc, k.Env.Now(), "", &s.netisr)
	return s
}

// Attach sets the interface datagrams are routed out of.
func (s *Stack) Attach(nif NetIf) { s.If = nif }

// Reset returns the stack to its just-constructed state for testbed
// reuse: empty input queue, datagram IDs restarting from zero, counters
// cleared. The registered protocol handlers, the attached interface, and
// the netisr service process (parked on the input queue's wait queue)
// all survive — they are the topology, not the trial.
func (s *Stack) Reset() {
	for i := range s.q {
		s.q[i] = queued{}
	}
	s.q = s.q[:0]
	s.nextID = 0
	s.Drops = 0
}

// Register installs the handler for an IP protocol number.
func (s *Stack) Register(proto uint8, h Handler) {
	for i := range s.handlers {
		if r := &s.handlers[i]; r.h == nil || r.proto == proto {
			r.proto, r.h = proto, h
			return
		}
	}
	panic(fmt.Sprintf("ip: no room to register protocol %d: the handler table holds %d", proto, len(s.handlers)))
}

// handler returns the input handler registered for proto, or nil.
func (s *Stack) handler(proto uint8) Handler {
	for i := range s.handlers {
		if r := &s.handlers[i]; r.proto == proto {
			return r.h
		}
	}
	return nil
}

// Output encapsulates the transport payload m (e.g. a TCP segment) in an
// IP datagram to dst and hands it to the interface. It charges the
// ip_output processing cost and panics if the datagram exceeds the MTU,
// since this stack deliberately omits fragmentation. It is a frame call:
// it pushes the output frame onto p, so it must be the caller's last
// action before its Step returns.
func (s *Stack) Output(p *sim.Proc, dst uint32, proto uint8, m *mbuf.Mbuf) {
	f := s.out
	if f != nil {
		s.out, f.next = f.next, nil
	} else {
		f = &outOp{s: s}
	}
	f.pc, f.dst, f.proto, f.m = 0, dst, proto, m
	p.Call(f)
}

// outOp is the resumable state of one Output call. Outputs overlap
// whenever two processes on a host transmit at once — two connections'
// segments on a busy server, rudp's receive pump and a sender — since
// each parks on the CPU charge and in the driver. The stack keeps a free list
// of frames, which grows to the most outputs ever in flight at once and
// then allocates nothing.
type outOp struct {
	s     *Stack
	pc    int
	dst   uint32
	proto uint8
	m     *mbuf.Mbuf
	next  *outOp // on the free list
}

func (f *outOp) Step(p *sim.Proc) {
	s := f.s
	switch f.pc {
	case 0:
		f.pc = 1
		if !s.K.Use(p, trace.LayerIPTx, s.K.Cost.IPOutput) {
			return
		}
		fallthrough
	case 1:
		m := f.m
		total := mbuf.ChainLen(m) + HeaderLen
		if total > s.If.MTU() {
			panic(fmt.Sprintf("ip: datagram of %d bytes exceeds MTU %d", total, s.If.MTU()))
		}
		s.nextID++
		h := Header{TotalLen: total, ID: s.nextID, TTL: 64, Proto: f.proto, Src: s.Addr, Dst: f.dst}
		head, hdr, _ := s.K.Pool.PrependHeader(m, HeaderLen)
		h.Marshal(hdr)
		s.K.Trace.Event(trace.Event{
			Kind: trace.EvIPSend, At: s.K.Now(),
			ID: s.K.PacketContext(p), Len: total,
		})
		f.pc = 2
		s.If.Output(p, head)
	case 2:
		f.m = nil
		f.next, s.out = s.out, f
		p.Return()
	}
}

// Enqueue places a received datagram on the IP input queue and signals the
// software interrupt. Drivers call it from interrupt context; the paper's
// IPQ row measures the latency from this call to the netisr removing the
// datagram. The enqueueing process's packet tag is captured with the
// datagram so the dequeue attributes the wait to the right packet.
func (s *Stack) Enqueue(m *mbuf.Mbuf) {
	id := s.K.PacketContext(s.K.Env.Current())
	s.q = append(s.q, queued{m: m, at: s.K.Now(), id: id})
	s.K.Trace.Event(trace.Event{
		Kind: trace.EvIPEnqueue, At: s.K.Now(), ID: id, Aux: int64(len(s.q)),
	})
	s.wq.Wake()
}

// QueueLen returns the number of datagrams waiting on the input queue.
func (s *Stack) QueueLen() int { return len(s.q) }

// netisrFrame is the IP software-interrupt service loop: the stack's one
// persistent process. Each pass dequeues one datagram, runs ip_input on
// it, and hands the payload up; with the queue empty it parks on the
// input queue's wait queue. As the root frame of a persistent process it
// never returns, so the service loop allocates no frames in steady state.
type netisrFrame struct {
	s  *Stack
	pc int
	// m is the datagram dequeued, until it is handed up: the frame keeps
	// the mbuf alone, not its queued record, which holds lab.Host in its
	// 1,536 B size class with the input queue's slot in the stack.
	m      *mbuf.Mbuf
	tagged bool
}

// Name implements sim.Namer: the process is named when something asks.
func (f *netisrFrame) Name() string { return f.s.K.Name() + ".netisr" }

func (f *netisrFrame) Step(p *sim.Proc) {
	s := f.s
	for {
		switch f.pc {
		case 0:
			if len(s.q) == 0 {
				s.wq.Wait(p)
				return
			}
			// Software-interrupt dispatch: CPU time spent getting from the
			// signal to the dequeue, attributed to the IPQ row. Queueing
			// delay behind a busy CPU is not re-attributed here — the work
			// occupying the CPU (typically the driver copying a later
			// segment's cells) already owns those spans. The head datagram's
			// identity tags the process before the charge so the dispatch
			// cost attributes to the packet being dequeued. Only this loop
			// dequeues, so the head is still that datagram after the charge.
			// The tag exists only for trace attribution; untraced runs skip
			// the push (it boxes the identity, one allocation per datagram).
			f.tagged = s.K.Trace.PacketsEnabled()
			if f.tagged {
				p.PushTag(s.q[0].id)
			}
			f.pc = 1
			if !s.K.Use(p, trace.LayerIPQ, s.K.Cost.SoftintDispatch) {
				return
			}
		case 1:
			head := s.q[0]
			f.m = head.m
			copy(s.q, s.q[1:])
			s.q = s.q[:len(s.q)-1]
			s.K.Trace.Event(trace.Event{
				Kind: trace.EvIPDequeue, At: head.at, Dur: s.K.Now() - head.at,
				ID: head.id, Aux: int64(len(s.q)),
			})
			// ip_input: charge processing, then parse, verify and deliver.
			f.pc = 2
			if !s.K.Use(p, trace.LayerIPRx, s.K.Cost.IPInput) {
				return
			}
		case 2:
			m := f.m
			// Header scratch on the stack: Parse copies what it keeps, so
			// this must not escape (the per-datagram path allocates nothing).
			var raw [HeaderLen]byte
			if mbuf.CopyBytesTo(m, 0, HeaderLen, raw[:]) != HeaderLen {
				s.Drops++
				s.K.Pool.Free(m)
				f.pc = 3
				continue
			}
			h, err := Parse(raw[:])
			if err != nil {
				s.Drops++
				s.K.Pool.Free(m)
				f.pc = 3
				continue
			}
			// Trim to the datagram's stated length (drivers may deliver
			// padding, e.g. Ethernet minimum-frame padding) and strip the
			// header.
			excess := mbuf.ChainLen(m) - h.TotalLen
			if excess < 0 {
				s.Drops++
				s.K.Pool.Free(m)
				f.pc = 3
				continue
			}
			m = s.K.Pool.Drop(m, HeaderLen)
			if excess > 0 {
				m = trimTail(&s.K.Pool, m, excess)
			}
			hd := s.handler(h.Proto)
			if hd == nil {
				s.Drops++
				s.K.Pool.Free(m)
				f.pc = 3
				continue
			}
			s.K.Trace.Event(trace.Event{
				Kind: trace.EvIPDeliver, At: s.K.Now(),
				ID: s.K.PacketContext(p), Len: h.TotalLen, Aux: int64(h.Proto),
			})
			f.pc = 3
			hd.Input(p, h, m)
			return
		case 3:
			if f.tagged {
				p.PopTag()
			}
			f.m = nil
			f.pc = 0
		}
	}
}

// trimTail removes n bytes from the end of the chain, freeing emptied
// mbufs.
func trimTail(pool *mbuf.Pool, m *mbuf.Mbuf, n int) *mbuf.Mbuf {
	keep := mbuf.ChainLen(m) - n
	front, back := pool.Split(m, keep)
	if back != nil {
		pool.Free(back)
	}
	return front
}
