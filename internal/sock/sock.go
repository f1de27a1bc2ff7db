// Package sock implements the BSD socket layer: send and receive socket
// buffers with high-water marks, sosend (the user-to-kernel copy with the
// ULTRIX mbuf sizing policy), soreceive (the kernel-to-user copy), and the
// sleep/wakeup protocol that produces the paper's Wakeup row.
//
// The socket layer is where two of the paper's experimental effects live:
//
//   - The normal-mbuf/cluster switch at 1 KB that causes the nonlinear
//     User and mcopy rows between 500 and 1400 bytes (§2.2.1). sosend
//     reproduces ULTRIX's policy: writes over 1 KB go into 4 KB cluster
//     mbufs, one protocol send per cluster — which is also why an
//     8000-byte transfer leaves as two TCP segments.
//   - The transmit half of the integrated copy-and-checksum (§4.1.1):
//     in that mode sosend folds the checksum into the copyin and stores
//     the partial sum in the mbuf for TCP to combine later.
package sock

import (
	"repro/internal/checksum"
	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/mbuf"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultHiwat is the socket buffer high-water mark. The paper's
// benchmark must have run with at least 8 KB of socket buffering: it
// observes the two segments of an 8000-byte transfer leaving back to back
// and overlapping at the receiver (Table 3's ATM row), which a 4 KB
// buffer would serialize behind a window update. 16 KB reproduces that
// behaviour; per-socket buffers remain adjustable via Buffer.Hiwat.
const DefaultHiwat = 16384

// Protocol is the interface the socket layer drives, the analogue of the
// BSD pr_usrreq entry points this stack needs.
type Protocol interface {
	// Send notifies the protocol that data was appended to the send
	// buffer (PRU_SEND).
	Send(p *sim.Proc)
	// Rcvd notifies the protocol that the application consumed receive
	// buffer space (PRU_RCVD), the window-update hook.
	Rcvd(p *sim.Proc)
	// Close begins an orderly release (PRU_DISCONNECT).
	Close(p *sim.Proc)
}

// Buffer is a socket buffer: an mbuf chain plus bookkeeping.
type Buffer struct {
	K     *kern.Kernel
	Hiwat int
	mb    *mbuf.Mbuf
	tail  *mbuf.Mbuf // last mbuf of the chain, so Append is O(appended)
	cc    int
	// WaitQ is where processes sleep for state changes (sbwait).
	WaitQ sim.WaitQueue
}

// initBuffer prepares a buffer owned by kernel k; name labels its wait
// queue in diagnostics.
func (b *Buffer) initBuffer(k *kern.Kernel, name string) {
	b.K = k
	b.Hiwat = DefaultHiwat
	b.WaitQ.Init(name)
}

// Len returns the bytes queued.
func (b *Buffer) Len() int { return b.cc }

// Space returns the bytes of room below the high-water mark.
func (b *Buffer) Space() int { return b.Hiwat - b.cc }

// Chain returns the head of the buffered mbuf chain.
func (b *Buffer) Chain() *mbuf.Mbuf { return b.mb }

// Append adds a chain to the buffer (sbappend + sbcompress). Small
// normal mbufs that fit whole in the tail's trailing space are copied in
// and freed rather than linked, as in BSD's sbcompress. Without it a
// stream of sub-MSS writes builds a chain of tiny mbufs — ROADMAP 3b's
// "retransmission livelock": TCP output's mcopy then pays a per-mbuf
// alloc+copy charge per segment (a 9148-byte MSS carved from 1-byte
// mbufs costs ~50ms of simulated CPU per transmission, paid again on
// every retransmission), and each append walked the whole chain, so
// multi-client sub-MSS bulk runs blew up quadratically in wall-clock
// time on top of the inflated simulated charges.
func (b *Buffer) Append(m *mbuf.Mbuf) {
	b.cc += mbuf.ChainLen(m)
	for m != nil && b.tail != nil && !b.tail.IsCluster() && !m.IsCluster() &&
		m.Len() <= b.tail.Cap() {
		b.tail.Append(m.Bytes())
		b.tail.CsumValid = false // stashed partial sum no longer covers the mbuf
		next := m.Next()
		m.SetNext(nil)
		b.K.Pool.Free(m)
		m = next
	}
	if m == nil {
		return
	}
	if b.tail == nil {
		b.mb = m
	} else {
		b.tail.SetNext(m)
	}
	t := m
	for t.Next() != nil {
		t = t.Next()
	}
	b.tail = t
}

// Drop releases n bytes from the front (sbdrop), returning the mbufs to
// the pool.
func (b *Buffer) Drop(n int) {
	if n > b.cc {
		panic("sock: sbdrop more than buffered")
	}
	b.mb = b.K.Pool.Drop(b.mb, n)
	b.cc -= n
	if b.mb == nil {
		b.tail = nil
	}
}

// Socket is a connected stream socket.
type Socket struct {
	K     *kern.Kernel
	Proto Protocol
	Snd   Buffer
	Rcv   Buffer

	// Mode selects the transmit-side checksum strategy for sosend.
	Mode cost.ChecksumMode

	// TraceID is the connection identity (4-tuple, Seq zero) stamped on
	// the socket's enqueue/dequeue trace events. The transport sets it
	// once the connection's addresses are known; until then socket
	// events record unattributed.
	TraceID trace.PacketID

	// Err terminates operations with an error state (connection reset).
	Err error
	// Eof is set when the peer's FIN has been consumed.
	Eof bool
	// Connected reflects protocol state; Recv/Send require it unless
	// data is already buffered.
	Connected bool

	// StateQ is where processes wait for connection state changes.
	StateQ sim.WaitQueue

	// send and recv are the frames behind Send and Recv, held by value so
	// that a socket embedded in its connection adds no allocation of its
	// own. A socket has one sender and one receiver at a time; a second
	// caller of either panics.
	send SendOp
	recv RecvOp
}

// Init prepares a zero socket, usually one embedded in its transport's
// connection, for kernel k. The protocol must be attached by the
// transport before use.
func (so *Socket) Init(k *kern.Kernel) {
	so.K = k
	so.StateQ.Init("so.state")
	so.Snd.initBuffer(k, "so.snd")
	so.Rcv.initBuffer(k, "so.rcv")
	so.send.so = so
	so.recv.so = so
}

// chunkPolicy decides the mbuf type for a write of resid bytes, per the
// ULTRIX 4.2A rule: cluster mbufs once the transfer exceeds 1 KB.
func chunkPolicy(resid int) bool { return resid > mbuf.ClusterThreshold }

// Send implements sosend for a stream socket as a frame call: block for
// buffer space, copy user data into mbufs (charging the User row),
// append, and kick the protocol once per chunk. The call must be in tail
// position — the caller's Step returns immediately and re-enters once
// the operation completes, at which point the returned op carries the
// results: N is the number of bytes accepted (len(data) unless the
// connection fails) and Err the socket error, if any.
func (so *Socket) Send(p *sim.Proc, data []byte) *SendOp {
	f := &so.send
	if f.busy {
		panic("sock: Send while another Send is in progress on the socket")
	}
	f.busy = true
	f.pc = 0
	f.data = data
	f.sent = 0
	f.useClusters = chunkPolicy(len(data))
	f.N, f.Err = 0, nil
	p.Call(f)
	return f
}

// SendOp is the frame behind Socket.Send. Its states mirror the phases of
// the original sosend loop: the write() entry charge, the
// space-wait/chunk-carve loop head, the per-mbuf allocate/copyin charge
// pairs, the buffer append, and the protocol kick.
type SendOp struct {
	so   *Socket
	pc   int
	data []byte
	sent int

	// Per-chunk scratch, captured at the loop head so charges that park
	// resume against the values the decision was made with.
	space       int
	budget      int
	chain, tail *mbuf.Mbuf
	curM        *mbuf.Mbuf
	curN        int
	useClusters bool
	busy        bool // between Send and the frame's return

	// Results, valid once the frame returns to its caller.
	N   int
	Err error
}

// Step drives the sosend state machine.
func (f *SendOp) Step(p *sim.Proc) {
	so := f.so
	k := so.K
	for {
		switch f.pc {
		case 0: // write() entry
			f.pc = 1
			if !k.Use(p, trace.LayerUserTx, k.Cost.WriteSyscall) {
				return
			}
		case 1: // chunk-loop head: done, error, or wait for space
			if f.sent >= len(f.data) || so.Err != nil {
				f.finish(p)
				return
			}
			if so.Snd.Space() <= 0 {
				k.SleepOn(p, &so.Snd.WaitQ)
				return
			}
			f.space = so.Snd.Space()
			f.chain, f.tail = nil, nil
			if f.useClusters {
				// One cluster per protocol send, as in ULTRIX sosend.
				f.pc = 2
				if !k.Use(p, trace.LayerUserTx, k.Cost.ClusterAlloc) {
					return
				}
			} else {
				// Fill normal mbufs up to the available space, one
				// protocol send for the chain.
				resid := len(f.data) - f.sent
				f.budget = min3(resid, f.space, resid)
				f.pc = 4
				if !k.Use(p, trace.LayerUserTx, k.Cost.MbufAlloc) {
					return
				}
			}
		case 2: // cluster allocated; charge the copyin
			f.curM = k.Pool.AllocCluster()
			resid := len(f.data) - f.sent
			f.curN = min3(resid, mbuf.MCLBYTES, f.space)
			f.pc = 3
			if !k.Use(p, trace.LayerUserTx, so.copyinCost(f.curN)) {
				return
			}
		case 3: // cluster copyin done; append the chunk
			so.copyinAct(f.curM, f.data[f.sent:f.sent+f.curN])
			f.sent += f.curN
			f.chain = f.curM
			f.pc = 6
			if !k.Use(p, trace.LayerUserTx,
				sim.Time(mbuf.ChainCount(f.chain))*k.Cost.SockAppend) {
				return
			}
		case 4: // normal mbuf allocated; charge the copyin
			f.curM = k.Pool.Alloc()
			f.curN = f.budget
			if f.curN > mbuf.MLEN {
				f.curN = mbuf.MLEN
			}
			f.pc = 5
			if !k.Use(p, trace.LayerUserTx, so.copyinCost(f.curN)) {
				return
			}
		case 5: // normal copyin done; next mbuf or append the chain
			so.copyinAct(f.curM, f.data[f.sent:f.sent+f.curN])
			f.sent += f.curN
			f.budget -= f.curN
			if f.chain == nil {
				f.chain = f.curM
			} else {
				f.tail.SetNext(f.curM)
			}
			f.tail = f.curM
			if f.budget > 0 {
				f.pc = 4
				if !k.Use(p, trace.LayerUserTx, k.Cost.MbufAlloc) {
					return
				}
			} else {
				f.pc = 6
				if !k.Use(p, trace.LayerUserTx,
					sim.Time(mbuf.ChainCount(f.chain))*k.Cost.SockAppend) {
					return
				}
			}
		case 6: // append to the send buffer; charge the protocol dispatch
			recording := k.Trace.PacketRecording()
			var chainLen int
			if recording {
				chainLen = mbuf.ChainLen(f.chain)
			}
			so.Snd.Append(f.chain)
			if recording {
				k.Trace.Event(trace.Event{
					Kind: trace.EvSockEnqueue, At: k.Now(), ID: so.TraceID,
					Len: chainLen, Aux: int64(so.Snd.Len()),
				})
			}
			f.chain, f.tail, f.curM = nil, nil, nil
			f.pc = 7
			if !k.Use(p, trace.LayerUserTx, k.Cost.UsrreqDispatch) {
				return
			}
		case 7: // kick the protocol (tail call), then back to the loop head
			f.pc = 1
			so.Proto.Send(p)
			return
		}
	}
}

// finish publishes the results, frees the frame for the next Send, and
// pops it. The caller is re-stepped synchronously by the trampoline, so
// it reads the results before any later Send can reuse the frame.
func (f *SendOp) finish(p *sim.Proc) {
	f.N, f.Err = f.sent, f.so.Err
	f.data = nil
	f.chain, f.tail, f.curM = nil, nil, nil
	f.busy = false
	p.Return()
}

// copyinCost returns the CPU charge for copying n user bytes into an
// mbuf; in integrated mode the checksum is fused into the copy (§4.1.1).
func (so *Socket) copyinCost(n int) sim.Time {
	k := so.K
	perByte := k.Cost.CopyinPerByte
	if so.Mode == cost.ChecksumIntegrated {
		perByte += k.Cost.IntegratedTxPerByte
	}
	return k.Cost.CopyinFixed + sim.Time(perByte*float64(n))
}

// copyinAct moves user bytes into one mbuf and — in integrated mode —
// stashes the partial sum (§4.1.1: "we calculate the checksum for each
// chunk of data copied into an mbuf at the socket layer, and store the
// partial checksum in the mbuf header").
func (so *Socket) copyinAct(m *mbuf.Mbuf, data []byte) {
	if m.Append(data) != len(data) {
		panic("sock: mbuf overflow in copyin")
	}
	if so.Mode == cost.ChecksumIntegrated {
		var cs checksum.Partial
		cs.Add(data)
		m.Csum, m.CsumValid = cs, true
	}
}

// Recv implements soreceive as a frame call: block until data (or EOF or
// error), copy out up to len(buf) bytes, release the consumed mbufs, and
// give the protocol its window-update hook. The call must be in tail
// position; once the caller re-enters, the returned op's N is the byte
// count (0 at EOF) and Err the socket error, if any.
func (so *Socket) Recv(p *sim.Proc, buf []byte) *RecvOp {
	f := &so.recv
	if f.busy {
		panic("sock: Recv while another Recv is in progress on the socket")
	}
	f.busy = true
	f.pc = 0
	f.buf = buf
	f.N, f.Err = 0, nil
	p.Call(f)
	return f
}

// RecvOp is the frame behind Socket.Recv: the data-wait loop, the read()
// entry charge, the per-mbuf copyout charges, the mbuf release, and the
// window-update kick.
type RecvOp struct {
	so   *Socket
	busy bool // between Recv and the frame's return
	pc   int

	buf    []byte
	n      int
	copied int
	take   int
	m      *mbuf.Mbuf

	// Results, valid once the frame returns to its caller.
	N   int
	Err error
}

// Step drives the soreceive state machine.
func (f *RecvOp) Step(p *sim.Proc) {
	so := f.so
	k := so.K
	for {
		switch f.pc {
		case 0: // wait for data, EOF, or error
			if so.Rcv.Len() == 0 {
				if so.Err != nil {
					f.N, f.Err = 0, so.Err
					f.finish(p)
					return
				}
				if so.Eof {
					f.N, f.Err = 0, nil
					f.finish(p)
					return
				}
				k.SleepOn(p, &so.Rcv.WaitQ)
				return
			}
			f.pc = 1
			if !k.Use(p, trace.LayerUserRx, k.Cost.ReadSyscall) {
				return
			}
		case 1: // size the read, start the copyout loop
			f.n = len(f.buf)
			if f.n > so.Rcv.Len() {
				f.n = so.Rcv.Len()
			}
			f.copied = 0
			f.m = so.Rcv.Chain()
			f.pc = 2
		case 2: // copyout loop head: charge the next mbuf's copy
			if f.copied < f.n {
				take := f.m.Len()
				if take > f.n-f.copied {
					take = f.n - f.copied
				}
				f.take = take
				f.pc = 3
				if !k.Use(p, trace.LayerUserRx,
					k.Cost.CopyoutFixed+sim.Time(k.Cost.CopyoutPerByte*float64(take))) {
					return
				}
				continue
			}
			// Free the consumed mbufs; the paper charges mbuf
			// bookkeeping separately from the copy.
			freed := 0
			for c := so.Rcv.Chain(); c != nil && freed+c.Len() <= f.n; c = c.Next() {
				freed++
			}
			f.pc = 4
			if freed > 0 {
				if !k.Use(p, trace.LayerMbuf, sim.Time(freed)*k.Cost.MbufFree) {
					return
				}
			}
		case 3: // copy one mbuf's bytes out
			copy(f.buf[f.copied:], f.m.Bytes()[:f.take])
			f.copied += f.take
			f.m = f.m.Next()
			f.pc = 2
		case 4: // release consumed mbufs; charge the protocol dispatch
			so.Rcv.Drop(f.n)
			k.Trace.Event(trace.Event{
				Kind: trace.EvSockDequeue, At: k.Now(), ID: so.TraceID,
				Len: f.n, Aux: int64(so.Rcv.Len()),
			})
			f.pc = 5
			if !k.Use(p, trace.LayerUserRx, k.Cost.UsrreqDispatch) {
				return
			}
		case 5: // window-update kick (tail call), then pop
			f.N, f.Err = f.n, nil
			f.pc = 6
			so.Proto.Rcvd(p)
			return
		case 6:
			f.finish(p)
			return
		}
	}
}

// finish frees the frame for the next Recv and pops it; results were
// published by the terminating state.
func (f *RecvOp) finish(p *sim.Proc) {
	f.buf = nil
	f.m = nil
	f.busy = false
	p.Return()
}

// Close starts an orderly release. The protocol may transmit, so the call
// must be in tail position within the calling frame's Step.
func (so *Socket) Close(p *sim.Proc) {
	so.Proto.Close(p)
}

// --- Upcalls from the transport protocol. ---

// RcvWakeup wakes readers after the protocol appended data or EOF
// (sorwakeup).
func (so *Socket) RcvWakeup() { so.Rcv.WaitQ.WakeAll() }

// SndWakeup wakes writers after send-buffer space opened (sowwakeup).
func (so *Socket) SndWakeup() { so.Snd.WaitQ.WakeAll() }

// SetConnected marks the socket connected and wakes state waiters.
func (so *Socket) SetConnected() {
	so.Connected = true
	so.StateQ.WakeAll()
}

// SetEof marks the receive stream finished and wakes readers.
func (so *Socket) SetEof() {
	so.Eof = true
	so.RcvWakeup()
}

// SetError poisons the socket and wakes everyone.
func (so *Socket) SetError(err error) {
	so.Err = err
	so.Connected = false
	so.RcvWakeup()
	so.SndWakeup()
	so.StateQ.WakeAll()
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
