package rudp

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/kern"
	"repro/internal/sim"
)

// testConn builds a bare connection wired to a throwaway environment,
// enough for the pure receive/ack bookkeeping under test.
func testConn(t *testing.T) *Conn {
	t.Helper()
	env := sim.NewEnv()
	c := &Conn{e: &Endpoint{K: kern.New(env, cost.DECstation5000(), "t")}}
	c.rexmt.Bind(c)
	return c
}

// TestAckBitsTracking drives arrivals through the receiver's ack
// bookkeeping — in order, out of order, duplicated — and checks the
// (latest, bitfield) pair names exactly the received set.
func TestAckBitsTracking(t *testing.T) {
	c := testConn(t)
	if c.ackBits() != 0 {
		t.Fatalf("fresh conn ackBits %#x, want 0", c.ackBits())
	}
	for _, seq := range []uint16{0, 1, 3} {
		c.recordArrival(seq)
	}
	if c.rcvLatest != 3 {
		t.Fatalf("rcvLatest %d, want 3", c.rcvLatest)
	}
	// Behind latest=3: bit0 = seq2 (missing), bit1 = seq1, bit2 = seq0.
	if bits := c.ackBits(); bits != 0b110 {
		t.Fatalf("ackBits %#b, want 0b110", bits)
	}
	// The straggler fills its hole without moving latest.
	c.recordArrival(2)
	if c.rcvLatest != 3 {
		t.Fatalf("rcvLatest moved to %d on old arrival", c.rcvLatest)
	}
	if bits := c.ackBits(); bits != 0b111 {
		t.Fatalf("ackBits %#b after straggler, want 0b111", bits)
	}
	// Duplicates are idempotent.
	c.recordArrival(2)
	if bits := c.ackBits(); bits != 0b111 {
		t.Fatalf("ackBits %#b after duplicate, want 0b111", bits)
	}
}

// TestProcessAck checks ack/bitfield retirement: covered entries retire
// (including through the bitfield), uncovered ones survive, and the
// window head slides past the retired prefix.
func TestProcessAck(t *testing.T) {
	c := testConn(t)
	for seq := uint16(0); seq < 5; seq++ {
		c.unacked = append(c.unacked, sndEntry{seq: seq})
	}
	// Peer acks latest=3 with bits for 2 and 0 (not 1): retires 0, 2, 3.
	h := Header{Ack: 3, AckBits: 1<<0 | 1<<2}
	if !c.processAck(h) {
		t.Fatal("processAck reported nothing retired")
	}
	// Entry 0 retired, so the window slides to 1; 1 and 4 survive.
	if len(c.unacked) != 4 {
		t.Fatalf("unacked len %d, want 4 (slid past seq 0)", len(c.unacked))
	}
	if c.unacked[0].seq != 1 || c.unacked[0].acked {
		t.Fatalf("window head %+v, want unacked seq 1", c.unacked[0])
	}
	if !c.unacked[1].acked || !c.unacked[2].acked {
		t.Fatal("bitfield-covered entries 2 and 3 not retired")
	}
	if c.unacked[3].acked {
		t.Fatal("seq 4 retired without coverage")
	}
	// A duplicate of the same ack retires nothing further.
	if c.processAck(h) {
		t.Fatal("duplicate ack reported new retirement")
	}
	// Acking 1 slides the window past the whole retired prefix to 4.
	if !c.processAck(Header{Ack: 4, AckBits: 1 << 2}) {
		t.Fatal("second ack retired nothing")
	}
	if len(c.unacked) != 0 {
		t.Fatalf("unacked len %d after full coverage, want 0", len(c.unacked))
	}
}

// TestAckNoneDoesNotRetire pins the fix for the seq-0 ack ambiguity:
// under burst loss, a client whose first send's replies were all lost
// retransmits before receiving anything, and that retransmission's
// header must not read as "seq 0 received" — it would retire the
// server's lost echo (seq 0) without delivery, nothing would ever
// retransmit it, and the client would park in Recv forever.
func TestAckNoneDoesNotRetire(t *testing.T) {
	server := testConn(t)
	server.unacked = append(server.unacked, sndEntry{seq: 0, buf: make([]byte, MaxHeaderBytes+4)})
	client := testConn(t)
	h := client.header()
	if !h.AckNone {
		t.Fatal("header before first reception does not carry AckNone")
	}
	if server.processAck(h) {
		t.Fatal("AckNone header retired an entry")
	}
	if server.unacked[0].acked {
		t.Fatal("seq 0 marked acked by a peer that received nothing")
	}
	// Once the client has received something, acks flow normally.
	client.recordArrival(0)
	h = client.header()
	if h.AckNone {
		t.Fatal("header still AckNone after a reception")
	}
	if !server.processAck(h) {
		t.Fatal("real ack of seq 0 retired nothing")
	}
}

// TestRTOBackoffSaturates checks the backoff shift saturates at maxRTO
// instead of overflowing: at maxRexmtShift 32 a raw base<<shift wraps
// int64 negative, and the minRTO clamp would turn the slowest, most
// backed-off retries into the fastest.
func TestRTOBackoffSaturates(t *testing.T) {
	c := testConn(t)
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

// TestDeliverOrdering checks ordered delivery with out-of-order
// arrival, duplication, and the fin's end-of-stream position.
func TestDeliverOrdering(t *testing.T) {
	c := testConn(t)
	c.deliver(Header{Seq: 1, Data: true}, []byte("b"))
	if len(c.rdy) != 0 {
		t.Fatalf("out-of-order message delivered early: %q", c.rdy)
	}
	c.deliver(Header{Seq: 0, Data: true}, []byte("a"))
	if len(c.rdy) != 2 || string(c.rdy[0]) != "a" || string(c.rdy[1]) != "b" {
		t.Fatalf("rdy %q, want [a b]", c.rdy)
	}
	// Duplicates of delivered sequences are dropped.
	c.deliver(Header{Seq: 0, Data: true}, []byte("a")) // below rcvNxt
	c.deliver(Header{Seq: 1, Data: true}, []byte("b"))
	if len(c.rdy) != 2 {
		t.Fatalf("duplicate delivery grew rdy to %d", len(c.rdy))
	}
	// The fin is ordered like data: it marks EOF only once 2 delivers.
	c.deliver(Header{Seq: 3, Fin: true}, nil)
	if c.rcvFin {
		t.Fatal("fin took effect ahead of the sequence gap")
	}
	c.deliver(Header{Seq: 2, Data: true}, []byte("c"))
	if !c.rcvFin {
		t.Fatal("fin not delivered after gap filled")
	}
	if len(c.rdy) != 3 || string(c.rdy[2]) != "c" {
		t.Fatalf("rdy %q, want [a b c]", c.rdy)
	}
}

// TestSeqWraparound checks the circular comparisons near the 16-bit
// boundary.
func TestSeqWraparound(t *testing.T) {
	c := testConn(t)
	c.rcvNxt = 0xFFFE
	c.rcvLatest = 0xFFFD
	c.rcvAny = true
	c.deliver(Header{Seq: 0xFFFE, Data: true}, []byte("x"))
	c.deliver(Header{Seq: 0xFFFF, Data: true}, []byte("y"))
	c.deliver(Header{Seq: 0x0000, Data: true}, []byte("z"))
	if len(c.rdy) != 3 {
		t.Fatalf("rdy len %d across wrap, want 3", len(c.rdy))
	}
	if c.rcvNxt != 1 {
		t.Fatalf("rcvNxt %#x, want 1", c.rcvNxt)
	}
	c.recordArrival(0xFFFF)
	c.recordArrival(0x0000)
	if c.rcvLatest != 0 {
		t.Fatalf("rcvLatest %#x across wrap, want 0", c.rcvLatest)
	}
}

// TestRexmtGiveUp pins the retransmission give-up: at maxRexmtShift
// consecutive timeouts the stream aborts — unacked window discarded,
// timer cancelled, stream closed in both directions — instead of
// retransmitting forever to a peer whose endpoint has vanished
// (datagrams to nobody drop silently, so no reply will ever arrive and
// an un-bounded timer would keep the event loop alive eternally).
func TestRexmtGiveUp(t *testing.T) {
	c := testConn(t)
	c.unacked = append(c.unacked, sndEntry{seq: 0, buf: make([]byte, MaxHeaderBytes+1)})
	c.rexmtShift = maxRexmtShift
	c.setRexmt()
	c.rexmtFire(nil)
	if !c.closed {
		t.Error("stream not closed after give-up")
	}
	if !c.rcvFin {
		t.Error("receive side not ended after give-up")
	}
	if len(c.unacked) != 0 {
		t.Errorf("%d entries still unacked after give-up", len(c.unacked))
	}
	if c.rexmt.Armed() {
		t.Error("retransmit timer not cancelled by give-up")
	}
}
