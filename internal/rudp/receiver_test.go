package rudp

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// mapReceiver is the receive side as it was first written: every recent
// arrival in a set trimmed to 128 sequences behind the latest, the ack
// bitfield probed out of that set, and early arrivals held in a map keyed
// by sequence. It is the reference FuzzRUDPReceiver holds a Conn's seen
// register and sorted hold slice to, as crc10Bitwise is CRC-10's.
type mapReceiver struct {
	rcvLatest uint16
	rcvAny    bool
	seen      map[uint16]struct{}
	rcvNxt    uint16
	oo        map[uint16]ooSlot
	rdy       [][]byte
	rcvFin    bool
}

func newMapReceiver() *mapReceiver {
	return &mapReceiver{seen: map[uint16]struct{}{}, oo: map[uint16]ooSlot{}}
}

func (r *mapReceiver) recordArrival(seq uint16) {
	r.seen[seq] = struct{}{}
	if !r.rcvAny || seqLT(r.rcvLatest, seq) {
		r.rcvLatest = seq
		r.rcvAny = true
	}
	for s := range r.seen {
		if uint16(r.rcvLatest-s) > 128 {
			delete(r.seen, s)
		}
	}
}

func (r *mapReceiver) ackBits() uint32 {
	if !r.rcvAny {
		return 0
	}
	var bits uint32
	for i := 0; i < 32; i++ {
		if _, ok := r.seen[r.rcvLatest-1-uint16(i)]; ok {
			bits |= 1 << i
		}
	}
	return bits
}

// deliver reports whether it would wake readers.
func (r *mapReceiver) deliver(h Header, payload []byte) bool {
	if seqLT(h.Seq, r.rcvNxt) {
		return false
	}
	if _, dup := r.oo[h.Seq]; dup {
		return false
	}
	r.oo[h.Seq] = ooSlot{payload: payload, fin: h.Fin}
	for {
		slot, ok := r.oo[r.rcvNxt]
		if !ok {
			break
		}
		delete(r.oo, r.rcvNxt)
		r.rcvNxt++
		if slot.fin {
			r.rcvFin = true
		} else {
			r.rdy = append(r.rdy, slot.payload)
		}
	}
	return true
}

// arrivals decodes a fuzz input into the sequences a receiver sees, three
// bytes an arrival: a mode byte and a 16-bit operand. Mode bit 0 picks an
// absolute sequence — a far jump, a wrap, a restarted peer's fresh
// numbering — over a step of int8(operand) from the previous arrival
// (duplicates, small reorderings, gaps); bit 1 makes the arrival a fin.
func arrivals(data []byte) (seqs []uint16, fins []bool) {
	var cur uint16
	for len(data) >= 3 && len(seqs) < 1024 {
		mode, v := data[0], uint16(data[1])<<8|uint16(data[2])
		data = data[3:]
		if mode&1 != 0 {
			cur = v
		} else {
			cur += uint16(int8(v))
		}
		seqs = append(seqs, cur)
		fins = append(fins, mode&2 != 0)
	}
	return seqs, fins
}

// parked waits on a queue forever, so that a test can tell a wake-up by
// the queue emptying.
type parked struct{ q *sim.WaitQueue }

func (f *parked) Step(p *sim.Proc) { f.q.Wait(p) }

// FuzzRUDPReceiver drives arbitrary arrival sequences through a Conn's
// receive side, as the pump does (record the arrival, then deliver it),
// and through mapReceiver, and requires the same ack state, the same
// delivered messages in the same order, the same held count, the same
// end of stream and the same reader wake-ups after every arrival. start
// rewinds both to a stream whose receiver has delivered everything before
// it, so that the wrap at 65535 is reachable without 65,000 arrivals.
func FuzzRUDPReceiver(f *testing.F) {
	in := func(steps ...[3]byte) []byte {
		var b []byte
		for _, s := range steps {
			b = append(b, s[:]...)
		}
		return b
	}
	step := func(d int8) [3]byte { return [3]byte{0, 0, byte(d)} }
	abs := func(seq uint16, fin bool) [3]byte {
		m := byte(1)
		if fin {
			m |= 2
		}
		return [3]byte{m, byte(seq >> 8), byte(seq)}
	}
	f.Add(uint16(0), in(abs(0, false), step(1), step(1), step(2), step(-1), step(0), step(0)))
	f.Add(uint16(0xFFFE), in(abs(1, false), abs(0xFFFF, false), abs(0, false), abs(0xFFFE, false)))
	f.Add(uint16(0xFFF0), in(abs(0xFFF2, false), abs(0xFFF0, false), step(1), step(14), step(3), step(-2), abs(3, true)))
	f.Add(uint16(0), in(abs(0, false), abs(64, false), abs(1, false), abs(200, false), abs(63, false), abs(129, false)))
	f.Add(uint16(5000), in(abs(5000, false), step(1), abs(0, false), step(1), abs(40000, false), abs(5002, true), abs(5003, false)))
	f.Add(uint16(0), in(abs(3, true), abs(1, false), abs(2, false), abs(0, false), abs(4, false), abs(33, false), abs(34, false)))
	f.Add(uint16(100), in(abs(132, false), abs(101, false), abs(100, false), abs(0x8064, false), abs(0x8065, false), step(-1)))
	f.Fuzz(func(t *testing.T, start uint16, data []byte) {
		c := testConn(t)
		env := c.e.K.Env
		env.Spawn("reader", &parked{q: &c.rcvWq})
		env.Run()
		ref := newMapReceiver()
		c.rcvNxt, ref.rcvNxt = start, start
		seqs, fins := arrivals(data)
		checked := 0 // deliveries compared so far
		for i, seq := range seqs {
			h := Header{Seq: seq, Data: !fins[i], Fin: fins[i]}
			payload := []byte{byte(i), byte(i >> 8)}
			if fins[i] {
				payload = nil
			}
			c.recordArrival(seq)
			ref.recordArrival(seq)
			c.deliver(h, payload)
			woke := c.rcvWq.Len() == 0
			if refWoke := ref.deliver(h, payload); woke != refWoke {
				t.Fatalf("arrival %d (seq %d): woke readers %v, reference %v", i, seq, woke, refWoke)
			}
			env.Run()
			if c.rcvAny != ref.rcvAny || c.rcvLatest != ref.rcvLatest || c.ackBits() != ref.ackBits() {
				t.Fatalf("arrival %d (seq %d): latest %d/%v bits %#x, reference %d/%v bits %#x",
					i, seq, c.rcvLatest, c.rcvAny, c.ackBits(), ref.rcvLatest, ref.rcvAny, ref.ackBits())
			}
			if c.rcvNxt != ref.rcvNxt || c.rcvFin != ref.rcvFin || len(c.oo) != len(ref.oo) {
				t.Fatalf("arrival %d (seq %d): next %d fin %v holding %d, reference next %d fin %v holding %d",
					i, seq, c.rcvNxt, c.rcvFin, len(c.oo), ref.rcvNxt, ref.rcvFin, len(ref.oo))
			}
			if len(c.rdy) != len(ref.rdy) {
				t.Fatalf("arrival %d (seq %d): %d delivered, reference %d", i, seq, len(c.rdy), len(ref.rdy))
			}
			for ; checked < len(c.rdy); checked++ {
				if !bytes.Equal(c.rdy[checked], ref.rdy[checked]) {
					t.Fatalf("arrival %d (seq %d): delivery %d is %x, reference %x",
						i, seq, checked, c.rdy[checked], ref.rdy[checked])
				}
			}
		}
	})
}
