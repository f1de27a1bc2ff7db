package atm

import (
	"bytes"
	"testing"

	"repro/internal/cost"
	"repro/internal/ip"
	"repro/internal/kern"
	"repro/internal/sim"
)

// recrc recomputes a cell's CRC-10 after a test has edited its payload,
// so the edit reaches the checks behind the CRC.
func recrc(c *Cell) {
	p := c.Payload()
	p[46] &^= 0x3
	p[47] = 0
	crc := crc10PDU((*[PayloadSize]byte)(p))
	p[46] |= byte(crc >> 8)
	p[47] = byte(crc)
}

// TestAbortedFramesReturnTheirBuffer walks every way a reassembly can end
// without its datagram being delivered — the one place the arena can
// leak — and requires the frame's buffer to be back in the arena when it
// has: nothing outstanding, and the next frame reassembles into the same
// memory.
func TestAbortedFramesReturnTheirBuffer(t *testing.T) {
	data := make([]byte, 300) // seven cells
	for i := range data {
		data[i] = byte(i)
	}
	frame := func(s *Segmenter) []Cell { return s.Segment(data) }
	// after returns a segmenter whose next cell carries sequence number n.
	after := func(n int) *Segmenter {
		s := &Segmenter{VCI: 40}
		for i := 0; i < n; i++ {
			s.Segment(nil) // one cell each
		}
		return s
	}

	cases := []struct {
		name string
		// feed pushes cells and returns how many errors Push must have
		// reported by the end.
		feed func(t *testing.T, r *Reassembler, push func(c *Cell)) (wantErrs int)
	}{
		{"sequence gap", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			push(&c[0])
			push(&c[1])
			push(&c[3])
			return 1
		}},
		{"CRC-10 failure", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			push(&c[0])
			c[1].Payload()[10] ^= 0x40
			push(&c[1])
			return 1
		}},
		{"bad length indicator", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			push(&c[0])
			c[1].Payload()[46] = 45 << 2
			recrc(&c[1])
			push(&c[1])
			return 1
		}},
		{"BOM over an open frame", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			a, b := frame(after(0)), frame(after(2))
			push(&a[0])
			push(&a[1])
			for i := range b { // its first cell continues the sequence
				push(&b[i])
			}
			if r.Errors != 1 {
				t.Errorf("Errors = %d, want 1 for the frame that never finished", r.Errors)
			}
			r.arena.Return(r.Detach()) // b was delivered: hand its buffer back
			return 0
		}},
		{"Btag/Etag mismatch", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			last := &c[len(c)-1]
			li := int(last.Payload()[46] >> 2)
			last.Payload()[2+li-3] ^= 0xff // the Etag
			recrc(last)
			for i := range c {
				push(&c[i])
			}
			return 1
		}},
		{"BASize larger than the frame", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			c[0].Payload()[4] = 0x10 // claims 4 KiB more
			recrc(&c[0])
			for i := range c {
				push(&c[i])
			}
			return 1
		}},
		{"BASize smaller than the frame", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			c[0].Payload()[4], c[0].Payload()[5] = 0, 0 // the buffer must grow under it
			recrc(&c[0])
			for i := range c {
				push(&c[i])
			}
			return 1
		}},
		{"length exceeds PDU", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			last := &c[len(c)-1]
			li := int(last.Payload()[46] >> 2)
			last.Payload()[2+li-2] = 0x7f // the Length field's high byte
			recrc(last)
			for i := range c {
				push(&c[i])
			}
			return 1
		}},
		{"Reset mid-frame", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			push(&c[0])
			push(&c[1])
			r.Reset()
			return 0
		}},
		{"delivered, never detached, then Reset", func(t *testing.T, r *Reassembler, push func(*Cell)) int {
			c := frame(after(0))
			for i := range c {
				push(&c[i])
			}
			r.Reset()
			return 0
		}},
	}
	for _, tc := range cases {
		var a sim.Arena
		a.Poison = true
		r := Reassembler{arena: &a}
		errs := 0
		push := func(c *Cell) {
			if _, err := r.Push(c); err != nil {
				errs++
			}
		}
		want := tc.feed(t, &r, push)
		if errs != want {
			t.Errorf("%s: %d cells rejected, want %d", tc.name, errs, want)
		}
		if n := a.Outstanding(); n != 0 {
			t.Errorf("%s: %d buffers still checked out", tc.name, n)
		}
		// The channel still works, out of the memory the abort gave back.
		s := after(int(r.sn+1) & 0xf)
		if !r.haveSN {
			s = after(0)
		}
		var got []byte
		for _, c := range frame(s) {
			c := c
			dg, err := r.Push(&c)
			if err != nil {
				t.Fatalf("%s: frame after the abort: %v", tc.name, err)
			}
			got = dg
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: frame after the abort reassembled wrong", tc.name)
		}
		r.Reset()
		if n := a.Outstanding(); n != 0 {
			t.Errorf("%s: %d buffers checked out after the closing Reset", tc.name, n)
		}
	}
}

// TestDriverReleasesReassemblyOnResetAndDrop covers the two driver-level
// exits: Reset with a frame open (what Lab.Reset relies on, before the
// environment checks its arena) and DropRx, which refuses an open channel
// and reclaims an idle one holding nothing.
func TestDriverReleasesReassemblyOnResetAndDrop(t *testing.T) {
	env := sim.NewEnv()
	d := &Driver{Link: ip.Link{K: kern.New(env, cost.DECstation5000(), "d")}}
	seg := Segmenter{VCI: 40}
	c := seg.Segment(make([]byte, 300))
	for _, vci := range []uint16{40, 41, 42} {
		if _, err := d.rxFor(vci).reasm.Push(&c[0]); err != nil {
			t.Fatal(err)
		}
	}
	if d.Reassembling() != 3 || env.Arena().Outstanding() != 3 {
		t.Fatalf("%d channels open, %d buffers out; want 3 and 3", d.Reassembling(), env.Arena().Outstanding())
	}
	if d.DropRx(41) {
		t.Fatal("DropRx reclaimed a channel mid-frame")
	}
	d.Reset()
	if d.Reassembling() != 0 || env.Arena().Outstanding() != 0 {
		t.Fatalf("after Reset: %d channels open, %d buffers out", d.Reassembling(), env.Arena().Outstanding())
	}
	if !d.DropRx(41) || d.NumReassemblers() != 2 {
		t.Fatalf("DropRx of an idle channel left %d contexts, want 2", d.NumReassemblers())
	}
	env.Reset() // refuses with anything outstanding
}
