package sim

import (
	"strings"
	"testing"
)

// TestArenaDrainsToZero pins the loop's side of the checkout rule: what
// is checked out is counted, comes back to be handed out again, and
// Env.Reset refuses to rewind — naming the count — while any is still
// out. Queue storage (Get/Put) is not counted.
func TestArenaDrainsToZero(t *testing.T) {
	e := NewEnv()
	a := e.Arena()
	b1 := a.Checkout(300)
	b2 := a.Checkout(9000)
	q := a.Get(512)
	if cap(b1) < 300 || cap(b2) < 9000 || cap(q) < 512 || len(b1)+len(b2)+len(q) != 0 {
		t.Fatalf("buffers of cap %d, %d, %d, len %d, %d, %d", cap(b1), cap(b2), cap(q), len(b1), len(b2), len(q))
	}
	if a.Outstanding() != 2 {
		t.Fatalf("Outstanding = %d, want 2 (Get is not a checkout)", a.Outstanding())
	}
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "2 scratch buffers checked out") {
				t.Fatalf("Reset with two checkouts outstanding: panic %q, want the count", msg)
			}
		}()
		e.Reset()
	}()
	a.Return(b1)
	a.Return(b2)
	e.Reset() // queue storage alone does not stop a rewind
	a.Put(q)

	// The same few buffers go round: a warm arena allocates nothing.
	if n := testing.AllocsPerRun(100, func() {
		b := a.Checkout(300)
		a.Return(append(b, 1, 2, 3))
	}); n != 0 {
		t.Fatalf("warm checkout allocates %.0f times", n)
	}
	if &a.Checkout(9000)[:1][0] != &b2[:1][0] {
		t.Fatal("a returned buffer was not the next one handed out for its size")
	}
}

// TestReleasedScratchIsPoisoned pins the tripwire the golden tests run
// under: with Poison set a buffer is overwritten the moment it comes
// back, so a reader that kept it cannot be right by accident.
func TestReleasedScratchIsPoisoned(t *testing.T) {
	var a Arena
	a.Poison = true
	b := append(a.Checkout(100), "datagram"...)
	kept := b
	a.Return(b)
	for i, v := range kept[:cap(kept)] {
		if v != 0xDB {
			t.Fatalf("byte %d of a returned buffer reads %#x, want 0xDB", i, v)
		}
	}
	// Oversized and foreign buffers are dropped, not pooled.
	a.Put(make([]byte, 100))
	a.Put(a.Get(1 << 20))
	for c := range a.free {
		for _, f := range a.free[c] {
			if cap(f) != minBuf<<c {
				t.Fatalf("class %d pooled a buffer of cap %d", c, cap(f))
			}
		}
	}
}

// TestLocalIsOnePerLoop: each loop gets its own *T, the same one every
// time, and distinct types do not collide.
func TestLocalIsOnePerLoop(t *testing.T) {
	type listA struct{ n int }
	type listB struct{ n int }
	e1, e2 := NewEnv(), NewEnv()
	a := Local[listA](e1)
	a.n = 7
	if Local[listA](e1) != a || Local[listA](e1).n != 7 {
		t.Fatal("second Local on one loop returned a different value")
	}
	if Local[listA](e2) == a {
		t.Fatal("two loops share one local")
	}
	if Local[listB](e1).n != 0 {
		t.Fatal("a second type found the first type's value")
	}
}
