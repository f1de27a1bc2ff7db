package atm

import (
	"testing"

	"repro/internal/sim"
)

// rxRef is the reference the receive table is checked against: for each
// key present, the mark its entry was added with and the pointer the
// table handed out for it.
type rxRef struct {
	mark map[uint16]int
	ptr  map[uint16]*rxVC
}

func (r rxRef) add(k uint16, mark int, p *rxVC) { r.mark[k], r.ptr[k] = mark, p }
func (r rxRef) del(k uint16)                    { delete(r.mark, k); delete(r.ptr, k) }

// VC table operations, one per two script bytes: an op, then a key. Keys
// are taken modulo vcKeys, so adds, deletes and lookups collide often.
const (
	vcRxAdd  = iota // add the key to rxTable, unless present
	vcRxDel         // delete it
	vcRxGet         // look it up
	vcRxEach        // walk the table, deleting entries whose mark has the key's parity
	vcOps

	vcKeys = 40
)

// rxMark reads the mark an entry was added with.
func rxMark(vc *rxVC) int { return int(vc.start) }

// runVCTables drives the receive table and its reference through script.
// After every operation it checks the table's length, and that every
// pointer handed out for a key still present still points at that key's
// entry, holding the mark it was added with: an entry stays where it is,
// whatever is added after it, until its own delete.
func runVCTables(t *testing.T, script []byte) {
	var rx rxTable
	ref := rxRef{mark: map[uint16]int{}, ptr: map[uint16]*rxVC{}}
	for step := 0; step+1 < len(script); step += 2 {
		op, k := int(script[step])%vcOps, uint16(script[step+1])%vcKeys
		vci := DefaultVCI + k
		mark := int(uint16(step + 1))
		switch op {
		case vcRxAdd:
			if _, ok := ref.mark[k]; !ok {
				ref.add(k, mark, rx.add(rxVC{vci: vci, start: sim.Time(mark)}))
			}
		case vcRxDel:
			rx.del(vci)
			ref.del(k)
		case vcRxGet:
			if got, want := rx.get(vci), ref.ptr[k]; got != want {
				t.Fatalf("step %d: rx.get(%d) = %p, the table handed out %p", step, vci, got, want)
			}
		case vcRxEach:
			want, seen := len(ref.mark), 0
			rx.each(func(vc *rxVC) {
				seen++
				kk := vc.vci - DefaultVCI
				if ref.ptr[kk] != vc || ref.mark[kk] != rxMark(vc) {
					t.Fatalf("step %d: rx.each visits VCI %d at %p with mark %d; the reference has %p, mark %d",
						step, vc.vci, vc, rxMark(vc), ref.ptr[kk], ref.mark[kk])
				}
				if rxMark(vc)%2 == int(k)%2 {
					rx.del(vc.vci)
					ref.del(kk)
				}
			})
			if seen != want {
				t.Fatalf("step %d: rx.each visited %d of %d entries", step, seen, want)
			}
		}
		if rx.len() != len(ref.mark) {
			t.Fatalf("step %d: the table holds %d entries, the reference %d", step, rx.len(), len(ref.mark))
		}
		for kk, p := range ref.ptr {
			if p.vci != DefaultVCI+kk || rxMark(p) != ref.mark[kk] {
				t.Fatalf("step %d: rx entry %d moved or was overwritten: VCI %d, mark %d, want %d and %d",
					step, kk, p.vci, rxMark(p), DefaultVCI+kk, ref.mark[kk])
			}
		}
	}
}

// FuzzVCTables holds rxTable to a plain map through arbitrary adds,
// lookups, deletes and walks — including deletes from inside each — and
// checks that a pointer the table hands out keeps its entry through every
// later add, spill and slab chunk, until that entry's own delete: the
// driver holds the previous cell's receive channel (lastRx).
func FuzzVCTables(f *testing.F) {
	// The table past its inline slot and through four slab chunks; then a
	// walk thins it out, a delete, a refill into the freed slots, and a
	// lookup of every key.
	var fill, gets []byte
	for k := byte(0); k < vcKeys; k++ {
		fill = append(fill, vcRxAdd, k)
		gets = append(gets, vcRxGet, k)
	}
	churn := append(append([]byte(nil), fill...), vcRxEach, 1, vcRxDel, 4)
	churn = append(append(churn, fill...), gets...)
	f.Add(fill)
	f.Add(churn)
	f.Add(randomRoutes(31, 400))
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 2*2000 {
			script = script[:2*2000]
		}
		runVCTables(t, script)
	})
}
