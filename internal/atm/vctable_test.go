package atm

import (
	"testing"

	"repro/internal/sim"
)

// vcRef is the reference the VC tables are checked against: for each key
// present, the mark its entry was added with and the pointer the table
// handed out for it.
type vcRef[V any] struct {
	mark map[uint16]int
	ptr  map[uint16]*V
}

func newVCRef[V any]() vcRef[V] {
	return vcRef[V]{mark: map[uint16]int{}, ptr: map[uint16]*V{}}
}

func (r vcRef[V]) add(k uint16, mark int, p *V) { r.mark[k], r.ptr[k] = mark, p }
func (r vcRef[V]) del(k uint16)                 { delete(r.mark, k); delete(r.ptr, k) }

// VC table operations, one per two script bytes: an op, then a key. Keys
// are taken modulo vcKeys, so adds, deletes and lookups collide often.
const (
	vcTxAdd  = iota // add the key to txTable, unless present
	vcTxDel         // delete it
	vcTxGet         // look it up
	vcTxEach        // walk the table, deleting entries whose mark has the key's parity
	vcRxAdd
	vcRxDel
	vcRxGet
	vcRxEach
	vcOps

	vcKeys = 40
)

// txMark and rxMark read the mark an entry was added with.
func txMark(vc *txVC) int { return int(vc.seg.MID) }
func rxMark(vc *rxVC) int { return int(vc.start) }

// runVCTables drives both tables and their references through script.
// After every operation it checks each table's length, and that every
// pointer handed out for a key still present still points at that key's
// entry, holding the mark it was added with: an entry stays where it is,
// whatever is added after it, until its own delete.
func runVCTables(t *testing.T, script []byte) {
	var tx txTable
	var rx rxTable
	txRef, rxRef := newVCRef[txVC](), newVCRef[rxVC]()
	for step := 0; step+1 < len(script); step += 2 {
		op, k := int(script[step])%vcOps, uint16(script[step+1])%vcKeys
		dst, vci := uint32(k), DefaultVCI+k
		mark := int(uint16(step + 1)) // a segmenter's MID holds a tx mark
		switch op {
		case vcTxAdd:
			if _, ok := txRef.mark[k]; !ok {
				txRef.add(k, mark, tx.add(dst, txVC{seg: Segmenter{VCI: vci, MID: uint16(mark)}}))
			}
		case vcTxDel:
			tx.del(dst)
			txRef.del(k)
		case vcTxGet:
			if got, want := tx.get(dst), txRef.ptr[k]; got != want {
				t.Fatalf("step %d: tx.get(%d) = %p, the table handed out %p", step, dst, got, want)
			}
		case vcTxEach:
			want, seen := len(txRef.mark), 0
			tx.each(func(d uint32, vc *txVC) {
				seen++
				kk := uint16(d)
				if txRef.ptr[kk] != vc || txRef.mark[kk] != txMark(vc) {
					t.Fatalf("step %d: tx.each visits %d at %p with mark %d; the reference has %p, mark %d",
						step, d, vc, txMark(vc), txRef.ptr[kk], txRef.mark[kk])
				}
				if txMark(vc)%2 == int(k)%2 {
					tx.del(d)
					txRef.del(kk)
				}
			})
			if seen != want {
				t.Fatalf("step %d: tx.each visited %d of %d entries", step, seen, want)
			}
		case vcRxAdd:
			if _, ok := rxRef.mark[k]; !ok {
				rxRef.add(k, mark, rx.add(rxVC{vci: vci, start: sim.Time(mark)}))
			}
		case vcRxDel:
			rx.del(vci)
			rxRef.del(k)
		case vcRxGet:
			if got, want := rx.get(vci), rxRef.ptr[k]; got != want {
				t.Fatalf("step %d: rx.get(%d) = %p, the table handed out %p", step, vci, got, want)
			}
		case vcRxEach:
			want, seen := len(rxRef.mark), 0
			rx.each(func(vc *rxVC) {
				seen++
				kk := vc.vci - DefaultVCI
				if rxRef.ptr[kk] != vc || rxRef.mark[kk] != rxMark(vc) {
					t.Fatalf("step %d: rx.each visits VCI %d at %p with mark %d; the reference has %p, mark %d",
						step, vc.vci, vc, rxMark(vc), rxRef.ptr[kk], rxRef.mark[kk])
				}
				if rxMark(vc)%2 == int(k)%2 {
					rx.del(vc.vci)
					rxRef.del(kk)
				}
			})
			if seen != want {
				t.Fatalf("step %d: rx.each visited %d of %d entries", step, seen, want)
			}
		}
		if tx.len() != len(txRef.mark) || rx.len() != len(rxRef.mark) {
			t.Fatalf("step %d: tables hold %d tx and %d rx entries, the reference %d and %d",
				step, tx.len(), rx.len(), len(txRef.mark), len(rxRef.mark))
		}
		for kk, p := range txRef.ptr {
			if p.seg.VCI != DefaultVCI+kk || txMark(p) != txRef.mark[kk] {
				t.Fatalf("step %d: tx entry %d moved or was overwritten: VCI %d, mark %d, want %d and %d",
					step, kk, p.seg.VCI, txMark(p), DefaultVCI+kk, txRef.mark[kk])
			}
		}
		for kk, p := range rxRef.ptr {
			if p.vci != DefaultVCI+kk || rxMark(p) != rxRef.mark[kk] {
				t.Fatalf("step %d: rx entry %d moved or was overwritten: VCI %d, mark %d, want %d and %d",
					step, kk, p.vci, rxMark(p), DefaultVCI+kk, rxRef.mark[kk])
			}
		}
	}
}

// FuzzVCTables holds txTable and rxTable to plain maps through arbitrary
// adds, lookups, deletes and walks — including the deletes Driver.Reset
// makes from inside each — and checks that a pointer the tables hand out
// keeps its entry through every later add, spill and slab chunk, until
// that entry's own delete: an Output parked on a full FIFO holds its
// segmenter (outputOp.seg), and the driver the previous cell's receive
// channel (lastRx).
func FuzzVCTables(f *testing.F) {
	// Both tables past their inline slot and through four slab chunks;
	// then walks thin them out, a few deletes, a refill into the freed
	// slots, and a lookup of every key.
	var fill, gets []byte
	for k := byte(0); k < vcKeys; k++ {
		fill = append(fill, vcTxAdd, k, vcRxAdd, k)
		gets = append(gets, vcTxGet, k, vcRxGet, k)
	}
	churn := append(append([]byte(nil), fill...), vcTxEach, 0, vcRxEach, 1, vcTxDel, 3, vcRxDel, 4)
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
