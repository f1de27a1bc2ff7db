//go:build explore

package core

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cost"
	"repro/internal/sim"
)

// TestExplore is the long half of the §4.2.1 study, the flips of more
// than one bit, each run as a case of the study's echo; `make explore`
// runs it and prints the counts, which the tier-1 suite does not.
//   - Bursts: every run of 2 to 16 consecutive bits, all flipped, that
//     starts at a bit of the SAR-PDU of the request's cell 16 and ends
//     inside it, under either checksum mode.
//   - Same-offset pairs: the same bit of two 16-bit words of the TCP
//     segment, for every two words and every bit — the pairs the
//     ones'-complement sum misses when the two bits differ — with the
//     checksum on.
//   - Other pairs, a stated subset: each bit of the segment with the next
//     bit, and with the bit 17 on (the next word, one place on), with the
//     checksum on.
func TestExplore(t *testing.T) {
	const pdu = 16*424 + 40 // the first payload bit of the request's cell 16
	type burst struct{ start, n int }
	var bursts []burst
	for n := 2; n <= 16; n++ {
		for s := 0; s+n <= 384; s++ {
			bursts = append(bursts, burst{s, n})
		}
	}
	var res ErrorStudyResult
	// run sweeps the cases in one share a CPU, and adds the shares up in
	// case order.
	run := func(region string, mode cost.ChecksumMode, n int, flips func(i int) sim.FaultSchedule) {
		shares := runtime.GOMAXPROCS(0)
		rows, failed := make([]ErrorStudyRow, shares), make([][]string, shares)
		var wg sync.WaitGroup
		for w := range rows {
			w, lo, hi := w, n*w/shares, n*(w+1)/shares
			wg.Add(1)
			go func() {
				defer wg.Done()
				rows[w], failed[w] = sweep(mode, hi-lo, func(i int) sim.FaultSchedule { return flips(lo + i) })
			}()
		}
		wg.Wait()
		total := ErrorStudyRow{Region: region, Mode: mode, Flips: n}
		for w, row := range rows {
			for o, v := range row.cols() {
				*total.cols()[o] += *v
			}
			res.Failed = append(res.Failed, failed[w]...)
		}
		res.Rows = append(res.Rows, total)
	}
	for _, mode := range []cost.ChecksumMode{cost.ChecksumStandard, cost.ChecksumNone} {
		r, err := locateRequest(mode)
		if err != nil {
			t.Fatal(err)
		}
		run("burst 2-16", mode, len(bursts), func(i int) sim.FaultSchedule {
			b := bursts[i]
			bits := make([]int, b.n)
			for j := range bits {
				bits[j] = pdu + b.start + j
			}
			return r.flip(sim.FaultWireFlip, bits...)
		})
		if mode != cost.ChecksumStandard {
			continue
		}
		// Same-offset pairs, numbered bit-major, then by first word, then
		// by second: first[w] is the number of pairs whose first word is
		// below w.
		words := (r.len - 20) / 2
		first := make([]int, words+1)
		for w := 0; w < words; w++ {
			first[w+1] = first[w] + words - 1 - w
		}
		pairs := first[words]
		run("pair, same", mode, 16*pairs, func(i int) sim.FaultSchedule {
			bit, p := i/pairs, i%pairs
			w1 := sort.Search(words, func(w int) bool { return first[w+1] > p })
			w2 := w1 + 1 + p - first[w1]
			return r.flip(sim.FaultControllerFlip, 160+16*w1+bit, 160+16*w2+bit)
		})
		segBits := (r.len - 20) * 8
		run("pair, other", mode, 2*segBits, func(i int) sim.FaultSchedule {
			b, d := 160+i/2, 1+16*(i%2)
			if b+d >= 160+segBits {
				d -= segBits // wrap to the segment's start
			}
			return r.flip(sim.FaultControllerFlip, b, b+d)
		})
	}
	var b strings.Builder
	writeErrorRows(&b, res.Rows)
	t.Logf("§4.2.1, the long half: multi-bit flips of a 1400-byte echo request\n%s", b.String())
	for i, f := range res.Failed {
		if i == 20 {
			t.Logf("... and %d more cases that ended in an error", len(res.Failed)-20)
			break
		}
		t.Logf("error: %s", f)
	}
}
