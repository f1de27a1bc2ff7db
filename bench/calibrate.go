package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The shared machine this benchmark runs on changes speed by 10-40 % for
// minutes at a time, in wall-clock and in CPU time alike (the hypervisor
// takes the cores away, or a neighbour shares them). No estimator over
// the passes of one run removes that: the whole run is slow. So a
// calibration kernel — a fixed piece of work that belongs to the harness
// and that no change to the simulator can make faster — runs between
// the passes, and each pass's time is reported relative to the kernel's
// time just before and just after it, scaled by refNominal so the unit
// stays seconds: "seconds on a machine that runs the kernel in
// refNominal". A simulator change moves the passes and not the kernel;
// a machine-speed change moves both and cancels.

// refNominal is what one refKernel.run takes between passes on the
// 2-core VM this was built on while its neighbours are quiet (0.044 to
// 0.045 s; alone in a process it takes 0.040), so that there the
// reported seconds are the seconds that passed. It only fixes the scale;
// changing it rescales every timing of every workload alike.
const refNominal = 0.0445

// refKernel is the calibration work: four parts of about 10 ms each
// that load the machine in the four ways the simulator's hot paths do.
// Replace-min on a binary heap of pseudo-random keys (branchy, like the
// event heap); a pointer chase through one 1 MB random cycle (cache
// latency, like mbuf chains and PCB tables); a byte-wise folding sum
// (one dependent chain, like the CRC loops); four independent byte sums
// (as much arithmetic a cycle as the core allows, like the unrolled
// checksum). Which parts, and that the table is 1 MB and not 8, was
// chosen by timing seven candidates beside 600 passes of three workloads
// while the machine was noisy (README "Repeatability"). It reads nothing of
// --seed: every call does exactly the same work. Its memory is mapped
// outside the Go heap, so it changes neither the collector's pacing
// during the passes nor live_heap_mb.
type refKernel struct {
	heap []uint64
	next []uint32
	buf  []byte
	sink uint64 // keeps the compiler from dropping the loops
}

// sharedRefKernel maps and fills the kernel's memory once a process.
var sharedRefKernel = sync.OnceValues(newRefKernel)

func newRefKernel() (*refKernel, error) {
	const nHeap, nNext, nBuf = 1 << 12, 1 << 18, 1 << 16
	mem, err := syscall.Mmap(-1, 0, 8*nHeap+4*nNext+nBuf, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &refKernel{
		heap: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), nHeap),
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[8*nHeap])), nNext),
		buf:  mem[8*nHeap+4*nNext:],
	}
	x := uint64(0x9E3779B97F4A7C15)
	rnd := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := range k.next {
		k.next[i] = uint32(i)
	}
	for i := len(k.next) - 1; i > 0; i-- { // Sattolo: one cycle through every slot
		j := int(rnd() % uint64(i))
		k.next[i], k.next[j] = k.next[j], k.next[i]
	}
	for i := range k.buf {
		k.buf[i] = byte(rnd())
	}
	return k, nil
}

func (k *refKernel) run() {
	// Heap: restart from the same sorted keys, then replace the minimum
	// with a larger pseudo-random key and sift it down.
	h := k.heap
	for i := range h {
		h[i] = uint64(i) << 20
	}
	x := uint64(0x2545F4914F6CDD1D)
	for n := 0; n < 190_000; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := h[0] + x>>44
		i := 0
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if h[c] >= key {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = key
	}
	// Pointer chase.
	p := uint32(0)
	for n := 0; n < 1_500_000; n++ {
		p = k.next[p]
	}
	// Folding sum, a dependent chain over every byte.
	var s uint64
	for n := 0; n < 230; n++ {
		for _, b := range k.buf {
			s = s<<1 ^ s>>63 ^ uint64(b)
		}
	}
	// Four independent sums, as many operations a cycle as the core gives.
	var a, b, c, d uint64
	for n := 0; n < 450; n++ {
		for i := 0; i+4 <= len(k.buf); i += 4 {
			a += uint64(k.buf[i])
			b += uint64(k.buf[i+1]) << 1
			c ^= uint64(k.buf[i+2])
			d += uint64(k.buf[i+3]) * 3
		}
	}
	k.sink += h[0] + uint64(p) + s + a + b + c + d
}

// refCost is one calibration: the kernel's wall and CPU seconds.
type refCost struct{ wall, cpu float64 }

// calibrate times the kernel three times, by wall-clock and by CPU
// clock, returns the medians and adds the readings to the report. What
// the pass before it left behind must not reach the readings, or a
// change to the simulator could move them: a collection first finishes
// any the pass left running, and one untimed run of the kernel brings
// its memory back into the caches.
func (k *refKernel) calibrate(r *report) refCost {
	runtime.GC()
	k.run()
	var wall, cpu [3]float64
	for i := range wall {
		cpu0 := cpuSeconds()
		start := time.Now()
		k.run()
		wall[i], cpu[i] = time.Since(start).Seconds(), cpuSeconds()-cpu0
	}
	r.RefWall, r.RefCPU = append(r.RefWall, wall[:]...), append(r.RefCPU, cpu[:]...)
	return refCost{median(wall[:]), median(cpu[:])}
}
