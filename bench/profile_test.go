package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"strings"
	"testing"
)

// profEnc builds a pprof protobuf by hand, so the reader is tested
// against the wire format and not against its own encoder.
type profEnc struct {
	buf  bytes.Buffer
	strs []string
}

func appendVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func field(b []byte, num int, v uint64) []byte {
	return appendVarint(appendVarint(b, uint64(num)<<3), v)
}

func bytesField(b []byte, num int, data []byte) []byte {
	b = appendVarint(appendVarint(b, uint64(num)<<3|2), uint64(len(data)))
	return append(b, data...)
}

func (e *profEnc) str(s string) uint64 {
	if len(e.strs) == 0 {
		e.strs = []string{""}
	}
	for i, t := range e.strs {
		if t == s {
			return uint64(i)
		}
	}
	e.strs = append(e.strs, s)
	return uint64(len(e.strs) - 1)
}

// function and location ids are 1-based; location i holds the given
// functions innermost first (more than one models inlining).
func (e *profEnc) function(id uint64, name, file string) {
	var m []byte
	m = field(m, 1, id)
	m = field(m, 2, e.str(name))
	m = field(m, 4, e.str(file))
	e.buf.Write(bytesField(nil, 5, m))
}

func (e *profEnc) location(id uint64, fns ...uint64) {
	var m []byte
	m = field(m, 1, id)
	for _, fn := range fns {
		m = bytesField(m, 4, field(field(nil, 1, fn), 2, 42))
	}
	e.buf.Write(bytesField(nil, 4, m))
}

// sample writes one stack (leaf first) with the given count, packed.
func (e *profEnc) sample(count uint64, locs ...uint64) {
	var packed []byte
	for _, l := range locs {
		packed = appendVarint(packed, l)
	}
	m := bytesField(nil, 1, packed)
	m = bytesField(m, 2, appendVarint(appendVarint(nil, count), count*10_000_000))
	e.buf.Write(bytesField(nil, 2, m))
}

func (e *profEnc) gz(t *testing.T) []byte {
	t.Helper()
	for _, s := range e.strs {
		e.buf.Write(bytesField(nil, 6, []byte(s)))
	}
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(e.buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

func TestProfileReaderAndBuckets(t *testing.T) {
	var e profEnc
	fns := []struct{ name, file string }{
		1:  {"repro/internal/sim.(*eventHeap).pop", "/src/internal/sim/env.go"},
		2:  {"repro/internal/sim.(*Env).Step", "/src/internal/sim/env.go"},
		3:  {"repro/internal/sim.(*Proc).step", "/src/internal/sim/proc.go"},
		4:  {"repro/internal/atm.crc10", "/src/internal/atm/aal34.go"},
		5:  {"repro/internal/atm.(*Reassembler).Push", "/src/internal/atm/aal34.go"},
		6:  {"repro/internal/atm.(*RED).Enqueue", "/src/internal/atm/qdisc.go"},
		7:  {"repro/internal/atm.(*Adapter).PushTx", "/src/internal/atm/adapter.go"},
		8:  {"repro/internal/lab.(*Cluster).Run", "/src/internal/lab/cluster.go"},
		9:  {"repro/internal/lab.NewTopology", "/src/internal/lab/lab.go"},
		10: {"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
		11: {"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"},
		12: {"runtime.memclrNoHeapPointers", "/go/src/runtime/memclr_amd64.s"},
		13: {"runtime.mallocgc", "/go/src/runtime/malloc.go"},
		14: {"runtime.memmove", "/go/src/runtime/memmove_amd64.s"},
		15: {"crypto/sha256.block", "/go/src/crypto/sha256/sha256block_amd64.s"},
		16: {"repro/internal/newlayer.Work", "/src/internal/newlayer/x.go"},
		17: {"main.main", "/src/bench/main.go"},
	}
	for id := 1; id < len(fns); id++ {
		e.function(uint64(id), fns[id].name, fns[id].file)
		e.location(uint64(id), uint64(id))
	}
	// Location 100: crc10 inlined into Reassembler.Push — the leaf is crc10.
	e.location(100, 4, 5)

	e.sample(10, 1, 2, 17)   // sim heap
	e.sample(5, 2, 17)       // sim, no finer bucket
	e.sample(5, 3, 2, 17)    // sim proc
	e.sample(10, 100, 7, 17) // atm crc (inlined leaf)
	e.sample(5, 5, 7, 17)    // atm aal34
	e.sample(5, 6, 17)       // atm switch (qdisc)
	e.sample(5, 7, 17)       // atm adapter
	e.sample(10, 8, 17)      // lab cluster
	e.sample(5, 9, 17)       // lab, no finer bucket
	e.sample(10, 10, 11)     // runtime under the GC worker
	e.sample(5, 12, 13, 9)   // runtime under mallocgc
	e.sample(5, 14, 7, 17)   // runtime, neither
	e.sample(10, 15, 17)     // another package
	e.sample(10, 16, 17)     // an internal package nobody declared
	e.sample(0, 17)          // zero-count samples are ignored

	samples, err := parseProfile(e.gz(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 15 {
		t.Fatalf("parsed %d samples, want 15", len(samples))
	}
	if got := samples[3].stack[0]; got.fn != "repro/internal/atm.crc10" || got.file != "/src/internal/atm/aal34.go" {
		t.Errorf("inlined leaf resolved to %+v, want crc10", got)
	}
	shares := bucketShares(samples)
	want := map[string]float64{
		"sim.self_share": 0.20, "sim.heap_share": 0.10, "sim.proc_share": 0.05,
		"atm.self_share": 0.25, "atm.crc_share": 0.10, "atm.aal34_share": 0.05,
		"atm.switch_share": 0.05, "atm.adapter_share": 0.05,
		"lab.self_share": 0.15, "lab.cluster_share": 0.10,
		"runtime.gc_share": 0.10, "runtime.malloc_share": 0.05, "runtime.other_share": 0.05,
		"other.share": 0.10, "newlayer.self_share": 0.10,
	}
	for k, w := range want {
		if math.Abs(shares[k]-w) > 1e-9 {
			t.Errorf("%s = %.4f, want %.4f", k, shares[k], w)
		}
	}
	for k := range shares {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected bucket %s = %.4f", k, shares[k])
		}
	}
	if sum := topLevelSum(shares); math.Abs(sum-1) > 0.001 {
		t.Errorf("top-level shares sum to %.4f, want 1", sum)
	}
}

// topLevelSum adds the buckets that partition the samples: every
// package's self share, the runtime split and other — not the finer
// buckets, which repeat part of their layer's share.
func topLevelSum(m map[string]float64) float64 {
	var sum float64
	for k, v := range m {
		if strings.HasSuffix(k, ".self_share") || k == "other.share" ||
			strings.HasPrefix(k, "runtime.") && strings.HasSuffix(k, "_share") {
			sum += v
		}
	}
	return sum
}

func TestProfileReaderRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{
		{0x1f, 0x8b, 0x00},             // truncated gzip
		{0x12, 0x05, 0x0a},             // sample field longer than the input
		{0x12, 0x02, 0x0a, 0x05, 0x01}, // packed ids longer than the sample
		{0x0f},                         // wire type 7 does not exist
	} {
		if _, err := parseProfile(raw); err == nil {
			t.Errorf("parseProfile(% x) accepted malformed input", raw)
		}
	}
}
