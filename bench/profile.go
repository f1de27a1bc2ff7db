package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// A small reader for the pprof CPU profile format (a gzipped protobuf,
// github.com/google/pprof/proto/profile.proto), so the harness can turn
// the profile it records around a traced pass into per-layer shares
// without adding a module dependency. Only the fields the bucketing
// needs are decoded: each sample's stack and first value, each
// location's innermost function, each function's name and file.

// frame is one resolved stack entry.
type frame struct{ fn, file string }

// stackSample is one profile sample: leaf first, then its callers.
type stackSample struct {
	stack []frame
	count int64
}

// protoBuf walks protobuf wire format.
type protoBuf struct {
	b   []byte
	err error
}

func (p *protoBuf) varint() uint64 {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			p.err = io.ErrUnexpectedEOF
			return 0
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v
		}
	}
	p.err = errors.New("varint overflows 64 bits")
	return 0
}

// next returns the next field: its number, and either its varint value
// or its length-delimited bytes. Fixed-width fields are skipped over
// (the profile format uses none that matter here).
func (p *protoBuf) next() (field int, v uint64, data []byte, ok bool) {
	if p.err != nil || len(p.b) == 0 {
		return 0, 0, nil, false
	}
	key := p.varint()
	field, wire := int(key>>3), key&7
	switch wire {
	case 0:
		v = p.varint()
	case 1, 5:
		n := 8
		if wire == 5 {
			n = 4
		}
		if len(p.b) < n {
			p.err = io.ErrUnexpectedEOF
			return 0, 0, nil, false
		}
		p.b = p.b[n:]
	case 2:
		n := p.varint()
		if p.err == nil && n > uint64(len(p.b)) {
			p.err = io.ErrUnexpectedEOF
		}
		if p.err != nil {
			return 0, 0, nil, false
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		p.err = fmt.Errorf("unsupported protobuf wire type %d", wire)
	}
	return field, v, data, p.err == nil
}

// uints decodes a repeated integer field that arrived either packed
// (data) or as a single varint (v).
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{b: data}
	for len(p.b) > 0 && p.err == nil {
		dst = append(dst, p.varint())
	}
	return dst, p.err
}

// parseProfile decodes a pprof profile into resolved stacks. The count
// of each sample is its first value (samples/count for CPU profiles).
func parseProfile(raw []byte) ([]stackSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	type function struct{ name, file uint64 }
	var (
		samples   []rawSample
		locFn     = map[uint64]uint64{} // location id → innermost function id
		functions = map[uint64]function{}
		strs      []string
	)
	top := protoBuf{b: raw}
	for {
		field, _, data, ok := top.next()
		if !ok {
			break
		}
		msg := protoBuf{b: data}
		switch field {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			for {
				f, v, d, ok := msg.next()
				if !ok {
					break
				}
				var err error
				switch f {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					vals, err = uints(vals, v, d)
				}
				if err != nil {
					return nil, fmt.Errorf("profile: sample: %w", err)
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			for {
				f, v, d, ok := msg.next()
				if !ok {
					break
				}
				switch {
				case f == 1:
					id = v
				case f == 4 && !haveLine: // the first Line is the innermost (inlined) call
					haveLine = true
					line := protoBuf{b: d}
					for {
						lf, lv, _, ok := line.next()
						if !ok {
							break
						}
						if lf == 1 {
							fn = lv
						}
					}
					if line.err != nil {
						return nil, fmt.Errorf("profile: line: %w", line.err)
					}
				}
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var fn function
			for {
				f, v, _, ok := msg.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					fn.name = v
				case 4:
					fn.file = v
				}
			}
			functions[id] = fn
		case 6: // string_table
			strs = append(strs, string(data))
		}
		if msg.err != nil {
			return nil, fmt.Errorf("profile: field %d: %w", field, msg.err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{count: s.count, stack: make([]frame, len(s.locs))}
		for i, loc := range s.locs {
			fn := functions[locFn[loc]]
			st.stack[i] = frame{fn: str(fn.name), file: str(fn.file)}
		}
		out = append(out, st)
	}
	return out, nil
}

const internalPrefix = "repro/internal/"

// pkgOf splits a Go symbol into its import path and the rest:
// "repro/internal/sim.(*Env).Step" → "repro/internal/sim", "(*Env).Step".
func pkgOf(fn string) (pkg, sym string) {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn, ""
	}
	return fn[:slash+1+dot], fn[slash+1+dot+1:]
}

// subRule places a leaf inside one of a layer's finer buckets, by source
// file or by symbol prefix; the first matching rule wins.
type subRule struct {
	metric string
	layer  string
	files  []string
	syms   []string
}

var subRules = []subRule{
	{metric: "sim.heap_share", layer: "sim", syms: []string{"(*eventHeap).", "(*event).before", "(*Env).schedule"}},
	{metric: "sim.proc_share", layer: "sim", files: []string{"proc.go", "frame.go"}},
	{metric: "atm.crc_share", layer: "atm", syms: []string{"crc10", "hec"}},
	{metric: "atm.aal34_share", layer: "atm", files: []string{"aal34.go", "cell.go"}},
	{metric: "atm.switch_share", layer: "atm", files: []string{"switch.go", "qdisc.go", "fabric.go"}},
	{metric: "atm.adapter_share", layer: "atm", files: []string{"adapter.go", "driver.go"}},
	{metric: "lab.cluster_share", layer: "lab", files: []string{"cluster.go"}},
}

func (r subRule) matches(layer, sym, file string) bool {
	if r.layer != layer {
		return false
	}
	for _, f := range r.files {
		if f == file {
			return true
		}
	}
	for _, s := range r.syms {
		if strings.HasPrefix(sym, s) {
			return true
		}
	}
	return false
}

// Frames that mark a runtime leaf as garbage-collector or allocator work.
var (
	gcFrames = []string{
		"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMarkDone", "runtime.gcMarkTermination", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.sweepone", "runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim", "runtime.GC",
		"runtime.wbBufFlush", "runtime.gcWriteBarrier",
	}
	mallocFrames = []string{
		"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
		"runtime.growslice", "runtime.makemap", "runtime.mapassign", "runtime.makechan",
	}
)

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		pkg == "internal/abi" || pkg == "internal/cpu" || pkg == "internal/bytealg"
}

func stackHas(stack []frame, names []string) bool {
	for _, f := range stack {
		for _, n := range names {
			if strings.HasPrefix(f.fn, n) {
				return true
			}
		}
	}
	return false
}

// bucketShares attributes every sample to the package of its leaf
// function — flat time, which is the layer's self time: its span minus
// its children — and returns each bucket's share of all samples:
// "<layer>.self_share" for every package under repro/internal (one that
// is not in the layers list still gets its own bucket), the runtime
// split by what the stack shows it was doing, "other.share" for the
// rest, and the finer buckets of subRules beside their layer's total.
func bucketShares(samples []stackSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		if len(s.stack) == 0 || s.count == 0 {
			continue
		}
		total += s.count
		leaf := s.stack[0]
		pkg, sym := pkgOf(leaf.fn)
		switch {
		case strings.HasPrefix(pkg, internalPrefix):
			layer := strings.TrimPrefix(pkg, internalPrefix)
			counts[layer+".self_share"] += s.count
			file := path.Base(leaf.file)
			for _, r := range subRules {
				if r.matches(layer, sym, file) {
					counts[r.metric] += s.count
					break
				}
			}
		case isRuntime(pkg):
			switch {
			case stackHas(s.stack, gcFrames):
				counts["runtime.gc_share"] += s.count
			case stackHas(s.stack, mallocFrames):
				counts["runtime.malloc_share"] += s.count
			default:
				counts["runtime.other_share"] += s.count
			}
		default:
			counts["other.share"] += s.count
		}
	}
	shares := map[string]float64{}
	for k, n := range counts {
		shares[k] = float64(n) / float64(total)
	}
	return shares
}
