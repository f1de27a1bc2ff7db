package mbuf

import (
	"bytes"
	"testing"
)

// fillPat writes a repeating pattern into an mbuf.
func fillPat(m *Mbuf, pat byte, n int) {
	b := make([]byte, n)
	for i := range b {
		b[i] = pat
	}
	if m.Append(b) != n {
		panic("fillPat: short append")
	}
}

// TestRecycledClusterNeverAliasesLiveReference is the pool-safety
// contract for cluster pages: freeing one reference to a shared page
// must NOT recycle it, so a subsequent allocation can never hand the
// same storage to a new writer while an in-flight segment (here, the
// retransmission copy a socket buffer holds) still reads it.
func TestRecycledClusterNeverAliasesLiveReference(t *testing.T) {
	var p Pool
	orig := p.AllocCluster()
	fillPat(orig, 0xAA, 100)

	// The reference-count copy TCP's mcopy makes for retransmission.
	dup, cs := p.Copy(orig, 0, 100)
	if cs.ClustersRef != 1 {
		t.Fatalf("expected a reference-count copy, got %+v", cs)
	}
	want := append([]byte(nil), dup.Bytes()...)

	// The driver frees the transmitted chain; dup's reference must keep
	// the page off the free-list.
	p.Free(orig)

	// A new allocation storms through and scribbles over everything the
	// pool hands out.
	for i := 0; i < 8; i++ {
		m := p.AllocCluster()
		fillPat(m, 0x55, MCLBYTES)
		if &m.data[0] == &dup.Bytes()[0] {
			t.Fatal("pool recycled a cluster page that is still referenced")
		}
		p.Free(m)
	}

	if !bytes.Equal(dup.Bytes(), want) {
		t.Fatal("live cluster reference was overwritten after recycling")
	}
	p.Free(dup)

	// With the last reference gone the page MUST recycle: the next
	// cluster allocation reuses it rather than growing the pool.
	reuses := p.PoolStats.PageReuses
	m := p.AllocCluster()
	if p.PoolStats.PageReuses != reuses+1 {
		t.Fatal("fully released cluster page was not recycled")
	}
	p.Free(m)
}

// TestRecycledHeaderNeverAliasesLiveChain proves a freed normal mbuf's
// storage cannot leak into a chain that was physically copied from it
// before the free.
func TestRecycledHeaderNeverAliasesLiveChain(t *testing.T) {
	var p Pool
	orig := p.Alloc()
	fillPat(orig, 0xAA, MLEN)
	dup, cs := p.Copy(orig, 0, MLEN) // normal mbufs copy physically
	if cs.BytesCopied != MLEN {
		t.Fatalf("expected a physical copy, got %+v", cs)
	}
	p.Free(orig)

	// The recycled header (orig's own storage) goes to the next Alloc.
	m := p.Alloc()
	fillPat(m, 0x55, MLEN)
	if &m.Bytes()[0] == &dup.Bytes()[0] {
		t.Fatal("recycled header aliases the live copy")
	}
	for _, b := range dup.Bytes() {
		if b != 0xAA {
			t.Fatal("live chain corrupted by header recycling")
		}
	}
}

// TestPoolRecyclesHeaders asserts the free-list actually engages: a
// steady alloc/free cycle must stop taking headers from the Go heap.
func TestPoolRecyclesHeaders(t *testing.T) {
	var p Pool
	m := p.Alloc()
	p.Free(m)
	news := p.PoolStats.HeaderNews
	for i := 0; i < 100; i++ {
		m := p.Alloc()
		p.Free(m)
	}
	if p.PoolStats.HeaderNews != news {
		t.Fatalf("steady alloc/free cycle grew the pool: %d new headers",
			p.PoolStats.HeaderNews-news)
	}
	if p.PoolStats.HeaderReuses < 100 {
		t.Fatalf("HeaderReuses = %d, want >= 100", p.PoolStats.HeaderReuses)
	}
}

// TestPoolAllocationFreeSteadyState pins the wall-clock contract at the
// pool level: once warm, the alloc/copy/free cycle of a typical segment
// (header mbuf + cluster + reference-count copy) performs zero Go heap
// allocations.
func TestPoolAllocationFreeSteadyState(t *testing.T) {
	var p Pool
	payload := make([]byte, 1400)
	cycle := func() {
		hm := p.Alloc()
		hm.Append(payload[:20])
		cl := p.AllocCluster()
		cl.Append(payload)
		hm.SetNext(cl)
		dup, _ := p.Copy(hm, 0, 1420)
		p.Free(dup)
		p.Free(hm)
	}
	cycle() // warm the free-lists
	if n := testing.AllocsPerRun(50, cycle); n != 0 {
		t.Fatalf("steady-state segment cycle allocates %.1f times per run, want 0", n)
	}
}

// TestSharedFreeListKeepsAccountingPerPool is the contract two hosts on
// one event loop rely on: pools that Share a FreeList recycle each
// other's headers and pages — what one frees the other's next allocation
// gets, with nothing new from the Go heap — while every count stays with
// the pool that did the operation, the live gauges above all: a chain
// leaked on one host shows on that host and no other. A page one pool
// still references never reaches the other, and a double free is caught
// across the list exactly as within a pool.
func TestSharedFreeListKeepsAccountingPerPool(t *testing.T) {
	var fl FreeList
	var a, b Pool
	a.Share(&fl)
	b.Share(&fl)

	// Host A sends: a header and a cluster, with the retransmission copy
	// still holding the page when the transmitted chain is freed.
	hm := a.Alloc()
	cl := a.AllocCluster()
	fillPat(cl, 0xAA, 1400)
	hm.SetNext(cl)
	dup, _ := a.Copy(cl, 0, 1400)
	a.Free(hm)
	if a.PoolStats.LiveHeaders != 1 || a.PoolStats.LivePages != 1 {
		t.Fatalf("A holds %d headers, %d pages live; want the retransmission copy's 1 and 1",
			a.PoolStats.LiveHeaders, a.PoolStats.LivePages)
	}

	// Host B receives: its allocations come off the list A just fed, and
	// the page A still references is not among them.
	got := b.AllocCluster()
	fillPat(got, 0x55, MCLBYTES)
	if &got.data[0] == &dup.data[0] {
		t.Fatal("B was handed a page A still references")
	}
	if b.PoolStats.HeaderReuses != 1 || b.PoolStats.HeaderNews != 0 {
		t.Fatalf("B's header: %d reuses, %d new; want A's recycled one", b.PoolStats.HeaderReuses, b.PoolStats.HeaderNews)
	}
	if b.PoolStats.PageNews != 1 {
		t.Fatalf("B's page: %d new; want 1 (the only page is A's, still live)", b.PoolStats.PageNews)
	}
	for _, v := range dup.Bytes() {
		if v != 0xAA {
			t.Fatal("A's live copy was overwritten through B")
		}
	}
	if b.PoolStats.LiveHeaders != 1 || b.PoolStats.LivePages != 1 || b.Stats.MbufAllocs != 1 {
		t.Fatalf("B's accounting: %+v %+v", b.PoolStats, b.Stats)
	}

	// Everything comes back; each pool's gauges return to zero on its own.
	a.Free(dup)
	b.Free(got)
	for name, p := range map[string]*Pool{"A": &a, "B": &b} {
		if p.PoolStats.LiveHeaders != 0 || p.PoolStats.LivePages != 0 {
			t.Errorf("%s: %d headers, %d pages still live", name, p.PoolStats.LiveHeaders, p.PoolStats.LivePages)
		}
	}
	// Reset keeps the shared list warm and each pool's counters its own.
	a.Reset()
	if a.Stats != (Stats{}) || b.Stats.MbufAllocs != 1 {
		t.Errorf("Reset of A: A %+v, B %+v", a.Stats, b.Stats)
	}
	news := a.PoolStats.HeaderNews + a.PoolStats.PageNews
	m := a.AllocCluster()
	if a.PoolStats.HeaderNews+a.PoolStats.PageNews != news {
		t.Error("A went to the Go heap with recycled memory on the shared list")
	}
	a.Free(m)
	defer func() {
		if recover() == nil {
			t.Error("a header freed on A was freed again on B without a panic")
		}
	}()
	b.Free(m)
}
