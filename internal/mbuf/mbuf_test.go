package mbuf

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/checksum"
	"repro/internal/sim"
)

func fill(r *sim.RNG, n int) []byte {
	b := make([]byte, n)
	r.Fill(b)
	return b
}

// buildChain appends data across mbufs the way the ULTRIX socket layer
// does: normal mbufs for small transfers, clusters above the threshold.
func buildChain(p *Pool, data []byte) *Mbuf {
	var head, tail *Mbuf
	rest := data
	for len(rest) > 0 {
		var m *Mbuf
		if len(data) > ClusterThreshold {
			m = p.AllocCluster()
		} else {
			m = p.Alloc()
		}
		n := m.Append(rest)
		rest = rest[n:]
		if head == nil {
			head = m
		} else {
			tail.SetNext(m)
		}
		tail = m
	}
	return head
}

func TestAppendAndLen(t *testing.T) {
	var p Pool
	m := p.Alloc()
	if m.Len() != 0 || m.Cap() != MLEN {
		t.Fatalf("fresh mbuf len=%d cap=%d", m.Len(), m.Cap())
	}
	n := m.Append(bytes.Repeat([]byte{1}, 200))
	if n != MLEN {
		t.Fatalf("Append consumed %d, want %d", n, MLEN)
	}
	if m.Cap() != 0 {
		t.Fatalf("Cap = %d after fill", m.Cap())
	}
}

func TestClusterCapacity(t *testing.T) {
	var p Pool
	m := p.AllocCluster()
	if !m.IsCluster() {
		t.Fatal("AllocCluster not a cluster")
	}
	n := m.Append(make([]byte, MCLBYTES+1))
	if n != MCLBYTES {
		t.Fatalf("cluster Append = %d, want %d", n, MCLBYTES)
	}
}

func TestChainRoundTrip(t *testing.T) {
	r := sim.NewRNG(3)
	var p Pool
	for _, n := range []int{0, 1, 4, 107, 108, 109, 500, 1024, 1025, 4000, 8000} {
		data := fill(r, n)
		c := buildChain(&p, data)
		if ChainLen(c) != n {
			t.Fatalf("n=%d: ChainLen = %d", n, ChainLen(c))
		}
		if !bytes.Equal(Linearize(c), data) {
			t.Fatalf("n=%d: linearize mismatch", n)
		}
		p.Free(c)
	}
}

func TestChainMbufCounts(t *testing.T) {
	var p Pool
	// 500 bytes on normal mbufs: ceil(500/108) = 5 mbufs (paper: "one to
	// eight mbufs are used for transfers of less than 1KB").
	c := buildChain(&p, make([]byte, 500))
	if got := ChainCount(c); got != 5 {
		t.Fatalf("500B chain has %d mbufs, want 5", got)
	}
	// 1400 bytes switches to clusters: 1 cluster.
	c2 := buildChain(&p, make([]byte, 1400))
	if got := ChainCount(c2); got != 1 {
		t.Fatalf("1400B chain has %d mbufs, want 1", got)
	}
	if !c2.IsCluster() {
		t.Fatal("1400B chain not on a cluster")
	}
	// 8000 bytes: 2 clusters.
	c3 := buildChain(&p, make([]byte, 8000))
	if got := ChainCount(c3); got != 2 {
		t.Fatalf("8000B chain has %d mbufs, want 2", got)
	}
}

func TestCopySemanticsNormalVsCluster(t *testing.T) {
	r := sim.NewRNG(5)
	var p Pool

	// Normal mbufs: physical copy.
	small := fill(r, 500)
	c := buildChain(&p, small)
	dup, cs := p.Copy(c, 0, 500)
	if cs.BytesCopied != 500 {
		t.Fatalf("normal copy moved %d bytes, want 500", cs.BytesCopied)
	}
	if cs.ClustersRef != 0 {
		t.Fatalf("normal copy ref'd %d clusters", cs.ClustersRef)
	}
	if !bytes.Equal(Linearize(dup), small) {
		t.Fatal("normal copy data mismatch")
	}

	// Clusters: reference count, zero bytes moved.
	big := fill(r, 4000)
	c2 := buildChain(&p, big)
	dup2, cs2 := p.Copy(c2, 0, 4000)
	if cs2.BytesCopied != 0 {
		t.Fatalf("cluster copy moved %d bytes, want 0", cs2.BytesCopied)
	}
	if cs2.ClustersRef != 1 {
		t.Fatalf("cluster copy ref'd %d clusters, want 1", cs2.ClustersRef)
	}
	if !bytes.Equal(Linearize(dup2), big) {
		t.Fatal("cluster copy data mismatch")
	}
}

func TestCopyPartialRange(t *testing.T) {
	r := sim.NewRNG(11)
	var p Pool
	f := func(n, offRaw, lenRaw uint16) bool {
		size := int(n%3000) + 1
		data := fill(r, size)
		c := buildChain(&p, data)
		off := int(offRaw) % size
		ln := int(lenRaw) % (size - off)
		dup, _ := p.Copy(c, off, ln)
		return bytes.Equal(Linearize(dup), data[off:off+ln])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFreeReleasesClusterRefs(t *testing.T) {
	var p Pool
	c := buildChain(&p, make([]byte, 4000))
	dup, _ := p.Copy(c, 0, 4000)
	p.Free(c)
	if p.Stats.ClusterFrees != 0 {
		t.Fatal("cluster freed while still referenced")
	}
	p.Free(dup)
	if p.Stats.ClusterFrees != 1 {
		t.Fatalf("ClusterFrees = %d, want 1", p.Stats.ClusterFrees)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	var p Pool
	c := buildChain(&p, make([]byte, 4000))
	dup, _ := p.Copy(c, 0, 4000)
	// Capture the page reference before Free clears it from the header.
	cl, buf := dup.clust, dup.data
	p.Free(c)
	p.Free(dup)
	defer func() {
		if recover() == nil {
			t.Fatal("refcount underflow did not panic")
		}
	}()
	p.Free(&Mbuf{clust: cl, data: buf})
}

func TestPrependHeader(t *testing.T) {
	var p Pool
	m := p.AllocCluster()
	m.Append(make([]byte, 100))
	head, hdr, allocated := p.PrependHeader(m, 40)
	if !allocated {
		t.Fatal("cluster with no leading space should need a header mbuf")
	}
	if len(hdr) != 40 {
		t.Fatalf("hdr len = %d", len(hdr))
	}
	if ChainLen(head) != 140 {
		t.Fatalf("ChainLen = %d, want 140", ChainLen(head))
	}
	// A second prepend can reuse the leading space of the header mbuf.
	head2, hdr2, allocated2 := p.PrependHeader(head, 20)
	if allocated2 {
		t.Fatal("second prepend should reuse leading space")
	}
	if head2 != head || len(hdr2) != 20 {
		t.Fatal("second prepend wrong shape")
	}
	if ChainLen(head2) != 160 {
		t.Fatalf("ChainLen = %d, want 160", ChainLen(head2))
	}
}

func TestTrim(t *testing.T) {
	var p Pool
	m := p.Alloc()
	m.Append([]byte{1, 2, 3, 4, 5})
	m.TrimHead(2)
	if !bytes.Equal(m.Bytes(), []byte{3, 4, 5}) {
		t.Fatalf("after trim: %v", m.Bytes())
	}
}

func TestTrimPanics(t *testing.T) {
	var p Pool
	m := p.Alloc()
	m.Append([]byte{1})
	defer func() {
		if recover() == nil {
			t.Fatal("over-trim did not panic")
		}
	}()
	m.TrimHead(2)
}

func TestSplit(t *testing.T) {
	r := sim.NewRNG(21)
	var p Pool
	f := func(n, at uint16) bool {
		size := int(n%4000) + 2
		cut := int(at) % size
		data := fill(r, size)
		c := buildChain(&p, data)
		front, back := p.Split(c, cut)
		return bytes.Equal(Linearize(front), data[:cut]) &&
			bytes.Equal(Linearize(back), data[cut:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitEdges(t *testing.T) {
	var p Pool
	c := buildChain(&p, make([]byte, 100))
	front, back := p.Split(c, 0)
	if front != nil || ChainLen(back) != 100 {
		t.Fatal("split at 0 wrong")
	}
	front, back = p.Split(back, 100)
	if ChainLen(front) != 100 || back != nil {
		t.Fatal("split at end wrong")
	}
}

func TestCopyBytesTo(t *testing.T) {
	r := sim.NewRNG(31)
	var p Pool
	data := fill(r, 1000)
	c := buildChain(&p, data)
	dst := make([]byte, 300)
	n := CopyBytesTo(c, 150, 300, dst)
	if n != 300 || !bytes.Equal(dst, data[150:450]) {
		t.Fatal("CopyBytesTo mismatch")
	}
	// Reading past the end returns a short count.
	n = CopyBytesTo(c, 900, 300, dst)
	if n != 100 {
		t.Fatalf("short read = %d, want 100", n)
	}
}

func TestPartialChecksumSurvivesClusterCopy(t *testing.T) {
	r := sim.NewRNG(41)
	var p Pool
	data := fill(r, 2000)
	m := p.AllocCluster()
	m.Append(data)
	var cs checksum.Partial
	cs.Add(data)
	m.Csum, m.CsumValid = cs, true

	dup, _ := p.Copy(m, 0, 2000)
	if !dup.CsumValid {
		t.Fatal("whole-cluster copy lost the partial checksum")
	}
	if dup.Csum.Sum16() != cs.Sum16() {
		t.Fatal("partial checksum value changed")
	}

	// A partial-range copy must invalidate the stashed checksum.
	dup2, _ := p.Copy(m, 10, 100)
	if dup2.CsumValid {
		t.Fatal("partial copy kept a stale checksum")
	}
}

func TestStatsCounting(t *testing.T) {
	var p Pool
	c := buildChain(&p, make([]byte, 500))
	if p.Stats.MbufAllocs != 5 {
		t.Fatalf("MbufAllocs = %d, want 5", p.Stats.MbufAllocs)
	}
	p.Free(c)
	if p.Stats.MbufFrees != 5 {
		t.Fatalf("MbufFrees = %d, want 5", p.Stats.MbufFrees)
	}
}

func TestAllocLeading(t *testing.T) {
	var p Pool
	m := p.AllocLeading(40)
	if m.LeadingSpace() != 40 {
		t.Fatalf("LeadingSpace = %d", m.LeadingSpace())
	}
	hdr := m.Prepend(40)
	if len(hdr) != 40 || m.Len() != 40 {
		t.Fatal("prepend into leading space failed")
	}
}

func TestPrependPanicsWithoutSpace(t *testing.T) {
	var p Pool
	m := p.Alloc()
	defer func() {
		if recover() == nil {
			t.Fatal("Prepend without space did not panic")
		}
	}()
	m.Prepend(1)
}
