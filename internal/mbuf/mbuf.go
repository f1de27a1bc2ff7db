// Package mbuf implements BSD-style network memory buffers with the exact
// semantics the paper's §2.2.1 identifies as the cause of the nonlinear
// latency response between the 500- and 1400-byte transfer sizes:
//
//   - Normal mbufs hold up to 108 bytes of data. Copying them (m_copy)
//     allocates fresh mbufs and copies the bytes.
//   - Cluster mbufs hold up to 4096 bytes (one page). Copying them bumps a
//     reference count; no data moves.
//   - The ULTRIX 4.2A socket layer switches from normal mbufs to clusters
//     once a transfer exceeds 1 KB.
//
// The package is pure data structure: it moves real bytes and counts real
// operations. CPU time is charged by the callers (socket layer, TCP, the
// drivers) using the operation counts in Stats/CopyStats, keeping the cost
// model in one place.
//
// # The free-list pool
//
// Pool recycles both mbuf headers and 4 KB cluster pages on free-lists,
// so steady-state traffic — where every segment allocates a handful of
// mbufs and frees them a round trip later — runs without touching the Go
// heap (see docs/PERFORMANCE.md for the measured effect). The lists
// themselves are a FreeList, which several pools may share (Pool.Share):
// every host on one event loop does, because only one of them runs at a
// time and an idle host then holds no recycled memory at all. What stays
// per pool, exact, is the accounting — Stats, PoolStats, and the live
// gauges the leak gate reads. The lifecycle:
//
//   - Alloc/AllocLeading/AllocCluster pop a recycled header (and, for
//     clusters, a recycled page) when one is available and fall back to
//     the Go allocator only to grow the lists' high-water mark.
//   - Free pushes every header of the chain back onto the free-list; a
//     cluster page follows when its reference count reaches zero. From
//     that moment the header and the page belong to whichever pool on
//     the list allocates next.
//   - A recycled header's data region is NOT zeroed: every caller in
//     this stack writes before it reads (Append, Prepend, Marshal), and
//     the reuse-aliasing tests in mbuf_test.go prove a recycled buffer
//     never aliases bytes still reachable through a live chain — on one
//     pool or across two that share a list. The contract that makes
//     sharing safe is the one that always made recycling safe: nothing
//     may keep a reference to a chain it has freed.
//
// None of this is visible to the simulation: Stats still counts every
// simulated allocator operation (the paper's mbuf-bookkeeping costs are
// charged from those counts), whether or not the pool satisfied it from
// a free-list. Recycling affects host wall-clock time only — the same
// "no simulated-time impact" contract the trace engine follows.
//
// Double frees corrupt free-lists, so Free panics if it sees a header
// that is already pooled.
package mbuf

import "repro/internal/checksum"

const (
	// MLEN is the data capacity of a normal mbuf. ULTRIX 4.2A mbufs
	// held 108 bytes of data (the paper states this directly).
	MLEN = 108
	// MCLBYTES is the data capacity of a cluster mbuf: one 4 KB page.
	MCLBYTES = 4096
	// ClusterThreshold is the transfer size above which the socket layer
	// switches to cluster mbufs (§2.2.1: "above 1 KB").
	ClusterThreshold = 1024
)

// cluster is the shared page behind one or more cluster mbufs.
type cluster struct {
	buf      []byte
	refs     int
	nextFree *cluster // free-list link while the page is pooled
}

// Mbuf is one buffer in a chain. Data occupies data[off:off+length].
type Mbuf struct {
	data   []byte
	off    int
	length int
	clust  *cluster // non-nil for cluster mbufs
	next   *Mbuf

	// Csum holds the partial checksum computed when data was copied into
	// this mbuf by the integrated copy-and-checksum socket layer
	// (§4.1.1: "store the partial checksum in the mbuf header").
	// CsumValid says whether it is usable; it becomes invalid if the
	// mbuf is split across segments.
	Csum      checksum.Partial
	CsumValid bool

	// pooled marks a header sitting on the free-list, to catch double
	// frees before they corrupt the list.
	pooled bool

	// buf is the header's own MLEN bytes of storage. Normal mbufs point
	// data at it; cluster mbufs point data at the shared page instead.
	// Embedding it means one recycled header serves either role.
	buf [MLEN]byte
}

// IsCluster reports whether the mbuf's storage is a shared cluster page.
func (m *Mbuf) IsCluster() bool { return m.clust != nil }

// Len returns the number of data bytes in this single mbuf.
func (m *Mbuf) Len() int { return m.length }

// Next returns the next mbuf in the chain, or nil.
func (m *Mbuf) Next() *Mbuf { return m.next }

// SetNext links n after m.
func (m *Mbuf) SetNext(n *Mbuf) { m.next = n }

// Bytes returns the mbuf's data as a slice of the underlying storage.
// Callers must not retain it across Free.
func (m *Mbuf) Bytes() []byte { return m.data[m.off : m.off+m.length] }

// Cap returns the remaining space after the data.
func (m *Mbuf) Cap() int { return len(m.data) - m.off - m.length }

// LeadingSpace returns the writable space before the data, available for
// prepending protocol headers.
func (m *Mbuf) LeadingSpace() int { return m.off }

// Append copies as much of b as fits into the mbuf's trailing space and
// returns the number of bytes consumed.
func (m *Mbuf) Append(b []byte) int {
	n := copy(m.data[m.off+m.length:], b)
	m.length += n
	return n
}

// Prepend extends the data region n bytes backwards and returns the slice
// for the caller to fill. It panics if there is not enough leading space;
// protocol code must check LeadingSpace or use Pool.PrependHeader.
func (m *Mbuf) Prepend(n int) []byte {
	if m.off < n {
		panic("mbuf: not enough leading space")
	}
	m.off -= n
	m.length += n
	return m.data[m.off : m.off+n]
}

// TrimHead removes n bytes from the front of this single mbuf.
func (m *Mbuf) TrimHead(n int) {
	if n > m.length {
		panic("mbuf: TrimHead beyond length")
	}
	m.off += n
	m.length -= n
}

// Stats counts allocator and copy activity so callers can charge the cost
// model and so tests can assert on buffer management behaviour. The
// counts are SIMULATED allocator operations: a Pool free-list hit still
// counts as an alloc, because the modeled ULTRIX kernel still paid for
// one. PoolStats separates the host-side recycling.
type Stats struct {
	MbufAllocs    int64
	MbufFrees     int64
	ClusterAllocs int64
	ClusterFrees  int64
	ClusterRefs   int64 // reference-count copies (no data movement)
	BytesCopied   int64 // bytes physically copied by m_copy
}

// PoolStats counts the host-side free-list traffic, for the pool-safety
// tests and for verifying steady-state traffic recycles rather than
// allocates. LiveHeaders and LivePages are gauges, not counters: they
// track how many headers and cluster pages are currently out of the pool
// in live chains, and both must be zero between trials — a nonzero value
// after teardown means a chain leaked, the invariant the testbed-reuse
// leak gate asserts (lab.Config.CheckLeaks).
type PoolStats struct {
	HeaderReuses int64 // mbuf headers popped off the free-list
	HeaderNews   int64 // mbuf headers taken from the Go heap
	PageReuses   int64 // cluster pages popped off the free-list
	PageNews     int64 // cluster pages taken from the Go heap
	LiveHeaders  int64 // headers currently held by live chains
	LivePages    int64 // cluster pages currently held by live chains
}

// FreeList holds recycled mbuf headers and cluster pages. The zero value
// is empty and ready. It is not safe for concurrent use: the pools that
// share one must run on one goroutine, as the hosts of an event loop do.
type FreeList struct {
	hdr  *Mbuf    // recycled headers, linked through next
	page *cluster // recycled 4 KB pages, linked through nextFree
}

// Pool allocates mbufs and tracks Stats. The zero value is ready to use,
// recycling on a free-list of its own. A Pool belongs to one simulated
// host and is not safe for concurrent use — the same discipline as every
// other per-kernel structure.
type Pool struct {
	Stats Stats
	// PoolStats counts free-list recycling (host-side, not simulated).
	// Under a shared list HeaderNews and PageNews count the times THIS
	// pool found the list empty, so they sum over the sharers to the
	// list's growth.
	PoolStats PoolStats

	shared *FreeList // set by Share; nil means own
	own    FreeList
}

// Share makes the pool recycle on fl instead of a list of its own. Call
// it before the first allocation.
func (p *Pool) Share(fl *FreeList) { p.shared = fl }

// list returns the free-list in use.
func (p *Pool) list() *FreeList {
	if p.shared != nil {
		return p.shared
	}
	return &p.own
}

// get returns a blank header: recycled when possible, fresh otherwise.
func (p *Pool) get() *Mbuf {
	p.PoolStats.LiveHeaders++
	fl := p.list()
	m := fl.hdr
	if m == nil {
		p.PoolStats.HeaderNews++
		return &Mbuf{}
	}
	fl.hdr = m.next
	p.PoolStats.HeaderReuses++
	m.next = nil
	m.pooled = false
	return m
}

// getPage returns a 4 KB cluster page with refs set to 1.
func (p *Pool) getPage() *cluster {
	p.PoolStats.LivePages++
	fl := p.list()
	c := fl.page
	if c == nil {
		p.PoolStats.PageNews++
		return &cluster{buf: make([]byte, MCLBYTES), refs: 1}
	}
	fl.page = c.nextFree
	p.PoolStats.PageReuses++
	c.nextFree = nil
	c.refs = 1
	return c
}

// Reset clears the pool's counters for a new trial while RETAINING the
// free-lists — the whole point of reusing a testbed is that the next
// trial's steady-state traffic recycles this trial's headers and pages
// instead of growing the Go heap again. The live gauges are preserved:
// they describe chains still outstanding, which a reset cannot make
// disappear (the leak gate checks them before the reset).
func (p *Pool) Reset() {
	live := PoolStats{
		LiveHeaders: p.PoolStats.LiveHeaders,
		LivePages:   p.PoolStats.LivePages,
	}
	p.Stats = Stats{}
	p.PoolStats = live
}

// Alloc returns a normal mbuf with leading space for protocol headers.
func (p *Pool) Alloc() *Mbuf {
	return p.AllocLeading(0)
}

// AllocLeading returns a normal mbuf whose data begins at offset lead,
// leaving lead bytes of space for headers to be prepended.
func (p *Pool) AllocLeading(lead int) *Mbuf {
	if lead > MLEN {
		panic("mbuf: leading space exceeds MLEN")
	}
	p.Stats.MbufAllocs++
	m := p.get()
	m.data = m.buf[:]
	m.off = lead
	m.length = 0
	m.clust = nil
	m.Csum = checksum.Partial{}
	m.CsumValid = false
	return m
}

// AllocCluster returns a cluster mbuf backed by a 4 KB page.
func (p *Pool) AllocCluster() *Mbuf {
	p.Stats.MbufAllocs++
	p.Stats.ClusterAllocs++
	c := p.getPage()
	m := p.get()
	m.data = c.buf
	m.off = 0
	m.length = 0
	m.clust = c
	m.Csum = checksum.Partial{}
	m.CsumValid = false
	return m
}

// Free releases an entire chain onto the free-lists, decrementing cluster
// reference counts; a cluster page is recycled only when its last
// reference drops. Freeing an already-pooled header panics.
func (p *Pool) Free(m *Mbuf) {
	fl := p.list()
	for m != nil {
		if m.pooled {
			panic("mbuf: double free")
		}
		next := m.next
		p.Stats.MbufFrees++
		p.PoolStats.LiveHeaders--
		if m.clust != nil {
			m.clust.refs--
			if m.clust.refs == 0 {
				p.Stats.ClusterFrees++
				p.PoolStats.LivePages--
				m.clust.nextFree = fl.page
				fl.page = m.clust
			}
			if m.clust.refs < 0 {
				panic("mbuf: cluster refcount underflow")
			}
			m.clust = nil
		}
		m.data = nil // every way out of the list sets the rest
		m.pooled = true
		m.next = fl.hdr
		fl.hdr = m
		m = next
	}
}

// CopyStats reports what a Copy physically did, so the caller can charge
// the two very different cost curves (§2.2.1).
type CopyStats struct {
	MbufsAllocated int // fresh mbufs that required allocation
	ClustersRef    int // cluster copies done by reference count
	BytesCopied    int // bytes physically moved
}

// Copy returns a new chain referring to bytes [off, off+n) of the chain m,
// with BSD m_copy semantics: normal mbuf data is physically copied into
// freshly allocated mbufs; cluster mbuf data is shared by bumping the
// cluster reference count. This difference is why the paper's mcopy row
// drops when transfers exceed 1 KB.
func (p *Pool) Copy(m *Mbuf, off, n int) (*Mbuf, CopyStats) {
	var cs CopyStats
	if n == 0 {
		return nil, cs
	}
	// Skip to the starting mbuf.
	for m != nil && off >= m.length {
		off -= m.length
		m = m.next
	}
	var head, tail *Mbuf
	appendM := func(nm *Mbuf) {
		if head == nil {
			head = nm
		} else {
			tail.next = nm
		}
		tail = nm
	}
	for n > 0 {
		if m == nil {
			panic("mbuf: Copy past end of chain")
		}
		take := m.length - off
		if take > n {
			take = n
		}
		if m.clust != nil {
			// Reference-count copy: share the cluster page.
			m.clust.refs++
			p.Stats.MbufAllocs++ // the mbuf header itself is allocated
			p.Stats.ClusterRefs++
			cs.MbufsAllocated++
			cs.ClustersRef++
			nm := p.get()
			nm.data, nm.off, nm.length, nm.clust = m.data, m.off+off, take, m.clust
			nm.Csum, nm.CsumValid = m.Csum, m.CsumValid && off == 0 && take == m.length
			appendM(nm)
		} else {
			// Physical copy into fresh normal mbufs.
			src := m.data[m.off+off : m.off+off+take]
			for len(src) > 0 {
				nm := p.Alloc()
				cs.MbufsAllocated++
				w := nm.Append(src)
				cs.BytesCopied += w
				p.Stats.BytesCopied += int64(w)
				src = src[w:]
				appendM(nm)
			}
			if off == 0 && take == m.length && head != nil {
				// Partial checksum survives only a whole-mbuf copy
				// into a single destination mbuf.
				if take <= MLEN {
					tail.Csum, tail.CsumValid = m.Csum, m.CsumValid
				}
			}
		}
		n -= take
		off = 0
		m = m.next
	}
	return head, cs
}

// PrependHeader returns the chain with n bytes of header space available at
// the front, allocating a new leading mbuf if the first mbuf lacks leading
// space (the common case, mirroring M_PREPEND). The returned slice is the
// header region to fill; allocated reports whether a new mbuf was needed.
func (p *Pool) PrependHeader(m *Mbuf, n int) (head *Mbuf, hdr []byte, allocated bool) {
	if n > MLEN {
		panic("mbuf: header larger than MLEN")
	}
	if m != nil && m.LeadingSpace() >= n {
		return m, m.Prepend(n), false
	}
	nm := p.AllocLeading(MLEN)
	nm.off = MLEN - n
	nm.length = n
	nm.next = m
	return nm, nm.data[nm.off : nm.off+n], true
}

// ChainLen returns the total data bytes in the chain.
func ChainLen(m *Mbuf) int {
	n := 0
	for ; m != nil; m = m.next {
		n += m.length
	}
	return n
}

// ChainCount returns the number of mbufs in the chain.
func ChainCount(m *Mbuf) int {
	c := 0
	for ; m != nil; m = m.next {
		c++
	}
	return c
}

// Linearize copies the chain's data into a single new byte slice.
func Linearize(m *Mbuf) []byte {
	return LinearizeInto(nil, m)
}

// LinearizeInto appends the chain's data to dst and returns the extended
// slice, allowing callers on the per-packet path (the drivers) to reuse
// one scratch buffer across datagrams instead of allocating per call.
func LinearizeInto(dst []byte, m *Mbuf) []byte {
	if dst == nil {
		dst = make([]byte, 0, ChainLen(m))
	}
	for ; m != nil; m = m.next {
		dst = append(dst, m.Bytes()...)
	}
	return dst
}

// CopyBytesTo copies n bytes starting at offset off in the chain into dst,
// returning the number of bytes copied (less than n only if the chain is
// shorter than off+n).
func CopyBytesTo(m *Mbuf, off, n int, dst []byte) int {
	for m != nil && off >= m.length {
		off -= m.length
		m = m.next
	}
	copied := 0
	for m != nil && copied < n {
		take := m.length - off
		if take > n-copied {
			take = n - copied
		}
		copy(dst[copied:], m.data[m.off+off:m.off+off+take])
		copied += take
		off = 0
		m = m.next
	}
	return copied
}

// Drop removes n bytes from the front of the chain, freeing any mbufs
// emptied in the process, and returns the new head (nil if the whole chain
// was consumed). It is how protocol layers strip headers they have parsed.
func (p *Pool) Drop(m *Mbuf, n int) *Mbuf {
	for m != nil && n > 0 {
		if n < m.length {
			m.TrimHead(n)
			m.CsumValid = false
			return m
		}
		n -= m.length
		next := m.next
		m.next = nil
		p.Free(m)
		m = next
	}
	if n > 0 {
		panic("mbuf: Drop past end of chain")
	}
	return m
}

// Split cuts the chain after n bytes and returns the two halves. The split
// point may fall inside an mbuf; cluster storage is shared between halves
// (reference counted), normal mbuf bytes are copied for the second half.
func (p *Pool) Split(m *Mbuf, n int) (front, back *Mbuf) {
	if n <= 0 {
		return nil, m
	}
	if n >= ChainLen(m) {
		return m, nil
	}
	cur := m
	remain := n
	var prev *Mbuf
	for remain >= cur.length {
		remain -= cur.length
		prev = cur
		cur = cur.next
	}
	if remain == 0 {
		prev.next = nil
		return m, cur
	}
	// The split is inside cur: make back start with the tail of cur.
	var tailM *Mbuf
	if cur.clust != nil {
		cur.clust.refs++
		p.Stats.MbufAllocs++
		p.Stats.ClusterRefs++
		tailM = p.get()
		tailM.data, tailM.off, tailM.length, tailM.clust =
			cur.data, cur.off+remain, cur.length-remain, cur.clust
		tailM.Csum, tailM.CsumValid = checksum.Partial{}, false
	} else {
		tailM = p.Alloc()
		w := tailM.Append(cur.data[cur.off+remain : cur.off+cur.length])
		p.Stats.BytesCopied += int64(w)
	}
	tailM.next = cur.next
	cur.length = remain
	cur.next = nil
	cur.CsumValid = false
	return m, tailM
}
