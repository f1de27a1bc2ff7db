// Package pcb implements protocol control block demultiplexing the way
// BSD 4.4 alpha does (§3 of the paper): a singly linked list with new
// blocks inserted at the head, a linear-search lookup, and a single-entry
// most-recently-used cache in front of it. It also provides the hash-table
// organization the paper suggests ("a simple hash table implementation
// could eliminate the lookup problem entirely") so the two can be compared.
//
// Lookup returns how many list entries were traversed; the caller charges
// the cost model's per-entry search cost (≈1.3 µs on the DECstation),
// which is the constant the paper measures directly.
package pcb

// Key is the TCP/IP 4-tuple identifying a connection. A zero RemoteAddr or
// RemotePort is a wildcard, as in a listening socket's PCB.
type Key struct {
	LocalAddr  uint32
	RemoteAddr uint32
	LocalPort  uint16
	RemotePort uint16
}

// wildMatch reports whether a PCB bound to k accepts a packet addressed by
// probe, and how specific the match is (higher is more specific). BSD
// prefers fully specified PCBs over wildcard ones.
func wildMatch(k, probe Key) (bool, int) {
	if k.LocalPort != probe.LocalPort {
		return false, 0
	}
	if k.LocalAddr != 0 && k.LocalAddr != probe.LocalAddr {
		return false, 0
	}
	specificity := 0
	if k.RemoteAddr != 0 {
		if k.RemoteAddr != probe.RemoteAddr {
			return false, 0
		}
		specificity++
	}
	if k.RemotePort != 0 {
		if k.RemotePort != probe.RemotePort {
			return false, 0
		}
		specificity++
	}
	if k.LocalAddr != 0 {
		specificity++
	}
	return true, specificity
}

// PCB is one protocol control block. Owner points back at the protocol
// state (the TCP connection) that owns it.
type PCB struct {
	Key   Key
	Owner any
	next  *PCB
}

// Next returns the next PCB on the list (for inspection in tests).
func (p *PCB) Next() *PCB { return p.next }

// LookupResult describes what a lookup cost: whether the one-entry cache
// answered it and, if not, how many list entries (or hash probes) were
// examined. The caller converts these counts to simulated CPU time.
type LookupResult struct {
	CacheHit bool
	Searched int
}

// Table is a demultiplexing table. The zero value is a BSD-style list with
// the cache enabled; set UseHash for the hash-table organization and
// CacheDisabled to model the paper's prediction-disabled kernel.
//
// A key names at most one PCB in the table, as a 4-tuple names at most
// one connection.
type Table struct {
	head  *PCB
	count int
	cache *PCB

	// CacheDisabled turns off the single-entry PCB cache (one half of
	// "header prediction" as the paper uses the term).
	CacheDisabled bool
	// UseHash selects the constant-time hash organization instead of the
	// linear list for cache-miss lookups.
	UseHash bool

	// hash maps each PCB's key to it while hashed, which a table becomes
	// the first time a hash lookup finds it above hashAfter entries, and
	// stays until Reset. Below that the list answers exact lookups just as
	// well — a client host's table holds one PCB — and keeping a map for
	// it would cost every such host two allocations.
	hash   map[Key]*PCB
	hashed bool

	// Counters for tests and reporting.
	Lookups       int64
	CacheHits     int64
	TotalSearched int64
}

// Len returns the number of PCBs in the table.
func (t *Table) Len() int { return t.count }

// Reset empties the table back to its zero-value behaviour — no entries,
// cold cache, cache enabled, list organization, zeroed counters — while
// retaining the hash map's buckets so a reused table repopulates without
// reallocating. Callers that want the hash organization or a disabled
// cache re-apply those knobs after the reset, exactly as they configured
// a fresh table.
func (t *Table) Reset() {
	t.head = nil
	t.count = 0
	t.cache = nil
	t.CacheDisabled = false
	t.UseHash = false
	clear(t.hash)
	t.hashed = false
	t.Lookups, t.CacheHits, t.TotalSearched = 0, 0, 0
}

// hashAfter is the population above which a hash table keeps its map.
const hashAfter = 8

// Insert adds a PCB at the head of the list, the BSD insertion policy that
// makes recently created connections cheap to find (§3: "the insertion
// algorithm ... places the most recent creation at the head of the list").
func (t *Table) Insert(p *PCB) {
	p.next = t.head
	t.head = p
	t.count++
	if t.hashed {
		t.hash[p.Key] = p
	}
}

// Remove deletes a PCB from the table. Removing a PCB that is not present
// is a no-op. The cache entry is invalidated if it pointed at p.
func (t *Table) Remove(p *PCB) {
	for cur, prev := t.head, (*PCB)(nil); cur != nil; prev, cur = cur, cur.next {
		if cur == p {
			if prev == nil {
				t.head = cur.next
			} else {
				prev.next = cur.next
			}
			cur.next = nil
			t.count--
			if t.hashed {
				delete(t.hash, p.Key)
			}
			if t.cache == p {
				t.cache = nil
			}
			return
		}
	}
}

// Rebind updates a PCB's key (e.g. when a listening socket's wildcard PCB
// becomes fully specified on connection establishment).
func (t *Table) Rebind(p *PCB, k Key) {
	if t.hashed {
		delete(t.hash, p.Key)
		t.hash[k] = p
	}
	p.Key = k
}

// Lookup finds the PCB for an incoming packet's 4-tuple. It consults the
// single-entry cache first (unless disabled), then searches — linearly
// down the list, or via the hash table when UseHash is set, falling back
// to a wildcard list scan for listening sockets. The LookupResult carries
// the work done so the caller can charge simulated time.
func (t *Table) Lookup(probe Key) (*PCB, LookupResult) {
	t.Lookups++
	if !t.CacheDisabled && t.cache != nil && t.cache.Key == probe {
		t.CacheHits++
		return t.cache, LookupResult{CacheHit: true}
	}
	var res LookupResult
	var found *PCB
	if t.UseHash {
		res.Searched = 1
		found = t.exact(probe)
	}
	if found == nil {
		// Linear scan, keeping the most specific wildcard match.
		bestSpec := -1
		searched := 0
		for p := t.head; p != nil; p = p.next {
			searched++
			if ok, spec := wildMatch(p.Key, probe); ok {
				if spec > bestSpec {
					found, bestSpec = p, spec
				}
				if spec == 3 { // fully specified: cannot do better
					break
				}
			}
		}
		res.Searched += searched
	}
	t.TotalSearched += int64(res.Searched)
	if found != nil && !t.CacheDisabled {
		t.cache = found
	}
	return found, res
}

// exact is the hash organization's probe: the PCB whose key is probe, or
// nil. A table small enough to keep no map answers from the list, at the
// same charge — a hash lookup is one probe however the answer was found.
func (t *Table) exact(probe Key) *PCB {
	if !t.hashed && t.count > hashAfter {
		if t.hash == nil {
			t.hash = make(map[Key]*PCB, t.count)
		}
		for p := t.head; p != nil; p = p.next {
			t.hash[p.Key] = p
		}
		t.hashed = true
	}
	if t.hashed {
		return t.hash[probe]
	}
	for p := t.head; p != nil; p = p.next {
		if p.Key == probe {
			return p
		}
	}
	return nil
}

// Entries returns the PCBs in list order (head first), for tests.
func (t *Table) Entries() []*PCB {
	var out []*PCB
	for p := t.head; p != nil; p = p.next {
		out = append(out, p)
	}
	return out
}
