package pcb

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func key(i int) Key {
	return Key{LocalAddr: 1, RemoteAddr: uint32(i + 2), LocalPort: 80, RemotePort: uint16(i + 1000)}
}

func TestInsertAtHead(t *testing.T) {
	var tb Table
	a := &PCB{Key: key(1)}
	b := &PCB{Key: key(2)}
	tb.Insert(a)
	tb.Insert(b)
	ents := tb.Entries()
	if len(ents) != 2 || ents[0] != b || ents[1] != a {
		t.Fatal("most recent insertion is not at the head")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestLookupExact(t *testing.T) {
	var tb Table
	pcbs := make([]*PCB, 10)
	for i := range pcbs {
		pcbs[i] = &PCB{Key: key(i), Owner: i}
		tb.Insert(pcbs[i])
	}
	for i := range pcbs {
		p, _ := tb.Lookup(key(i))
		if p == nil || p.Owner.(int) != i {
			t.Fatalf("lookup %d found %v", i, p)
		}
	}
	if p, _ := tb.Lookup(key(99)); p != nil {
		t.Fatal("lookup of absent key succeeded")
	}
}

func TestCacheHit(t *testing.T) {
	var tb Table
	for i := 0; i < 50; i++ {
		tb.Insert(&PCB{Key: key(i)})
	}
	_, r1 := tb.Lookup(key(0)) // deep in the list: inserted first
	if r1.CacheHit {
		t.Fatal("first lookup cannot hit the cache")
	}
	if r1.Searched != 50 {
		t.Fatalf("first lookup searched %d, want 50 (key 0 is at the tail)", r1.Searched)
	}
	_, r2 := tb.Lookup(key(0))
	if !r2.CacheHit || r2.Searched != 0 {
		t.Fatalf("repeat lookup: %+v, want cache hit", r2)
	}
	if tb.CacheHits != 1 || tb.Lookups != 2 {
		t.Fatalf("counters: hits=%d lookups=%d", tb.CacheHits, tb.Lookups)
	}
}

func TestCacheDisabled(t *testing.T) {
	tb := Table{CacheDisabled: true}
	tb.Insert(&PCB{Key: key(1)})
	tb.Lookup(key(1))
	_, r := tb.Lookup(key(1))
	if r.CacheHit {
		t.Fatal("disabled cache hit")
	}
	if r.Searched != 1 {
		t.Fatalf("Searched = %d", r.Searched)
	}
}

func TestSearchLengthLinear(t *testing.T) {
	// The paper measures search cost linear in position; Searched must
	// equal the 1-based position from the head.
	var tb Table
	n := 1000
	for i := 0; i < n; i++ {
		tb.Insert(&PCB{Key: key(i)})
	}
	for _, pos := range []int{1, 20, 100, 500, 1000} {
		tb.cache = nil
		// key(n-pos) is at 1-based position pos from the head.
		_, r := tb.Lookup(key(n - pos))
		if r.Searched != pos {
			t.Fatalf("pos %d: searched %d", pos, r.Searched)
		}
	}
}

func TestHashLookupConstant(t *testing.T) {
	tb := Table{UseHash: true, CacheDisabled: true}
	for i := 0; i < 1000; i++ {
		tb.Insert(&PCB{Key: key(i)})
	}
	for _, i := range []int{0, 500, 999} {
		_, r := tb.Lookup(key(i))
		if r.Searched != 1 {
			t.Fatalf("hash lookup searched %d, want 1", r.Searched)
		}
	}
	// A miss in the hash also misses the wildcard scan, paying the scan.
	_, r := tb.Lookup(Key{LocalAddr: 9, LocalPort: 9})
	if r.Searched != 1001 {
		t.Fatalf("hash miss searched %d, want 1001", r.Searched)
	}
}

func TestWildcardListen(t *testing.T) {
	var tb Table
	listen := &PCB{Key: Key{LocalAddr: 0, LocalPort: 80}, Owner: "listen"}
	tb.Insert(listen)
	probe := Key{LocalAddr: 5, RemoteAddr: 6, LocalPort: 80, RemotePort: 1234}
	p, _ := tb.Lookup(probe)
	if p != listen {
		t.Fatal("wildcard listen PCB not found")
	}
	// A fully specified PCB must win over the wildcard even when the
	// wildcard is nearer the head.
	conn := &PCB{Key: probe, Owner: "conn"}
	tb.Insert(listen) // ensure order: listen at head
	tb.Remove(listen)
	tb.Insert(conn)
	tb.Insert(listen)
	tb.cache = nil
	p, _ = tb.Lookup(probe)
	if p != conn {
		t.Fatalf("specific PCB lost to wildcard: %v", p.Owner)
	}
}

func TestWrongPortNoMatch(t *testing.T) {
	var tb Table
	tb.Insert(&PCB{Key: Key{LocalAddr: 0, LocalPort: 80}})
	if p, _ := tb.Lookup(Key{LocalAddr: 5, RemoteAddr: 6, LocalPort: 81, RemotePort: 9}); p != nil {
		t.Fatal("matched wrong local port")
	}
}

func TestRemove(t *testing.T) {
	var tb Table
	a, b, c := &PCB{Key: key(1)}, &PCB{Key: key(2)}, &PCB{Key: key(3)}
	tb.Insert(a)
	tb.Insert(b)
	tb.Insert(c)
	tb.Remove(b)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if p, _ := tb.Lookup(key(2)); p != nil {
		t.Fatal("removed PCB still found")
	}
	tb.Remove(b) // no-op
	if tb.Len() != 2 {
		t.Fatal("double remove changed the table")
	}
	// Removing the cached PCB must invalidate the cache.
	tb.Lookup(key(3))
	tb.Remove(c)
	if p, _ := tb.Lookup(key(3)); p != nil {
		t.Fatal("stale cache entry returned after Remove")
	}
}

func TestRebind(t *testing.T) {
	var tb Table
	p := &PCB{Key: Key{LocalAddr: 0, LocalPort: 80}}
	tb.Insert(p)
	full := Key{LocalAddr: 1, RemoteAddr: 2, LocalPort: 80, RemotePort: 3}
	tb.Rebind(p, full)
	got, _ := tb.Lookup(full)
	if got != p {
		t.Fatal("rebound PCB not found by new key")
	}
	tbh := Table{UseHash: true}
	p2 := &PCB{Key: key(9)}
	tbh.Insert(p2)
	tbh.Rebind(p2, full)
	got2, _ := tbh.Lookup(full)
	if got2 != p2 {
		t.Fatal("hash table lost rebound PCB")
	}
}

// TestHashMatchesList cross-checks the two organizations against each
// other over random workloads: they must always resolve a probe to a PCB
// with the same key.
func TestHashMatchesList(t *testing.T) {
	r := sim.NewRNG(17)
	f := func(ops []uint16) bool {
		list := Table{CacheDisabled: true}
		hash := Table{CacheDisabled: true, UseHash: true}
		live := map[Key]bool{}
		for _, op := range ops {
			i := int(op % 64)
			k := key(i)
			switch {
			case op%3 == 0 && !live[k]:
				list.Insert(&PCB{Key: k})
				hash.Insert(&PCB{Key: k})
				live[k] = true
			default:
				probe := key(int(r.Uint64()) % 64)
				lp, _ := list.Lookup(probe)
				hp, _ := hash.Lookup(probe)
				if (lp == nil) != (hp == nil) {
					return false
				}
				if lp != nil && lp.Key != hp.Key {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refTable is the table as it was before it kept its map lazily: every
// Insert, Remove and Rebind writes the map, and a hash lookup reads it.
// TestLazyHashMatchesReference holds Table to it.
type refTable struct {
	head                              *PCB
	count                             int
	cache                             *PCB
	CacheDisabled, UseHash            bool
	hash                              map[Key]*PCB
	Lookups, CacheHits, TotalSearched int64
}

func (t *refTable) Reset() {
	t.head, t.count, t.cache = nil, 0, nil
	t.CacheDisabled, t.UseHash = false, false
	clear(t.hash)
	t.Lookups, t.CacheHits, t.TotalSearched = 0, 0, 0
}

func (t *refTable) Insert(p *PCB) {
	p.next = t.head
	t.head = p
	t.count++
	if t.hash == nil {
		t.hash = make(map[Key]*PCB)
	}
	t.hash[p.Key] = p
}

func (t *refTable) Remove(p *PCB) {
	for cur, prev := t.head, (*PCB)(nil); cur != nil; prev, cur = cur, cur.next {
		if cur == p {
			if prev == nil {
				t.head = cur.next
			} else {
				prev.next = cur.next
			}
			cur.next = nil
			t.count--
			delete(t.hash, p.Key)
			if t.cache == p {
				t.cache = nil
			}
			return
		}
	}
}

func (t *refTable) Rebind(p *PCB, k Key) {
	delete(t.hash, p.Key)
	p.Key = k
	t.hash[k] = p
}

func (t *refTable) Lookup(probe Key) (*PCB, LookupResult) {
	t.Lookups++
	if !t.CacheDisabled && t.cache != nil && t.cache.Key == probe {
		t.CacheHits++
		return t.cache, LookupResult{CacheHit: true}
	}
	var res LookupResult
	var found *PCB
	if t.UseHash {
		res.Searched = 1
		if p, ok := t.hash[probe]; ok {
			found = p
		}
	}
	if found == nil {
		bestSpec := -1
		searched := 0
		for p := t.head; p != nil; p = p.next {
			searched++
			if ok, spec := wildMatch(p.Key, probe); ok {
				if spec > bestSpec {
					found, bestSpec = p, spec
				}
				if spec == 3 {
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

// TestLazyHashMatchesReference drives random scripts — inserts, removes
// (of present and absent PCBs), rebinds, probes, and resets that may
// switch organization and cache — through Table and refTable side by
// side, under both organizations, with populations on both sides of
// hashAfter. Every lookup must find the same PCB at the same LookupResult,
// and the counters must agree after every step: keeping no map below
// hashAfter is invisible to whoever charges the lookup.
func TestLazyHashMatchesReference(t *testing.T) {
	// Keys from a small universe, wildcards included (a zero remote
	// address or port, as a listener binds), so probes hit, miss and
	// match by wildcard.
	var universe []Key
	for la := uint32(0); la < 2; la++ {
		for ra := uint32(0); ra < 4; ra++ {
			for lp := uint16(80); lp < 82; lp++ {
				for rp := uint16(0); rp < 4; rp++ {
					universe = append(universe, Key{LocalAddr: la, RemoteAddr: ra, LocalPort: lp, RemotePort: rp})
				}
			}
		}
	}
	r := sim.NewRNG(25)
	pick := func(n int) int { return int(r.Uint64() % uint64(n)) }
	var mapProbes, listProbes, resets int // hash probes each way; resets
	for script := 0; script < 300; script++ {
		var lazy Table
		var ref refTable
		var lazyPCBs, refPCBs []*PCB // the same PCB twice, once per table
		inTable := map[Key]int{}     // key -> index of the PCB holding it
		var present []int
		configure := func() {
			hash, noCache := pick(2) == 0, pick(4) == 0
			lazy.UseHash, ref.UseHash = hash, hash
			lazy.CacheDisabled, ref.CacheDisabled = noCache, noCache
		}
		configure()
		grow := 1 + pick(4) // insert bias: some scripts stay small, most pass hashAfter
		for step := 0; step < 200; step++ {
			what := ""
			switch op := pick(10 + grow); {
			case op < 4+grow: // insert a key not in the table
				k := universe[pick(len(universe))]
				if _, dup := inTable[k]; dup {
					continue
				}
				lazyPCBs = append(lazyPCBs, &PCB{Key: k})
				refPCBs = append(refPCBs, &PCB{Key: k})
				i := len(lazyPCBs) - 1
				lazy.Insert(lazyPCBs[i])
				ref.Insert(refPCBs[i])
				inTable[k] = i
				present = append(present, i)
				what = "insert"
			case op < 6+grow: // remove a present PCB, or one already gone
				if len(lazyPCBs) == 0 {
					continue
				}
				i := pick(len(lazyPCBs))
				if len(present) > 0 && pick(4) != 0 {
					i = present[pick(len(present))]
				}
				for j, p := range present {
					if p == i {
						present = append(present[:j], present[j+1:]...)
						delete(inTable, lazyPCBs[i].Key)
						break
					}
				}
				lazy.Remove(lazyPCBs[i])
				ref.Remove(refPCBs[i])
				what = "remove"
			case op < 7+grow: // rebind a present PCB to a free key
				k := universe[pick(len(universe))]
				if _, dup := inTable[k]; dup || len(present) == 0 {
					continue
				}
				i := present[pick(len(present))]
				delete(inTable, lazyPCBs[i].Key)
				inTable[k] = i
				lazy.Rebind(lazyPCBs[i], k)
				ref.Rebind(refPCBs[i], k)
				what = "rebind"
			case op == 7+grow && pick(8) == 0: // reset, maybe reorganized
				lazy.Reset()
				ref.Reset()
				resets++
				lazyPCBs, refPCBs, present = nil, nil, nil
				clear(inTable)
				configure()
				what = "reset"
			default: // probe
				probe := universe[pick(len(universe))]
				lp, lres := lazy.Lookup(probe)
				if lazy.hashed {
					mapProbes++
				} else if lazy.UseHash {
					listProbes++
				}
				rp, rres := ref.Lookup(probe)
				li, ri := -1, -1
				for i := range lazyPCBs {
					if lazyPCBs[i] == lp {
						li = i
					}
					if refPCBs[i] == rp {
						ri = i
					}
				}
				if li != ri || lres != rres {
					t.Fatalf("script %d step %d: Lookup(%+v) with %d entries (hash %v) = PCB %d %+v, reference PCB %d %+v",
						script, step, probe, lazy.Len(), lazy.UseHash, li, lres, ri, rres)
				}
				what = "probe"
			}
			if lazy.Len() != ref.count || lazy.Lookups != ref.Lookups ||
				lazy.CacheHits != ref.CacheHits || lazy.TotalSearched != ref.TotalSearched {
				t.Fatalf("script %d step %d (%s): len/lookups/hits/searched %d/%d/%d/%d, reference %d/%d/%d/%d",
					script, step, what, lazy.Len(), lazy.Lookups, lazy.CacheHits, lazy.TotalSearched,
					ref.count, ref.Lookups, ref.CacheHits, ref.TotalSearched)
			}
		}
	}
	if mapProbes < 1000 || listProbes < 1000 || resets < 50 {
		t.Errorf("%d probes through the map, %d hash probes answered by the list, %d resets: the scripts no longer cover both sides of hashAfter",
			mapProbes, listProbes, resets)
	}
}
