package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"

	"repro/cmd/internal/cli/clitest"
)

var update = flag.Bool("update", false, "rewrite testdata/<shape>.golden from this run, keeping each line's stated bound")

// takeCensus takes shape's census at its default size.
func takeCensus(t *testing.T, shape string) census {
	t.Helper()
	c, err := take(shape, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// release is the Go release a census is recorded with: inlining, escape
// analysis and map growth differ between releases, patch releases aside.
func release() string {
	v := runtime.Version()
	if i := strings.Index(v, "."); i >= 0 {
		if j := strings.Index(v[i+1:], "."); j >= 0 {
			return v[:i+1+j]
		}
	}
	return v
}

// raceBuild reports whether the test binary runs under the race
// detector, whose compiler keeps temporaries a plain build does not
// allocate (Switch.AddVC's append(s, make(…)…) among them).
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestCensusGoldens is the allocation ledger: every shape's census — the
// objects and bytes each site allocates, and the run's Mallocs total —
// must equal testdata/<shape>.golden, within the bound a golden line
// states where a count does not repeat from run to run. A difference
// fails naming the site, its golden count and its count now; a site that
// appears or vanishes is a difference. After a deliberate change,
// `go test ./cmd/alloccensus -update` rewrites the goldens and the diff
// is the review.
func TestCensusGoldens(t *testing.T) {
	for _, shape := range []string{"fanin", "idle", "loaded", "echo"} {
		t.Run(shape, func(t *testing.T) {
			path := filepath.Join("testdata", shape+".golden")
			want, rel, bound, err := readGolden(path)
			if err != nil && !*update {
				t.Fatal(err)
			}
			if *update {
				if err := os.WriteFile(path, []byte(golden(takeCensus(t, shape), bound)), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if rel != release() {
				t.Skipf("%s was recorded with %s; this is %s", path, rel, release())
			}
			if raceBuild() {
				t.Skip("the race detector's build allocates temporaries a plain build does not")
			}
			for _, d := range diff(want, takeCensus(t, shape), bound) {
				t.Error(d)
			}
		})
	}
}

// diff lists where now leaves the golden want, given each line's bound.
func diff(want, now census, bound map[string]count) []string {
	var out []string
	if now.what != want.what {
		out = append(out, fmt.Sprintf("ran %q, golden %q", now.what, want.what))
	}
	if b := bound["mallocs"]; abs(now.mallocs-want.mallocs) > b.objects {
		out = append(out, fmt.Sprintf("mallocs: golden %d%s, now %d", want.mallocs, b, now.mallocs))
	}
	sites := now.names()
	for _, name := range want.names() {
		if _, ok := now.sites[name]; !ok {
			sites = append(sites, name)
		}
	}
	for _, name := range sites {
		w, n, b := want.sites[name], now.sites[name], bound[name]
		if abs(n.objects-w.objects) > b.objects || abs(n.bytes-w.bytes) > b.bytes {
			out = append(out, fmt.Sprintf("%s: golden %d objects %d B%s, now %d objects %d B",
				name, w.objects, w.bytes, b, n.objects, n.bytes))
		}
	}
	return out
}

func abs(n int64) int64 {
	if n < 0 {
		return -n
	}
	return n
}

// golden renders c as its golden file holds it: the Go release, then the
// census as census.String renders it, each bounded line ending in its
// bound.
func golden(c census, bound map[string]count) string {
	lines := strings.Split(c.String(), "\n") // what, mallocs, a line a site
	lines[1] += bound["mallocs"].String()
	for i, name := range c.names() {
		lines[2+i] += bound[name].String()
	}
	return release() + "\n" + strings.Join(lines, "\n")
}

// String renders a bound as a golden line ends it: " ±objects", then
// " ±bytes" if bytes may move too; nothing for an exact count.
func (n count) String() string {
	switch {
	case n.bytes != 0:
		return fmt.Sprintf(" ±%d ±%d", n.objects, n.bytes)
	case n.objects != 0:
		return fmt.Sprintf(" ±%d", n.objects)
	}
	return ""
}

// readGolden parses a golden file as golden renders it.
func readGolden(path string) (c census, release string, bound map[string]count, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return c, "", nil, err
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if len(lines) < 3 || !strings.HasPrefix(lines[2], "mallocs ") {
		return c, "", nil, fmt.Errorf("%s: want a release, a shape line and a mallocs line", path)
	}
	release, c.what, c.sites, bound = lines[0], lines[1], map[string]count{}, map[string]count{}
	for i, l := range lines[2:] {
		f := strings.Fields(strings.TrimPrefix(l, "mallocs "))
		var nums []int64
		for len(f) > 0 && len(nums) < 2 {
			n, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				break
			}
			nums, f = append(nums, n), f[1:]
		}
		var bnd count
		for k := len(f) - 1; k >= 0 && strings.HasPrefix(f[k], "±"); k-- {
			n, err := strconv.ParseInt(strings.TrimPrefix(f[k], "±"), 10, 64)
			if err != nil {
				return c, "", nil, fmt.Errorf("%s:%d: bad bound %q", path, i+3, f[k])
			}
			bnd = count{n, bnd.objects}
			f = f[:k]
		}
		switch {
		case i == 0 && len(nums) == 1 && len(f) == 0:
			c.mallocs = nums[0]
			bound["mallocs"] = bnd
		case i > 0 && len(nums) == 2 && len(f) > 0:
			name := strings.Join(f, " ")
			c.sites[name] = count{nums[0], nums[1]}
			if bnd != (count{}) {
				bound[name] = bnd
			}
		default:
			return c, "", nil, fmt.Errorf("%s:%d: malformed line %q", path, i+3, l)
		}
	}
	return c, release, bound, nil
}

// TestCensusRepeats takes one shape's census twice in one process: every
// row must repeat, as the goldens assume. Runtime-only stacks, present in
// some runs and not others, are not sites.
func TestCensusRepeats(t *testing.T) {
	first, second := takeCensus(t, "idle"), takeCensus(t, "idle")
	second.mallocs = first.mallocs // the total counts the runtime's own objects too
	for _, d := range diff(first, second, nil) {
		t.Error(d)
	}
}

// The goldens record what each site allocates now, and -update rewrites
// them. The tests below state what a census must show whatever a golden
// records, in allocations a request, so that rewriting a golden cannot
// accept a connection, a host or a request's state growing a block.

// perReq is what site allocated for each of n requests (hosts for idle).
func perReq(c census, site string, n int) float64 {
	return float64(c.sites[site].objects) / float64(n)
}

// TestCensusNamesConnectionSites runs the census on a small fat tree and
// checks what it exists to show: a connection as one allocation an end —
// tcp.(*Stack).newConn at exactly two a request, and every other
// connection or socket site far below one (the loop's spare output frame
// is made once per overlap it cannot serve).
func TestCensusNamesConnectionSites(t *testing.T) {
	c, err := take("fanin", 33)
	if err != nil {
		t.Fatal(err)
	}
	const requests = 32
	if c.what != "fanin: 32 requests on a 33-host fat tree" {
		t.Fatalf("census of %q", c.what)
	}
	if n := c.sites["tcp.(*Stack).newConn"].objects; n != 2*requests {
		t.Errorf("newConn allocates %d for %d requests, want %d: one Conn an end", n, requests, 2*requests)
	}
	for site := range c.sites {
		if n := perReq(c, site, requests); (strings.HasPrefix(site, "tcp.(*Conn)") || strings.HasPrefix(site, "sock.")) && n >= 0.25 {
			t.Errorf("%s allocates %v a request: connection state outside the Conn", site, n)
		}
	}
}

// TestIdleCensus runs the idle shape on the fan-in's 1,001-host fat tree
// and checks what a topology costs to exist: a host is two allocations
// (lab.buildHost: the Host, with its kernel, stacks and their service
// processes, and its link block), and nothing a host builds allocates on
// its own account — no stack or driver constructor, no process start, no
// closure per driver, no switch port (ports live in their switch's slab).
// What remains is the fabric's per-leaf state — the switch with its port
// slab and index, the two trunks' VCI allocators, about a tenth of a host
// at 64 hosts a leaf — and the build's own slices. Sixteen a host before
// hosts were built in place, and three before switches kept their ports in
// a slab.
func TestIdleCensus(t *testing.T) {
	c := takeCensus(t, "idle")
	const hosts = 1001
	if c.what != "idle: 1001 hosts of an idle 1001-host fat tree" {
		t.Fatalf("census of %q", c.what)
	}
	var total int64
	for _, n := range c.sites {
		total += n.objects
	}
	if n := float64(total) / hosts; n > 2.25 {
		t.Errorf("%v allocations an idle host, want at most 2.25", n)
	}
	if n := c.sites["lab.buildHost"].objects; n != 2*hosts {
		t.Errorf("lab.buildHost allocates %d for %d hosts, want two a host: the Host and its link block", n, hosts)
	}
	if n, ok := c.sites["atm.(*Switch).newPort"]; ok {
		t.Errorf("newPort allocates %d, want nothing: a port lives in its switch's slab", n.objects)
	}
	if n := perReq(c, "atm.NewFabric", hosts); n > 0.05 {
		t.Errorf("NewFabric allocates %v a host, want its own few tables only", n)
	}
	for site := range c.sites {
		for _, p := range []string{"kern.", "ip.", "tcp.", "udp.", "atm.NewAdapter", "atm.NewDriver", "atm.(*Driver)", "atm.(*Adapter)", "sim.(*Env).Spawn"} {
			if n := perReq(c, site, hosts); strings.HasPrefix(site, p) && n >= 0.01 {
				t.Errorf("%s allocates %v an idle host: host state outside the host's two blocks", site, n)
			}
		}
	}
}

// TestFanInCensus holds the served 1,001-host fan-in to what a request
// cannot do without: the two blocks of the client host it runs on
// (lab.buildHost), its two connection ends (tcp.(*Stack).newConn, a Conn
// each) and its share of the switches' VC table growth
// (atm.(*Switch).AddVC). Every other site either builds the fabric — the
// idle census of the same tree shows it too: per-leaf switch state and
// the run's own slices, below 0.2 together — or warms up what the run
// keeps: a chunk of a route or VC-table slab, a map's growth, the loop's
// event heap, arena and mbuf free lists. Those are shared by many
// requests, so each stays below 0.05; a site a request paid for would
// read near 1. Under the race detector AddVC's append keeps a temporary
// (about 7 a request), so its bound holds in a plain build only.
func TestFanInCensus(t *testing.T) {
	c, idle := takeCensus(t, "fanin"), takeCensus(t, "idle")
	const hosts, requests = 1001, 1000
	if c.what != "fanin: 1000 requests on a 1001-host fat tree" {
		t.Fatalf("census of %q", c.what)
	}
	if n := c.sites["lab.buildHost"].objects; n != 2*hosts {
		t.Errorf("lab.buildHost allocates %d for %d hosts, want two a host", n, hosts)
	}
	if n := c.sites["tcp.(*Stack).newConn"].objects; n != 2*requests {
		t.Errorf("newConn allocates %d for %d requests, want two a request", n, requests)
	}
	if n := perReq(c, "atm.(*Switch).AddVC", requests); n > 0.8 && !raceBuild() {
		t.Errorf("Switch.AddVC allocates %v a request, want at most 0.8: its tables' growth", n)
	}
	build, rest := 0.0, 0.0
	for site := range c.sites {
		if site == "lab.buildHost" || site == "tcp.(*Stack).newConn" || site == "atm.(*Switch).AddVC" {
			continue
		}
		n := perReq(c, site, requests)
		if _, ok := idle.sites[site]; ok {
			build += n
			continue
		}
		if n >= 0.05 {
			t.Errorf("%s allocates %v a request, want below 0.05: only the Conns, the host and AddVC's growth are a request's", site, n)
		}
		rest += n
	}
	if build >= 0.2 {
		t.Errorf("building the fabric allocates %.3f a request beyond the hosts, want below 0.2", build)
	}
	t.Logf("%.3f a request building the fabric, %.3f warming the run's tables and scratch", build, rest)
}

// TestFlags: -hosts beside -shape echo, which always runs on the two-host
// pair, is refused rather than ignored, and so is a testbed without a
// switch: -hosts 2 failed on the fat tree naming no flag.
func TestFlags(t *testing.T) {
	clitest.Check(t, run, []clitest.Case{
		{Args: []string{"-shape", "echo", "-hosts", "65"}, Flag: "-hosts"},
		{Args: []string{"-hosts", "1"}, Flag: "-hosts"},
		{Args: []string{"-hosts", "2"}, Flag: "-hosts"},
		{Args: []string{"-shape", "loaded", "-hosts", "2"}, Flag: "-hosts"},
		{Args: []string{"-shape", "mesh"}, Flag: "-shape"},
	})
}

func FuzzFlags(f *testing.F) { clitest.Fuzz(f, &flags, run, map[string]float64{"hosts": 5}) }
