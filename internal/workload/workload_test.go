package workload

import (
	"testing"

	"repro/internal/lab"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestFanInATMSwitch(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 11}, 5)
	if l.Switch == nil {
		t.Fatal("5-host ATM topology did not build a switch")
	}
	res, err := FanIn{Size: 200, Requests: 10, Warmup: 1}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 4*10 {
		t.Fatalf("measured %d requests, want 40", res.Requests)
	}
	if res.Errors != 0 {
		t.Fatalf("%d corrupt exchanges", res.Errors)
	}
	s := res.Sample()
	if s.Min() <= 0 {
		t.Fatalf("non-positive latency: min %.1f", s.Min())
	}
	q := s.Quantiles()
	t.Logf("fan-in 4 clients: mean %.0f p50 %.0f p95 %.0f p99 %.0f µs",
		s.Mean(), q.P50, q.P95, q.P99)
	if q.P50 > q.P95 || q.P95 > q.P99 {
		t.Fatalf("percentiles not monotone: %v", q)
	}
}

func TestFanInEtherSegment(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkEther, Seed: 4}, 4)
	if l.Segment == nil || l.Segment.NumStations() != 4 {
		t.Fatal("4-host Ethernet topology did not share one segment")
	}
	res, err := FanIn{Size: 100, Requests: 5, Warmup: 1}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 3*5 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", res.Requests, res.Errors)
	}
}

func TestFanInDeterministic(t *testing.T) {
	run := func() []sim.Time {
		l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 21}, 9)
		res, err := FanIn{Size: 200, Requests: 5, Warmup: 1}.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		return res.Latencies
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("latency counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("latency %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestFanInFreshVsReusedBitIdentical is the reuse contract under the
// run-to-completion scheduler: a warm lab that already ran an unrelated
// trial — leaving per-socket and per-stack operation frames behind in
// their caches — must, after Reset, reproduce a fresh lab's fan-in
// latencies bit for bit.
func TestFanInFreshVsReusedBitIdentical(t *testing.T) {
	cfg := lab.Config{Link: lab.LinkATM, Seed: 17}
	gen := FanIn{Size: 200, Requests: 5, Warmup: 1}

	fresh, err := gen.Run(lab.NewTopology(cfg, 5))
	if err != nil {
		t.Fatal(err)
	}

	warm := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 3}, 5)
	if _, err := (Churn{Conns: 4, Size: 64}).Run(warm); err != nil {
		t.Fatal(err)
	}
	if err := warm.Reset(cfg, 0); err != nil {
		t.Fatal(err)
	}
	reused, err := gen.Run(warm)
	if err != nil {
		t.Fatal(err)
	}

	if len(fresh.Latencies) != len(reused.Latencies) {
		t.Fatalf("latency counts differ: fresh %d vs reused %d",
			len(fresh.Latencies), len(reused.Latencies))
	}
	for i := range fresh.Latencies {
		if fresh.Latencies[i] != reused.Latencies[i] {
			t.Fatalf("latency %d diverges: fresh %v vs reused %v",
				i, fresh.Latencies[i], reused.Latencies[i])
		}
	}
	if fresh.Elapsed != reused.Elapsed {
		t.Fatalf("elapsed diverges: fresh %v vs reused %v", fresh.Elapsed, reused.Elapsed)
	}
}

func TestChurnReleasesPCBs(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 8}, 3)
	res, err := Churn{Conns: 6, Size: 64}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 2*6 || res.Errors != 0 {
		t.Fatalf("requests=%d errors=%d", res.Requests, res.Errors)
	}
	// Every cycle inserted and deleted real PCBs; after the event loop
	// drains (TIME_WAIT included) only the listener's PCB remains on the
	// server and none on the clients.
	if n := l.Hosts[0].TCP.Table.Len(); n != 1 {
		t.Fatalf("server table holds %d PCBs after churn, want 1 (listener)", n)
	}
	for i, h := range l.Hosts[1:] {
		if n := h.TCP.Table.Len(); n != 0 {
			t.Fatalf("client %d table holds %d PCBs after churn, want 0", i, n)
		}
	}
}

func TestBulkDeliversAllBytes(t *testing.T) {
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 5}, 4)
	res, err := Bulk{Bytes: 40000, Chunk: 8000}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d short transfers", res.Errors)
	}
	if res.Bytes != 3*40000 {
		t.Fatalf("server consumed %d bytes, want %d", res.Bytes, 3*40000)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestEchoMatchesLabBenchmark(t *testing.T) {
	// The echo generator must reproduce lab.RunEcho exactly: same
	// topology, same seed, same RTTs.
	direct := lab.New(lab.Config{Link: lab.LinkATM, Seed: 42})
	want, err := direct.RunEcho(200, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 42}, 2)
	res, err := Echo{Size: 200, Iterations: 10, Warmup: 2}.Run(l)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Latencies) != len(want.RTTs) {
		t.Fatalf("%d latencies vs %d RTTs", len(res.Latencies), len(want.RTTs))
	}
	for i := range want.RTTs {
		if res.Latencies[i] != want.RTTs[i] {
			t.Fatalf("iteration %d: workload %v vs lab %v", i, res.Latencies[i], want.RTTs[i])
		}
	}
}

func TestFanInHashBeatsListAtHighPopulation(t *testing.T) {
	// The §3 prediction under a live population: with 16 concurrent
	// connections interleaving at the server, the hash organization must
	// demultiplex cheaper than the linear list.
	run := func(hash bool) float64 {
		cfg := lab.Config{Link: lab.LinkATM, HashPCBs: hash, Seed: 33}
		l := lab.NewTopology(cfg, 17)
		res, err := FanIn{Size: 200, Requests: 8, Warmup: 1}.Run(l)
		if err != nil {
			t.Fatal(err)
		}
		return res.Sample().Mean()
	}
	list, hash := run(false), run(true)
	t.Logf("16-client fan-in: list %.0f µs, hash %.0f µs", list, hash)
	if hash >= list {
		t.Fatalf("hash PCBs (%.0f µs) did not beat the list (%.0f µs) under live fan-in", hash, list)
	}
}

// TestEchoServerRecyclesReadBuffers pins the accept loop's buffer
// free-list on the 10k benchmark's shape, a staggered fan-in: handlers
// borrow their 16 KB read buffer and hand it back at EOF, so the server
// ends up holding no more buffers than it ever had connections open at
// once — counted here independently, from the handler processes — rather
// than one per connection accepted.
func TestEchoServerRecyclesReadBuffers(t *testing.T) {
	const clients = 12
	l := lab.NewTopology(lab.Config{Link: lab.LinkATM, Seed: 5}, clients+1)
	tr := tcpTransport{}
	ln, err := tr.listen(l.Hosts[0], Port)
	if err != nil {
		t.Fatal(err)
	}
	var handlers []*sim.Proc
	peak := 0
	server := &acceptLoopFrame{
		ln: ln, n: clients,
		accepted: func(al *acceptLoopFrame, i int, c conn) bool {
			handlers = append(handlers, l.Env.Spawn("handler", &serveEchoFrame{c: c, al: al}))
			open := 0
			for _, h := range handlers {
				if !h.Done() {
					open++
				}
			}
			if open > peak {
				peak = open
			}
			return true
		},
	}
	l.Env.Spawn("server", server)

	r := newRun(l.Cluster(), 0, 1, stats.Config{})
	for ci := 0; ci < clients; ci++ {
		l.Env.SpawnAt(sim.Time(ci)*5000*sim.Microsecond, "client", &fanInClientFrame{
			r: r, ci: ci, c: tr.client(l.Hosts[ci+1], Port), size: 200, reqs: 1,
		})
	}
	res, err := r.finish("fanin", "requests", 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d corrupt exchanges", res.Errors)
	}

	if len(handlers) != clients || peak == 0 || peak >= clients {
		t.Fatalf("%d handlers, peak %d open at once: the stagger should keep the peak well under %d",
			len(handlers), peak, clients)
	}
	if n := len(server.bufs); n == 0 || n > peak {
		t.Errorf("free-list holds %d buffers after %d connections, want 1..%d (the peak open at once)",
			n, clients, peak)
	}
	for _, b := range server.bufs {
		if len(b) != serverBufLen {
			t.Errorf("recycled buffer has length %d, want %d", len(b), serverBufLen)
		}
	}
}
