package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lab"
	"repro/internal/workload"
)

func TestRunFanInText(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "fanin", "-hosts", "5", "-reqs", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fanin/4c/list") || !strings.Contains(out, "p99") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunCompareOrgs(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "churn", "-hosts", "3", "-conns", "4", "-compare"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "churn/2c/list") || !strings.Contains(out, "churn/2c/hash") {
		t.Fatalf("expected both organizations:\n%s", out)
	}
}

// TestFanIn16ParallelBitIdentical is the acceptance check: a 16-client
// fan-in run's JSON output is identical at any -parallel level for the
// same seed.
func TestFanIn16ParallelBitIdentical(t *testing.T) {
	jsonAt := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "fanin", "-hosts", "17", "-reqs", "3",
			"-trials", "4", "-seed", "1994", "-parallel", workers, "-json"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("1")
	parallel := jsonAt("4")
	if serial != parallel {
		t.Fatal("16-client fan-in JSON differs between -parallel 1 and 4")
	}
	var outs []struct {
		Hosts    int     `json:"hosts"`
		Requests int     `json:"requests"`
		P99      float64 `json:"p99_us"`
	}
	if err := json.Unmarshal([]byte(serial), &outs); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(outs) != 4 {
		t.Fatalf("got %d outcomes, want 4", len(outs))
	}
	for _, o := range outs {
		if o.Hosts != 17 || o.Requests != 16*3 || o.P99 <= 0 {
			t.Fatalf("implausible outcome: %+v", o)
		}
	}
}

func TestRunBulkAndEcho(t *testing.T) {
	for wl, knob := range map[string][]string{"bulk": {"-bytes", "20000"}, "echo": {"-reqs", "4"}} {
		var buf bytes.Buffer
		args := append([]string{"-workload", wl, "-hosts", "2", "-json"}, knob...)
		if err := run(args, &buf); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		var outs []struct {
			Workload string `json:"workload"`
			Requests int    `json:"requests"`
		}
		if err := json.Unmarshal(buf.Bytes(), &outs); err != nil {
			t.Fatalf("%s: invalid JSON: %v", wl, err)
		}
		if len(outs) != 1 || outs[0].Workload != wl || outs[0].Requests == 0 {
			t.Fatalf("%s: unexpected outcome %+v", wl, outs)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "warp"},
		{"-hosts", "1"},
		{"-link", "token-ring"},
		{"-trials", "0"},
		{"-loss", "1.5"},
		{"-link", "ether", "-loss", "0.001"},
		{"-shards", "-1"},
		{"-shards", "4", "-link", "ether"},
		{"-shards", "4", "-loss", "0.001"},
		{"-shards", "4", "-burstloss", "0.001"},
		{"-burstloss", "1.5"},
		{"-crosstraffic", "-1"},
		{"-qdisc", "codel"},
		{"-link", "ether", "-qdisc", "red"},
		{"-transport", "sctp"},
		{"-workload", "churn", "-transport", "rudp"},
		{"-workload", "bulk", "-crosstraffic", "2"},
		{"-workload", "loaded", "-link", "ether"},
		{"-workload", "loaded", "-fabric", "fattree"},
		{"-workload", "loaded", "-transport", "rudp"},
		{"-workload", "loaded", "-loss", "0.001"},
		{"-workload", "loaded", "-stream", "on"},
		{"-workload", "loaded", "-stagger", "100"},
		{"-workload", "loaded", "-compare"},
		{"-workload", "loaded", "-hashpcb"},
		{"-workload", "loaded", "-trials", "2"},
		// Fault flags in incompatible workloads, same convention: rejected
		// rather than silently dropped.
		{"-faults", "-1"},
		{"-crashat", "-1"},
		{"-downtime", "-1"},
		{"-workload", "fanin", "-crashat", "100"},
		{"-workload", "fanin", "-downtime", "100"},
		{"-workload", "loaded", "-faults", "2"},
		{"-workload", "bulk", "-faults", "1"},
		{"-workload", "churn", "-faults", "1"},
		{"-workload", "faults", "-link", "ether"},
		{"-workload", "faults", "-fabric", "fattree"},
		{"-workload", "faults", "-transport", "rudp"},
		{"-workload", "faults", "-loss", "0.001"},
		{"-workload", "faults", "-burstloss", "0.001"},
		{"-workload", "faults", "-qdisc", "red"},
		{"-workload", "faults", "-crosstraffic", "1"},
		{"-workload", "faults", "-faults", "2"},
		{"-workload", "faults", "-stream", "on"},
		{"-workload", "faults", "-stagger", "100"},
		{"-workload", "faults", "-compare"},
		{"-workload", "faults", "-hashpcb"},
		{"-workload", "faults", "-trials", "2"},
		{"-workload", "faults", "-shards", "2"},
		// Flags the workload never reads, and values no workload accepts.
		{"-workload", "churn", "-stagger", "50"},
		{"-workload", "bulk", "-stream", "on"},
		{"-workload", "fanin", "-bytes", "5"},
		{"-workload", "fanin", "-conns", "7"},
		{"-workload", "bulk", "-bytes", "-5"},
		{"-workload", "churn", "-conns", "-1"},
		{"-fabric", "fattree", "-leafports", "-3"},
		{"-hosts", "2", "-qdisc", "red"},
		{"-loss", "NaN"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestRunLoadedText smokes the loaded study end to end through the CLI:
// both transports under RED, burst loss, and cross traffic.
func TestRunLoadedText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "loaded", "-hosts", "4", "-reqs", "3",
		"-qdisc", "red", "-burstloss", "0.001", "-crosstraffic", "1"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"loaded fan-in", "tcp", "rudp", "Server CPU attribution"} {
		if !strings.Contains(out, want) {
			t.Fatalf("loaded output missing %q:\n%s", want, out)
		}
	}
}

// TestRunFaultsText smokes the crash-recovery study end to end through
// the CLI: both transports under the same seeded crash schedule, with
// recovery quantiles in the rendered table.
func TestRunFaultsText(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "faults", "-hosts", "4", "-reqs", "4",
		"-crashat", "100", "-downtime", "400"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"crash recovery", "tcp", "rudp", "Rec mean", "Goodput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faults output missing %q:\n%s", want, out)
		}
	}
}

// TestFaultsParallelBitIdentical pins the fault study's determinism
// contract: same crash schedule, same seed, byte-identical JSON at any
// -parallel level.
func TestFaultsParallelBitIdentical(t *testing.T) {
	jsonAt := func(workers string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "faults", "-hosts", "4", "-reqs", "4",
			"-crashat", "100", "-downtime", "400",
			"-seed", "7", "-parallel", workers, "-json"}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("1")
	parallel := jsonAt("2")
	if serial != parallel {
		t.Fatal("fault study JSON differs between -parallel 1 and 2")
	}
	var res struct {
		Rows []struct {
			Transport string
			Outages   int
			Errors    int
		}
	}
	if err := json.Unmarshal([]byte(serial), &res); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows, want 2 (tcp and rudp)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Outages == 0 {
			t.Fatalf("%s: no outages recorded; the crash should sever every client", row.Transport)
		}
		if row.Errors != 0 {
			t.Fatalf("%s: %d errors, want 0", row.Transport, row.Errors)
		}
	}
}

// TestFanInLinkFlapsShardedBitIdentical pins the shard-safe fault
// subset: a fan-in under seeded link flaps produces byte-identical JSON
// serial and host-sharded, because each flap flips per-entity state on
// the entity's owning shard from the host's own splitmix64 stream.
func TestFanInLinkFlapsShardedBitIdentical(t *testing.T) {
	jsonAt := func(shards string) string {
		var buf bytes.Buffer
		err := run([]string{"-workload", "fanin", "-hosts", "9", "-reqs", "3",
			"-faults", "2", "-seed", "5", "-json", "-shards", shards}, &buf)
		if err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	serial := jsonAt("0")
	for _, shards := range []string{"2", "4"} {
		if sharded := jsonAt(shards); sharded != serial {
			t.Fatalf("-shards %s: link-flap fan-in JSON diverged from serial", shards)
		}
	}
}

// goldenLoadSHA256 is the SHA-256 of the 8-client fan-in JSON at seed
// 1994, captured on the pre-overhaul (PR 3) tree; see the matching
// golden tests in cmd/tables and cmd/pkttrace.
const goldenLoadSHA256 = "51d27d1a4df774f64a0dd433ed4a94ef553a299cace3dccdcf5c51200d143c85"

func TestGoldenJSONByteIdentical(t *testing.T) {
	for _, parallel := range []string{"1", "4"} {
		var buf bytes.Buffer
		args := []string{"-workload", "fanin", "-hosts", "9", "-reqs", "4",
			"-seed", "1994", "-json", "-parallel", parallel}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenLoadSHA256 {
			t.Errorf("-parallel %s: output hash %s, want golden %s (simulated results changed)",
				parallel, got, goldenLoadSHA256)
		}
	}
}

// TestGoldenJSONShardedByteIdentical gates sharded execution against the
// same golden hash as the serial path: -shards changes how the event
// loop is driven, never what it computes, so the sharded run must
// reproduce the PR 3 golden output to the byte.
func TestGoldenJSONShardedByteIdentical(t *testing.T) {
	for _, shards := range []string{"2", "4", "7"} {
		var buf bytes.Buffer
		args := []string{"-workload", "fanin", "-hosts", "9", "-reqs", "4",
			"-seed", "1994", "-json", "-shards", shards}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenLoadSHA256 {
			t.Errorf("-shards %s: output hash %s, want golden %s (sharded run diverged from serial)",
				shards, got, goldenLoadSHA256)
		}
	}
}

// goldenRUDPSHA256 is the SHA-256 of the same 8-client fan-in JSON over
// the reliable-UDP transport, captured when the transport landed and
// re-captured when the header gained the AckNone flag (packets sent
// before the first reception shrank to 3-byte headers).
const goldenRUDPSHA256 = "33907662ee75ec430eff746f8f583ce8d9e0c7ebc84639fddcdc85403aff6976"

// TestGoldenRUDPByteIdentical pins the rudp fan-in output byte for byte,
// serial and host-sharded: the rival transport is as deterministic as
// TCP, and sharding must not perturb it.
func TestGoldenRUDPByteIdentical(t *testing.T) {
	for _, shards := range []string{"0", "2", "3"} {
		var buf bytes.Buffer
		args := []string{"-workload", "fanin", "-transport", "rudp",
			"-hosts", "9", "-reqs", "4", "-seed", "1994", "-json", "-shards", shards}
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != goldenRUDPSHA256 {
			t.Errorf("-shards %s: rudp output hash %s, want golden %s", shards, got, goldenRUDPSHA256)
		}
	}
}

// parityGoldens pin the generators that ride the byte-stream source and
// drain frames (internal/workload: bulk, and the cross flows beside a
// fan-in and inside the loaded study), recorded before those frames moved
// behind the transport seam: SHA-256 of stdout, identical at any
// -parallel and, where the form is shardable, at any -shards.
var parityGoldens = []struct {
	name    string
	args    []string
	sharded bool
	sha256  string
}{
	{"bulk", []string{"-workload", "bulk", "-hosts", "5", "-bytes", "65536"}, false,
		"c9be23c5e4455bf0c1bceab3771a271a77cf9c60a6dfa0d4dd0cfa2f23a97bae"},
	{"bulk-loss", []string{"-workload", "bulk", "-hosts", "5", "-bytes", "65536", "-loss", "0.0005"}, false,
		"a6771f9ee1e707511ea4f20910b86ef744d8047d71ee04c8a7688d0eb5278d21"},
	{"bulk-9", []string{"-workload", "bulk", "-hosts", "9", "-bytes", "32768"}, true,
		"1eec66cabf2d8d25fa6dbea55470ce13c96ee3707653cba4af4a875cf9c74af6"},
	{"fanin-cross", []string{"-workload", "fanin", "-hosts", "9", "-reqs", "4", "-crosstraffic", "3"}, true,
		"232dd41e3e3e87e3bdf19d346de497f3e1a783f505a8a3723f7ed629daf713d9"},
	{"loaded", []string{"-workload", "loaded", "-hosts", "6", "-reqs", "4", "-qdisc", "red",
		"-burstloss", "0.002", "-crosstraffic", "2"}, false,
		"d6367c0e2983b27b5aec48fcef50a9b3c599280071cde8540a49c75ce035d572"},
}

func TestStreamParityByteIdentical(t *testing.T) {
	for _, g := range parityGoldens {
		shards := []string{"1"}
		if g.sharded {
			shards = append(shards, "4")
		}
		for _, parallel := range []string{"1", "2"} {
			for _, sh := range shards {
				var buf bytes.Buffer
				args := append(append([]string{}, g.args...),
					"-seed", "1994", "-json", "-parallel", parallel, "-shards", sh)
				if err := run(args, &buf); err != nil {
					t.Fatalf("%s: %v", g.name, err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != g.sha256 {
					t.Errorf("%s -parallel %s -shards %s: output hash %s, want %s",
						g.name, parallel, sh, got, g.sha256)
				}
			}
		}
	}
}

// flagValues lists, for every flag but -workload, values worth setting:
// ones some workload runs with and ones no workload accepts.
var flagValues = map[string][]string{
	"hosts":        {"2", "4", "1"},
	"conns":        {"2", "0"},
	"reqs":         {"2", "-3"},
	"size":         {"0", "64", "-1"},
	"bytes":        {"4096", "-5"},
	"link":         {"atm", "ether", "fddi"},
	"loss":         {"0", "0.0005", "1.5", "NaN"},
	"hashpcb":      {"true"},
	"compare":      {"true"},
	"trials":       {"2", "0"},
	"parallel":     {"1", "2", "-1"},
	"seed":         {"7"},
	"json":         {"true"},
	"stream":       {"on", "off", "auto", "maybe"},
	"stagger":      {"50", "-1", "-2"},
	"fabric":       {"hub", "fattree", "mesh"},
	"leafports":    {"2", "-3"},
	"shards":       {"0", "2", "-1"},
	"transport":    {"tcp", "rudp", "sctp"},
	"qdisc":        {"none", "red", "drr", "codel"},
	"burstloss":    {"0.002", "1.5"},
	"crosstraffic": {"1", "-1"},
	"faults":       {"1", "-1"},
	"crashat":      {"100", "-1"},
	"downtime":     {"200", "-1"},
}

// TestEveryFlagRunsOrIsRejectedByName is the flag table's property: with
// any one flag set (and for a seeded sample of pairs), under every
// workload, run either succeeds or fails naming a flag that was set — it
// never panics, and never fails on a flag it had silently accepted.
func TestEveryFlagRunsOrIsRejectedByName(t *testing.T) {
	var names, wls []string
	for name := range flagRules {
		if name != "workload" {
			names = append(names, name)
			if len(flagValues[name]) == 0 {
				t.Errorf("flag -%s has a rule but no test values", name)
			}
		}
	}
	for wl := range workloads {
		wls = append(wls, wl)
	}
	sort.Strings(names)
	sort.Strings(wls)
	// check runs one workload with name, value pairs of flags set.
	check := func(wl string, set ...string) {
		args := []string{"-workload", wl}
		for i := 0; i < len(set); i += 2 {
			args = append(args, "-"+set[i]+"="+set[i+1])
		}
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("args %v: panic: %v", args, r)
			}
		}()
		err := run(args, &bytes.Buffer{})
		if err == nil {
			return
		}
		for i := 0; i < len(set); i += 2 {
			if strings.Contains(err.Error(), "-"+set[i]) {
				return
			}
		}
		t.Errorf("args %v: error names none of the flags set: %v", args, err)
	}
	for _, wl := range wls {
		for _, name := range names {
			for _, v := range flagValues[name] {
				check(wl, name, v)
			}
		}
	}
	rng := rand.New(rand.NewSource(1994))
	pick := func() (name, value string) {
		name = names[rng.Intn(len(names))]
		return name, flagValues[name][rng.Intn(len(flagValues[name]))]
	}
	for i := 0; i < 400; i++ {
		a, av := pick()
		b, bv := pick()
		if a != b {
			check(wls[rng.Intn(len(wls))], a, av, b, bv)
		}
	}
	// A flag that is fine alone can be wrong beside another: an rudp
	// message rides one datagram, and 4000 bytes fit ATM's MTU but not
	// Ethernet's. The run panicked in ip_output before -size was checked.
	check("fanin", "transport", "rudp", "link", "ether", "size", "4000")
	if err := run([]string{"-workload", "fanin", "-transport", "rudp", "-link", "ether", "-size", "4000"}, &bytes.Buffer{}); err == nil {
		t.Error("a 4000-byte rudp message on Ethernet ran")
	}
}

// TestRUDPSizeLimitPerLink: on each link the largest rudp message one
// datagram carries runs, and one byte more is refused naming -size.
func TestRUDPSizeLimitPerLink(t *testing.T) {
	for _, flagValue := range []string{"atm", "ether"} {
		link, _ := lab.ParseLinkKind(flagValue)
		limit := workload.RUDPMaxMessage(lab.MaxMTU(link))
		args := func(size int) []string {
			return []string{"-workload", "fanin", "-transport", "rudp", "-hosts", "2", "-reqs", "1",
				"-link", flagValue, "-size", strconv.Itoa(size)}
		}
		if err := run(args(limit), &bytes.Buffer{}); err != nil {
			t.Errorf("%v: a %d-byte message: %v", link, limit, err)
		}
		if err := run(args(limit+1), &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-size") {
			t.Errorf("%v: a %d-byte message: %v, want a refusal naming -size", link, limit+1, err)
		}
	}
}
