GO ?= go

# Every test target carries an explicit -timeout and every smoke target a
# wall-clock deadline: a reintroduced livelock (the watchdog tier's whole
# reason to exist) must fail CI in minutes, not ride the 10-minute
# per-package default or hang a -race smoke until the job is killed.
SMOKE_DEADLINE ?= 600

.PHONY: all fmt fmt-check vet loc build test race bench bench-smoke bench-check benchdiff baseline bench-wallclock baseline-wallclock alloc-census tables load-smoke load-scale-smoke shard-smoke loaded-smoke docs-check fuzz-flags

all: build test

## fmt: rewrite all Go files with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean (what CI runs)
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## vet: static analysis
vet:
	$(GO) vet ./...

## loc: non-test Go lines per package outside bench/, repo total last —
## the counts a simplicity PR quotes
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | xargs wc -l | \
		awk '{ d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1 } END { for (d in n) print n[d], d }' | sort -k2

## build: compile every package
build:
	$(GO) build ./...

## test: the tier-1 suite
test:
	$(GO) test -timeout 240s ./...

## race: the tier-1 suite under the race detector
race:
	$(GO) test -race -timeout 600s ./...

## bench: the full benchmark suite with memory stats
bench:
	$(GO) test -run='^$$' -bench=. -benchmem -timeout 1800s .

## bench-smoke: one iteration of every benchmark (deterministic metrics)
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 300s .

## bench-check: build and test the benchmark harness (what CI runs).
## bench/ is its own module, so the root ./... never compiles it: an API
## drift in what it calls (lab.Cluster, the workload generators) would
## otherwise surface only when the benchmark itself is run.
bench-check:
	$(GO) test -C bench -timeout 300s ./...

## benchdiff: compare the smoke run's paper metrics against the baseline
benchdiff:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 300s . | \
		$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json

## baseline: regenerate BENCH_baseline.json from a smoke run
baseline:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 300s . | \
		$(GO) run ./cmd/benchdiff -write BENCH_baseline.json

## bench-wallclock: run the wall-clock tier and gate its allocation
## tripwires — B/op, allocs/rtt, allocs/run (the benchmarks no census
## golden runs), barrier rounds and hand-offs, and peak heap (upward only,
## on the B/op band) — against BENCH_wallclock.json. ns/op and allocs/op
## are printed, not gated: wall-clock claims are bench/'s, allocation
## sites cmd/alloccensus's goldens' (what CI runs).
WALLCLOCK_TOL_BYTES ?= 0.35
bench-wallclock:
	$(GO) test -run='^$$' -bench=Wallclock -benchmem -benchtime=2x -timeout 600s . | \
		$(GO) run ./cmd/benchdiff -wallclock -tol-bytes $(WALLCLOCK_TOL_BYTES) \
			-baseline BENCH_wallclock.json

## baseline-wallclock: regenerate BENCH_wallclock.json on this machine
baseline-wallclock:
	$(GO) test -run='^$$' -bench=Wallclock -benchmem -benchtime=2x -timeout 600s . | \
		$(GO) run ./cmd/benchdiff -wallclock -write BENCH_wallclock.json

## alloc-census: where the served fan-in, the loaded grid and the small
## echoes allocate, site by site, in heap objects and bytes — the 1,001-host
## fat tree, one replica of loaded-grid's six transport x qdisc trials, then
## two replicas of echo-small's 20-cell grid — and what the fat tree costs
## to build idle, every allocation sampled (docs/PERFORMANCE.md "Capturing
## a profile"). cmd/alloccensus/testdata/<shape>.golden pins each; `go test
## ./cmd/alloccensus -update` rewrites them after a deliberate change
alloc-census:
	$(GO) run ./cmd/alloccensus -hosts 1001
	$(GO) run ./cmd/alloccensus -shape loaded
	$(GO) run ./cmd/alloccensus -shape echo
	$(GO) run ./cmd/alloccensus -shape idle

## tables: regenerate every table and figure of the paper's evaluation
tables:
	$(GO) run ./cmd/tables

## load-smoke: a 16-client fan-in under both PCB organizations (what CI runs)
load-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run ./cmd/load -workload fanin -hosts 17 -reqs 4 -compare -seed 1994 -parallel 2 -json > /dev/null

## load-scale-smoke: a 1024-host fan-in on the fat-tree fabric under the
## race detector — the whole scale path (on-demand VC setup, trunk VCI
## allocation, streaming statistics, staggered starts) end to end (what
## CI runs). The stagger stays above the server's per-client service
## time so the smoke cannot drift into retransmission collapse.
load-scale-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run -race ./cmd/load -workload fanin -hosts 1024 -reqs 1 -hashpcb \
		-fabric fattree -stream on -stagger 5500 -json > /dev/null

## shard-smoke: a 1024-host fat-tree fan-in split across 4 shards under
## the race detector (what CI runs). Rounds that release several shards
## run their windows concurrently, on workers and the coordinator, and a
## shard's window moves between the two from round to round, so this
## exercises every cross-shard path — staged cell injection, barrier
## control transfers, VC setup across cuts — with the race detector
## watching, and the run's digest still matches the serial golden (the
## sharded golden tests pin that separately). Then the other generators
## and the other transport on a small fat tree at 4 shards: every
## generator records into one set of slot-indexed arrays that several
## shards write at once, and the race detector is what proves each slot
## has one writer. The fifth run adds RED: fat tree + qdisc + shards is
## the one regime whose lookahead depends on the trial configuration. The
## last adds cross flows: their source runs on each flow's own shard and
## their sinks on the server's, through the frames bulk shares.
SHARD_SMOKE_SMALL = $(GO) run -race ./cmd/load -hosts 33 -fabric fattree -leafports 4 -shards 4 -json
shard-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run -race ./cmd/load -workload fanin -hosts 1024 -reqs 1 -hashpcb \
		-fabric fattree -stream on -stagger 5500 -shards 4 -json > /dev/null
	timeout $(SMOKE_DEADLINE) $(SHARD_SMOKE_SMALL) -workload churn -conns 3 > /dev/null
	timeout $(SMOKE_DEADLINE) $(SHARD_SMOKE_SMALL) -workload bulk -bytes 16384 > /dev/null
	timeout $(SMOKE_DEADLINE) $(SHARD_SMOKE_SMALL) -workload fanin -reqs 4 -transport rudp > /dev/null
	timeout $(SMOKE_DEADLINE) $(SHARD_SMOKE_SMALL) -workload fanin -reqs 4 -qdisc red > /dev/null
	timeout $(SMOKE_DEADLINE) $(SHARD_SMOKE_SMALL) -workload fanin -reqs 4 -crosstraffic 3 > /dev/null

## loaded-smoke: the congested-regime tier end to end under the race
## detector (what CI runs): both transports (TCP and reliable UDP)
## through the loaded fan-in study with RED on every egress port,
## Gilbert–Elliott burst loss, and heavy-tailed cross traffic.
loaded-smoke:
	timeout $(SMOKE_DEADLINE) $(GO) run -race ./cmd/load -workload loaded -hosts 6 -reqs 4 \
		-qdisc red -burstloss 0.002 -crosstraffic 2 -seed 1994 -json > /dev/null

## fuzz-flags: every command's FuzzFlags for 10 s: arbitrary argument
## vectors end in a run or a refusal naming a flag that was set (what CI runs)
FLAG_COMMANDS = alloccensus benchdiff breakdown cksum docscheck load pkttrace tables tcplat
fuzz-flags:
	for c in $(FLAG_COMMANDS); do \
		$(GO) test -run='^$$' -fuzz=FuzzFlags -fuzztime=10s -timeout 300s ./cmd/$$c/ || exit 1; done

## docs-check: execute every command quoted in README.md and docs/ (smoke mode)
docs-check:
	timeout $(SMOKE_DEADLINE) $(GO) run ./cmd/docscheck README.md docs
