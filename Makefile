# Development targets for the dnscontext repository. `make check` is the
# tier-1 gate: vet, build, the full test suite under the race detector
# (the parallel analysis pipeline makes -race non-optional), the
# observability determinism proof (seeded runs must stay bit-identical
# with metrics/tracing on or off), and one pass of every Go benchmark.
# `make fuzz` (short budget) and `make cover` are the deeper, slower
# companions — run them before touching the trace codecs or the
# classifier. Speed is measured by `bash bench/run.sh` (bench/README.md).

GO ?= go

# Per-target fuzzing budget for `make fuzz`. The corpora under
# testdata/fuzz/ always replay as plain tests, so even FUZZTIME=0
# catches regressions. Targets are package:function pairs.
FUZZTIME ?= 10s

FUZZ_TARGETS := \
	./internal/trace:FuzzReadDNS \
	./internal/trace:FuzzReadConns \
	./internal/trace:FuzzReadDNSJSON \
	./internal/trace:FuzzReadConnsJSON \
	./internal/trace:FuzzTSVFieldKernels \
	./internal/core:FuzzSpillFrames \
	./internal/core:FuzzShardPayload \
	./internal/bulk:FuzzFeed \
	./internal/dnswire:FuzzDecode \
	./internal/dnswire:FuzzReadTCPFrame \
	./internal/dnsserver:FuzzZoneFastPath

.PHONY: check vet build test race obs-determinism stream-parity transport-matrix report-parity scan soak chaos bench-smoke scaling-gate bench-all profile profile-spill profile-live fuzz cover

check: vet build race obs-determinism stream-parity transport-matrix report-parity scan soak chaos bench-smoke

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needs to rewrite:"; echo "$$unformatted"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Bit-identical outputs with observability on vs. off, across worker
# counts. Cheap enough to gate every check; also covered by `race`, but
# a named target keeps the invariant visible.
obs-determinism:
	$(GO) test ./internal/obs -run='TestObservabilityDeterminism|TestObservedSnapshotsAreDeterministic' -count=1

# Stream-vs-in-memory parity: a forced-spill streaming run and a
# multi-process shard merge must be digest-identical to the in-memory
# pipeline (the PR 6 out-of-core invariant). Both paths share one
# classify loop, so the reference classifier — the paper's definitions,
# scanning every lookup of the client per connection — checks the
# classification itself, and the resume tests check the shard-format
# checkpoints, also written and resumed through a streamed TSV source
# (TestResumeThroughStream). Every path converts its records once into the one
# pointer-free record store: the layout, round-trip and store-equality
# tests pin it, the zone tests check that spill frames and shard files
# keep IPv6 zones, and the pinned fingerprint keeps old snapshots
# resumable. Spill frames carry names and answer lists longer than
# 65,535 whole. On the ingest side, a DirSource's one chunk pipeline
# over all its files must match a serial scan of each file (records,
# quarantined lines, budget counts, file-prefixed errors) at Workers
# 1/2/8 and chunk sizes down to one byte, quarantined lines naming their
# file. A budgeted run must stay within what its budget and constants
# bound: under one budget, a trace and four times its connections must
# leave analyses of the same live heap, with the in-memory Digest and
# Table2 (TestBudgetedAnalysisHoldsNoPerConnectionState). End to end,
# the dnsctx command must print one report for a TSV pair, a partition
# directory and a JSON pair at GOMAXPROCS 1 and 2, one summary for a
# spilling run and a shard merge, and refuse every conflicting flag set
# with exit 2 (TestEndToEnd). Also covered by `race`, but named so the
# gate is visible.
stream-parity:
	$(GO) test ./internal/core -run='TestStreamParityWithInMemory|TestMultiProcessMergeMatchesInMemory|TestReference|TestCrashResumeDeterminism|TestResume|TestResidentRecordsPointerFree|TestStoreRoundTrip|TestStoreSameFromDatasetAndStream|KeepsAddressZones|TestCheckpointFingerprintPinned|TestSpillWideFrames|TestBudgetedAnalysisHoldsNoPerConnectionState' -count=1
	$(GO) test ./internal/trace -run='^TestDirSourceMultiFileParity$$' -count=1
	$(GO) test ./cmd/dnsctx -run='^TestEndToEnd$$' -count=1

# Transport matrix: the default (Do53) transport must reproduce the
# pre-transport golden hashes bit for bit, and every transport's trace
# must analyze digest-identically at Workers 1, 2, and 8 under nonzero
# faults (the PR 7 encrypted-transport invariant). Also covered by
# `race`, but named so the gate is visible.
transport-matrix:
	$(GO) test ./internal/core -run='TestGoldenOutputsBitIdentical|TestExplicitUDPTransportMatchesGolden|TestTransportMatrixDigestParity' -count=1

# Report parity: the rendered report and every figure CSV must match
# their pinned hashes (the fault-free golden, and a faulted trace that
# renders the failure section and all four Figure 3 platforms) at
# Workers 1, 2, and 8 under both pairing policies, and several
# goroutines rendering one Analysis at once must all get the serial
# render's bytes. Repeated under the race detector, so the report
# fold's per-worker scratch is race-checked on every check.
report-parity:
	$(GO) test ./internal/core -race -run='^(TestGoldenOutputsBitIdentical|TestReportGoldenWithFaults|TestReportConcurrentRenders)$$' -count=10

# Bulk-scan determinism gate: a pinned simulated scan (fixed seed,
# synthetic feed) must reproduce the golden digest of its sorted JSONL
# stream in testdata/scan_digest.txt, byte-identically at several
# concurrencies (the bulk engine's determinism contract), and the
# golden hash of its dnsscan_* metrics snapshot. Intentional model
# changes regenerate the digest with -update-scan-golden. Also run: the
# "ms" formatter's differential test against strconv, feed lengths on
# and around batch boundaries, and interrupted runs (feed error,
# cancellation, output error) that must leave only whole lines. The
# simulated scan pipelines its batches across goroutines, so the
# determinism and interruption tests also run five times under the race
# detector. The live path's allocation gate runs too: one pooled UDP
# exchange against an in-process zone server, client and server
# together, may allocate only the client's decoded response.
SIMTESTS = TestScanGoldenDigest|TestSimMetricsGolden|TestSimDeterministicAcrossConcurrency|TestSimFeedErrorFlushesWholeLines|TestSimCancelStopsAtBatchBoundary|TestSimWriteErrorStopsRun

scan:
	$(GO) test ./internal/bulk -run='^($(SIMTESTS)|TestAppendMillisMatchesStrconv)$$' -count=1
	$(GO) test ./internal/bulk -race -run='^($(SIMTESTS))$$' -count=5
	$(GO) test ./internal/dnsserver -run='^TestPoolExchangeAllocBudget$$' -count=1

# Chaos soak of the hardened DNS server under the race detector: several
# seconds of mixed valid/garbage/panicking queries against a small queue
# and a live rate limiter, asserting the server answers throughout,
# recovers every panic, and still drains cleanly. SOAKTIME is the flood
# budget; the whole target stays well under 30 s.
SOAKTIME ?= 10s

soak:
	DNSCTX_SOAK=$(SOAKTIME) $(GO) test ./internal/dnsserver -race -run='^TestServerChaosSoak$$' -count=1 -v

# Client-side chaos soak under the race detector: a CHAOSNAMES-name scan
# driven through the real-socket fault proxy (≥2% loss, jitter,
# reordering, duplication, and a blackhole window) with failover,
# adaptive timeouts, hedging, and the circuit breaker all on, asserting
# every feed index lands in the JSONL output exactly once — plus the
# kill-and-resume equivalence proof (the PR 9 invariant).
CHAOSNAMES ?= 100000

chaos:
	DNSCTX_CHAOS_NAMES=$(CHAOSNAMES) $(GO) test ./internal/bulk -race \
		-run='^TestChaosSoak$$|^TestResumeAfterKill$$' -count=1 -timeout=10m -v

# Short-budget coverage-guided fuzzing of the trace codecs and their
# field kernels, the spill frame decoder, the analysis shard decoder
# (shard files and checkpoints), the bulk feed reader, and the DNS wire
# path: the general message decoder (pointer loops, the round trip, the
# name codec against its reference implementations), the TCP framing
# reader, and the server's plain-query fast path against the general
# codec. Go allows one -fuzz target per invocation, so loop over
# package:function pairs.
fuzz:
	@for pt in $(FUZZ_TARGETS); do \
		pkg=$${pt%%:*}; t=$${pt##*:}; \
		echo "--- fuzz $$pkg $$t ($(FUZZTIME))"; \
		$(GO) test $$pkg -run='^$$' -fuzz="^$$t$$" -fuzztime=$(FUZZTIME) || exit 1; \
	done

# Aggregate statement coverage across all packages.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

# One pass of every Go benchmark — the paper-reproduction tables and
# figures, the fault and transport sweeps, and the analysis and scan
# benchmarks that `make profile` and the scaling gate build on — so a
# benchmark that no longer runs fails the check. One sample cannot judge
# a speedup, so the scaling floor is off here; `make scaling-gate`
# enforces it.
bench-smoke:
	DNSCTX_SPEEDUP_FLOOR=0 $(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Scaling gate: BenchmarkAnalyzeParallel measures the 4-worker speedup
# over its own 1-worker baseline and b.Fatal()s if it falls below the
# pinned floor (2.5x, override via DNSCTX_SPEEDUP_FLOOR) — on machines
# with >=4 CPUs. Below 4 CPUs the gate logs a loud SKIP and still
# reports the measurement.
scaling-gate:
	$(GO) test -bench='BenchmarkAnalyzeParallel$$' -run='^$$' -benchtime=3x .

# Full paper reproduction: every table and figure as bench metrics.
bench-all:
	$(GO) test -bench=. -benchmem -run='^$$'

# CPU and allocation profiles of the report-tsv path — AnalyzeSource
# over on-disk TSV partitions, unbudgeted (BenchmarkAnalyzeStream/
# inmemory) — plus the top-function summaries: CPU, allocated objects,
# and allocated bytes, where copies of every record show. This is the
# workflow behind the allocation work (DESIGN.md §7e): profile, indict a
# function, fix it, re-profile, and gate the win with an allocation
# test.
PROFILE_DIR ?= profiles

profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench='BenchmarkAnalyzeStream/inmemory$$' -run='^$$' -benchtime=3x \
		-cpuprofile=$(PROFILE_DIR)/cpu.out -memprofile=$(PROFILE_DIR)/mem.out \
		-o $(PROFILE_DIR)/bench.test
	@echo '--- top CPU ---'
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/cpu.out
	@echo '--- top allocations (alloc_objects) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_objects $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/mem.out
	@echo '--- top allocations (alloc_space) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/mem.out

# The same three summaries for the report-spill path — AnalyzeSource
# over the same partitions under a budget of 1/16 of their resident size
# (BenchmarkAnalyzeStream/budget=1/16) — plus the live heap
# (inuse_space) at the profile's last collection, where state a budgeted
# run keeps past its budget shows.
profile-spill:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -bench='BenchmarkAnalyzeStream/budget=1/16$$' -run='^$$' -benchtime=3x \
		-cpuprofile=$(PROFILE_DIR)/spill-cpu.out -memprofile=$(PROFILE_DIR)/spill-mem.out \
		-o $(PROFILE_DIR)/bench.test
	@echo '--- top CPU ---'
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/spill-cpu.out
	@echo '--- top allocations (alloc_objects) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_objects $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/spill-mem.out
	@echo '--- top allocations (alloc_space) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/spill-mem.out
	@echo '--- live heap (inuse_space) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=inuse_space $(PROFILE_DIR)/bench.test $(PROFILE_DIR)/spill-mem.out

# The same three summaries for the live scan: BenchmarkBulkScanLive runs
# scan-live's load shape (2 server workers, 2 sockets, 512 lookups in
# flight, a metrics registry, a discarded output) over loopback UDP, so
# the profile shows the client, the engine and the in-process server
# together — the codec, the pool's demux, the syscalls and the collector.
profile-live:
	mkdir -p $(PROFILE_DIR)
	$(GO) test ./internal/bulk -bench='^BenchmarkBulkScanLive$$' -run='^$$' -benchtime=3x \
		-cpuprofile=$(PROFILE_DIR)/live-cpu.out -memprofile=$(PROFILE_DIR)/live-mem.out \
		-o $(PROFILE_DIR)/bulk.test
	@echo '--- top CPU ---'
	$(GO) tool pprof -top -nodecount=15 $(PROFILE_DIR)/bulk.test $(PROFILE_DIR)/live-cpu.out
	@echo '--- top allocations (alloc_objects) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_objects $(PROFILE_DIR)/bulk.test $(PROFILE_DIR)/live-mem.out
	@echo '--- top allocations (alloc_space) ---'
	$(GO) tool pprof -top -nodecount=15 -sample_index=alloc_space $(PROFILE_DIR)/bulk.test $(PROFILE_DIR)/live-mem.out
