# Tier-1 verification for builders and CI. `make verify` is the gate every
# change must pass: vet, build, the full test suite, the data plane's
# allocation budgets, the turboca concurrency tests under the race detector
# (the parallel NBO engine's determinism contract is only meaningful if it
# is also data-race free),
# the control-plane chaos suite under the race detector, the coverage
# floor on the packet-path packages, a short fuzz smoke over the
# checked-in corpora, the separate bench/ module's own gate, and a small
# slice of the figure runner through both of its front-ends.

GO ?= go

# Packages whose statement coverage must stay at or above COVER_FLOOR:
# the TCP packet path, the MAC and the testbed that wires them, the
# sequence-space containers under it and the event queue under everything,
# where a silent regression corrupts traffic or reorders a run rather than
# failing a build, plus the backend's telemetry
# store and the control plane — the fleet controller, and the backend,
# planner and topology under it — whose determinism contracts live in
# their tests — and the packages the figures stand on: the fleet
# population (Fig 1's tally), channels, RF environment, fault injection,
# metrics, statistics and PHY rates.
COVER_PKGS  = ./internal/sim ./internal/mac ./internal/testbed ./internal/fastack ./internal/tcpstack ./internal/seqspace ./internal/packet ./internal/littletable ./internal/fleetd ./internal/oracle ./internal/backend ./internal/turboca ./internal/topo ./internal/fleet ./internal/spectrum ./internal/rfenv ./internal/faults ./internal/obs ./internal/stats ./internal/phy
COVER_FLOOR = 75
# The FastACK agent carries the safety guard and invariant checker; its
# guard/chaos/fuzz test battery holds it to a stricter floor.
COVER_FLOOR_FASTACK = 93
# The optimality oracle is the ground truth the planner is measured
# against; an untested branch there silently weakens every gap number.
COVER_FLOOR_ORACLE = 85

# Seconds of random exploration per fuzz target in the smoke pass. The
# checked-in seed corpora always run in full via `make test`; this adds a
# brief live search so verify catches shallow regressions in new code.
FUZZTIME = 5s

.PHONY: verify vet build test allocs race chaos chaos-kill storm cover fuzz bench profile-planner profile-testbed profile-fleet bench-module figures experiments-check gap loc

verify: vet build test allocs race chaos chaos-kill storm cover fuzz bench-module figures experiments-check
	-$(MAKE) gap

# gofmt is part of vet: any file of the root module it would rewrite fails
# the target, listed. (bench/ is a module of its own with its own gate.)
# So is the planner's one-word rand source: a non-test file of
# internal/turboca that builds a standard-library source (4.9 KB, 607 words
# refilled on every re-seed) fails it, listed.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l *.go cmd examples internal); \
		if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	@out=$$(grep -l --exclude='*_test.go' 'rand\.NewSource' internal/turboca/*.go); \
		if [ -n "$$out" ]; then echo "rand.NewSource in internal/turboca (use sim.NewRNG):"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Allocation budgets: the FastACK agent's steady-state segment lifecycle at
# zero allocations and the testbed_downlink shape under its ceiling of
# allocations per simulated second (both skip under -race), building the
# fleet_converge shape's 64 networks and planner inputs under its ceiling,
# and one dense planner pass (BenchmarkPerfNBOStadium's input) under its
# ceiling, so no per-ACC allocation creeps into the two-hop walk, and a
# poll with telemetry history on under its ceiling per AP, so no per-row
# map or per-poll sample slice comes back, and a fleet_durable checkpoint
# render under its ceiling, so the render allocates per network, not per
# AP.
allocs:
	$(GO) test -count=1 -run '^TestSteadyStateZeroAllocs$$' ./internal/fastack
	$(GO) test -count=1 -run '^TestDataPlaneAllocCeiling$$' ./internal/testbed
	$(GO) test -count=1 -run '^TestFleetSetupAllocCeiling$$' ./internal/fleetd
	$(GO) test -count=1 -run '^TestPlannerPassAllocCeiling$$' ./internal/turboca
	$(GO) test -count=1 -run '^TestPollAllocCeiling$$' ./internal/backend
	$(GO) test -count=1 -run '^TestCheckpointRenderAllocs$$' ./internal/fleetd

race:
	$(GO) test -race ./internal/turboca/...
	$(GO) test -race -count=1 -run '^TestConcurrentRunsReportApart$$' ./internal/testbed

# Fault-injected control plane: chaos campus runs, retry/reconcile
# contracts, and the faults package's determinism properties, all under
# the race detector (poll delivery, retries, and planning interleave).
# Plus the data-path chaos acceptance suite: seeded DataChaos campaigns
# over the FastACK testbed (guard lifecycle, invariants, drain-to-zero,
# goodput floors) and the fastack guard/fuzz-regression tests — the guard
# golden trace and the client-ACK walk held to its pre-merge reference
# among them — and the MAC under them, whose tables grow while callbacks
# run. -short keeps the
# campaign to a dozen seeds under -race; `go test ./internal/testbed` runs
# all 100.
chaos:
	$(GO) test -race -run 'TestChaos|TestPollInterval' ./internal/backend/...
	$(GO) test -race ./internal/faults/...
	$(GO) test -race ./internal/mac
	$(GO) test -race -short -run 'TestChaos|TestDataChaos|TestRoaming|TestUplink|TestBidirectional' ./internal/testbed/...
	$(GO) test -race -run 'TestGuard|TestGoldenGuardTrace|TestUplinkMatchesReference|TestSweep|TestRST|TestExportImport|TestInvariant|TestClientAckHeal|TestSpurious|FuzzAgentDatagram' ./internal/fastack/...

# Crash-safety campaign for the fleet control plane: seeded SIGKILLs at
# durable-write instants over a 600-network fleet (half tearing the
# journal's final record), restart-replay equivalence at every write
# boundary (with and without checkpoint failures), restart points taken
# with push retries, delayed reports and radar storms in flight, the
# proof that a failed checkpoint changes nothing, pass supervision (panic
# quarantine, stuck-pass watchdog), and a real SIGKILL re-exec of the
# test binary over the on-disk store — all under the race detector.
# -short keeps the campaign to 8 seeds under
# -race; plain `go test ./internal/fleetd` runs all 50.
chaos-kill:
	$(GO) test -race -short -run 'TestChaosKillCampaign|TestRestartEquivalence|TestRestartPointsUnderChaos|TestCleanRestart|TestCleanCloseOpenRunsNoPasses|TestFailedCheckpointChangesNothing|TestOpenTruncates|TestOpenRejects|TestPanicQuarantine|TestWatchdog|TestRealSIGKILL' ./internal/fleetd

# Hostile-RF survival campaign under the race detector: the campus storm
# acceptance run (correlated DFS sweeps + spectrum-trace interference,
# zero NOP-invariant trips, 10% recovery bound, byte-identical replay),
# the per-strike NOP semantics tests, the 100-seed no-transmit property,
# and the fleet-correlated StormRF determinism tests.
storm:
	$(GO) test -race -run 'TestStorm|TestInstallChannelRefusesNOP|TestPlannerInputCarriesRF' ./internal/backend
	$(GO) test -race -run 'TestStormRF' ./internal/fleetd
	$(GO) test -race ./internal/rfenv

# Coverage floor: fails if any of COVER_PKGS drops below COVER_FLOOR%
# (the fastack package is held to COVER_FLOOR_FASTACK instead).
cover:
	@for pkg in $(COVER_PKGS); do \
		floor=$(COVER_FLOOR); \
		case $$pkg in \
			*/fastack) floor=$(COVER_FLOOR_FASTACK);; \
			*/oracle) floor=$(COVER_FLOOR_ORACLE);; \
		esac; \
		out=$$($(GO) test -cover -count=1 $$pkg | tail -1) || exit 1; \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)%.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "no coverage reported for $$pkg"; exit 1; fi; \
		ok=$$(echo "$$pct $$floor" | awk '{print ($$1 >= $$2) ? 1 : 0}'); \
		if [ "$$ok" != 1 ]; then \
			echo "coverage floor: $$pkg at $$pct% < $$floor%"; exit 1; \
		fi; \
		echo "cover $$pkg $$pct% (floor $$floor%)"; \
	done

# Fuzz smoke: each target explores for FUZZTIME beyond its seed corpus.
# Go allows one -fuzz target per invocation, hence one line per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSanitize$$' -fuzztime $(FUZZTIME) ./internal/turboca
	$(GO) test -run '^$$' -fuzz '^FuzzACCMatchesReference$$' -fuzztime $(FUZZTIME) ./internal/turboca
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/packet
	$(GO) test -run '^$$' -fuzz '^FuzzAgentDatagram$$' -fuzztime $(FUZZTIME) ./internal/fastack
	$(GO) test -run '^$$' -fuzz '^FuzzRanges$$' -fuzztime $(FUZZTIME) ./internal/seqspace
	$(GO) test -run '^$$' -fuzz '^FuzzQueue$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointDecode$$' -fuzztime $(FUZZTIME) ./internal/fleetd

# Planner numbers with spread: BenchmarkRunNBO sweeps Workers on ~600 APs,
# BenchmarkPlannerPass is the one configuration README and obs.go quote, and
# BenchmarkPerfNBOStadium is the dense case; six runs of each. A shared or
# virtualised host drifts between runs, so compare two commits by the
# medians of alternating parent/head runs of this target (ROADMAP aim 1),
# never one run of each.
bench:
	$(GO) test -run=NONE -bench='RunNBO|PlannerPass|PerfNBOStadium' -count 6 -benchmem . ./internal/turboca/...

# Where a dense pass spends its time: CPU-profiles BenchmarkPerfNBOStadium
# (one 400-AP bowl, hops {1,0}), BenchmarkPerfNBOStadiumFast (the same
# bowl, hops {0}: the fast pass plan_dense and the fleet run) and
# BenchmarkPerfDensePass (plan_dense's whole steady pass: the polls between
# deadlines, the planner input and the fast pass) and prints the top of each
# profile. Binary and profiles live in a temporary directory.
profile-planner:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -c -o "$$d/repro.test" . && \
	for bench in PerfNBOStadium PerfNBOStadiumFast PerfDensePass; do \
		"$$d/repro.test" -test.run '^$$' -test.bench "$$bench\$$" -test.benchtime 3s -test.benchmem -test.cpuprofile "$$d/cpu.prof" && \
		$(GO) tool pprof -top -nodecount 20 "$$d/repro.test" "$$d/cpu.prof" || exit 1; \
	done

# Where the data plane spends its time and what it allocates: CPU-profiles
# the steady state of BENCHMARK.json's two testbed shapes
# (BenchmarkPerfTestbedDownlink, BenchmarkPerfTestbedMixed) and prints the
# top of each, then the top allocation sites by object count from a second
# run of the same shape (a memory profile taken in the CPU-profiled run
# inflates mallocgc about threefold in the CPU profile).
profile-testbed:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -c -o "$$d/repro.test" . && \
	for shape in Downlink Mixed; do \
		"$$d/repro.test" -test.run '^$$' -test.bench "PerfTestbed$$shape\$$" -test.benchtime 3s -test.cpuprofile "$$d/cpu.prof" && \
		$(GO) tool pprof -top -nodecount 20 "$$d/repro.test" "$$d/cpu.prof" && \
		"$$d/repro.test" -test.run '^$$' -test.bench "PerfTestbed$$shape\$$" -test.benchtime 3s -test.memprofile "$$d/mem.prof" >/dev/null && \
		$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_objects "$$d/repro.test" "$$d/mem.prof" || exit 1; \
	done

# Where the fleet control plane spends its time and what it allocates:
# profile-testbed's recipe for BenchmarkFleetd1000Networks (a thousand
# networks from cold until their plans converge, then two steady sweeps)
# — the CPU profile's top 20, then the top 10 allocation sites by object
# count from a second run.
profile-fleet:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) test -c -o "$$d/fleetd.test" ./internal/fleetd && \
	"$$d/fleetd.test" -test.run '^$$' -test.bench 'Fleetd1000Networks$$' -test.benchtime 2x -test.benchmem -test.cpuprofile "$$d/cpu.prof" && \
	$(GO) tool pprof -top -nodecount 20 "$$d/fleetd.test" "$$d/cpu.prof" && \
	"$$d/fleetd.test" -test.run '^$$' -test.bench 'Fleetd1000Networks$$' -test.benchtime 2x -test.memprofile "$$d/mem.prof" >/dev/null && \
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_objects "$$d/fleetd.test" "$$d/mem.prof"

# The benchmark (bench/, BENCHMARK.json) is a Go module of its own, so
# `go build ./...` and `go test ./...` at the root never compile it. This
# is the one automated check that it still builds against the public API
# of the packages it drives and that its correctness gate passes: vet and
# its own tests, then a small-sized run of all six workloads. Absolute
# speed is not gated here — numbers are compared across commits with
# `bash bench/run.sh`, see bench/README.md.
bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	bash bench/run.sh -quick -repeats 2

# The figure runner end to end through both front-ends: BenchmarkFigures
# executed (not just compiled) on three cheap figures, whose metrics are
# the numbers of internal/experiments/testdata/golden_cheap.md, and
# cmd/experiments on a selection that needs the fleet, a backend and the
# testbed; the Uplink report exits 1 if the agent acted on pure uplink.
# Then the ablation benchmarks, once each: the only code outside tests
# that sets the ablation knobs of fastack.Config and turboca.Config.
figures:
	$(GO) test -run '^$$' -bench 'Figures/(Fig1|Table1|Fig7)$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'Ablation' -benchtime 1x .
	$(GO) run ./cmd/experiments -quick -only fig1,table1,fig7,uplink

# EXPERIMENTS.md against a fresh `cmd/experiments -md -seed 42` (about a
# minute): the generated body above "## Metrics" byte for byte, then the
# Metrics section without its wall-time rows (unit µs or ns), which vary
# by host. A change that moves a figure regenerates EXPERIMENTS.md with it.
experiments-check:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && \
	$(GO) run ./cmd/experiments -md -seed 42 > "$$d/run.md" && \
	sed '1,/^<!-- GENERATED BODY BELOW/d; /^## Metrics/,$$d' EXPERIMENTS.md | sed '1{/^$$/d;}' > "$$d/want.body" && \
	sed '/^## Metrics/,$$d' "$$d/run.md" > "$$d/got.body" && \
	diff -u "$$d/want.body" "$$d/got.body" && \
	sed -n '/^## Metrics/,$$p' EXPERIMENTS.md | grep -Ev '^$$| (µs|ns) \|$$' > "$$d/want.metrics" && \
	sed -n '/^## Metrics/,$$p' "$$d/run.md" | grep -Ev '^$$| (µs|ns) \|$$' > "$$d/got.metrics" && \
	diff -u "$$d/want.metrics" "$$d/got.metrics" && \
	echo "experiments-check: EXPERIMENTS.md matches -md -seed 42 ($$(wc -l < "$$d/got.metrics") Metrics lines compared)"

# Optimality-gap campaign (advisory, non-failing in verify): the exact
# branch-and-bound oracle certifies NBO's NetP on every <=12-AP scenario
# family under the race detector. See internal/experiments/gap.go and
# `turboca -oracle` for the interactive version.
gap:
	$(GO) test -race -count=1 -run '^TestGapCampaign$$' ./internal/experiments

# Size of the system: non-test Go lines per package outside bench/, and the
# total (ROADMAP aim 2, "the least code"). CI prints it on every run.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' -not -path './.bench_build/*' \
		| xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); loc[d] += $$1; all += $$1 } \
			END { for (d in loc) printf "%7d %s\n", loc[d], d; printf "%7d ~total\n", all }' \
		| sort -k2 | sed 's/~total/total/'
