GO ?= go

.PHONY: build vet fmt-check test race bench bench-compare bench-json bench-smoke temper claims update faults loadgen-smoke check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any Go file is not gofmt-formatted, listing the
# offenders.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The annealing engine evaluates energies on a worker pool; run the whole
# internal tree under the race detector so any shared-state regression in
# the concurrent code is caught before it ships.
race:
	$(GO) test -race ./internal/...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-compare benchmarks the hot paths at BASE (default HEAD~1, from a
# temporary worktree) and at the working tree, then prints a benchstat
# comparison (or a plain old/new/delta table when benchstat is absent).
# Non-gating: the report never fails the build.
BASE ?= HEAD~1
bench-compare:
	sh scripts/benchcompare.sh $(BASE)

# bench-json runs the hot-path benchmarks — the >64-site ISP100/ISP200
# energy and annealing benchmarks, the flat update planner (and its retained
# map-based reference), the cold ISP200 route-table build and controller
# setup, and the warm end-to-end ISP200 slot pipeline — and writes the
# results as a JSON map (name -> ns/op, allocs/op; schema in DESIGN.md §8) so
# the numbers can be committed and diffed across PRs.
BENCH_JSON ?= BENCH_PR10.json
bench-json:
	sh scripts/benchjson.sh 'BenchmarkAnneal|BenchmarkEnergyISP|BenchmarkProvisionTopology|BenchmarkClaimRepair|BenchmarkUpdatePlan|BenchmarkRouteTables|BenchmarkColdStart|BenchmarkSimSlot' $(BENCH_JSON) './...'

# bench-smoke compiles and runs every benchmark exactly once — a fast CI
# guard that the benchmark harness itself keeps working. internal/core
# carries the scale benchmarks (ISP100/ISP200 energy); the root package
# carries the annealing-engine ones (AnnealISP100/AnnealISP200), the ISP200
# cold start and the warm ISP200 slot pipeline; internal/optical carries the
# route-table build; internal/update carries the flat planner.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/core ./internal/optical ./internal/update

# claims replays the incremental-engine and precomputation differentials
# with the test cache defeated: the claim-tree repair store against cold
# rebuilds, the wavelength-availability index against the from-scratch
# occupancy scan, the alternate-tier provision-cache migration against cold
# provisioning, the route tables against the all-pairs Yen reference, and
# the committed search digests (27 ISP200 slots, tempered and multi-move
# searches) across worker counts and provision-cache settings.
claims:
	$(GO) test -count=1 \
		-run 'TestClaimRepairDifferential|TestClaimReuseMatchesReference|TestLambdaIndexMatchesOccupancy|TestWithoutFiberAlternateCacheMigration|TestRouteTablesMatchReference|TestSearchGolden' \
		./internal/alloc/ ./internal/optical/ ./internal/core/

# update replays the flat update scheduler's pinning suite with the test
# cache defeated: the 300-seed randomized differential (flat engine vs the
# retained map-based reference, bit-identical rounds/op order/detours/
# timelines — including fiber-failure and forced-detour deadlock cases) and
# the randomized step-consistency property of the planner's timeline.
update:
	$(GO) test -count=1 \
		-run 'TestFlatPlannerDifferential|TestTimelineStepConsistency' \
		./internal/update/

# temper replays the committed 300-seed golden digests: the refactored
# search loop in compat mode (Replicas=1, WarmStart=false) must reproduce
# the pre-tempering annealer bit for bit, across ISP40 and a >64-site
# network, through a WithoutFiber failure event. -count=1 defeats the test
# cache so the differential actually runs.
temper:
	$(GO) test -count=1 -run 'TestTemperGoldenDifferential' ./internal/core/

# Fault-injection integration matrix: the end-to-end scenario (controller
# killed mid-slot, one client partitioned, frames corrupted) must pass
# deterministically for each seed, under the race detector. One `go test`
# per seed so a failure names the seed that broke.
FAULT_SEEDS ?= 1 2 3
faults:
	@for s in $(FAULT_SEEDS); do \
		echo "--- fault injection, seed $$s"; \
		FAULTNET_SEED=$$s $(GO) test -race -count=1 \
			-run 'TestFaultInjectionEndToEnd' ./internal/controlplane/ || exit 1; \
	done

# loadgen-smoke drives a fixed-seed 1k-client fleet through the admission
# pipeline over the in-memory transport and audits the store token by
# token: -check exits nonzero (dumping server counters, fault stats, and
# the latency summary) on any lost or duplicated submit or a p99 above
# the bound. Small enough for CI; `owan-loadgen -clients 100000` is the
# full-scale run behind results/loadgen.dat.
loadgen-smoke:
	$(GO) run ./cmd/owan-loadgen -clients 1000 -seed 1 -check -max-p99 20s -quiet

# check is the tier-1 gate: clean build, vet, gofmt, full tests,
# race-detected internal tests, the tempering golden differential, the
# engine, route-table and search-digest differentials (claims), the
# flat-planner differential, a one-shot benchmark smoke, the seeded
# fault-injection matrix, and the admission load-generator smoke.
check: build vet fmt-check test race temper claims update bench-smoke faults loadgen-smoke
