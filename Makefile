# Developer entry points; CI (.github/workflows/ci.yml) runs the same
# commands so local `make check bench` reproduces a green build.

# pipefail so a failing `go test -bench` is not masked by tee.
SHELL := /bin/bash -o pipefail

GO        ?= go
# The benchmark families CI measures: the ILP solver scaling pair
# (gated on ns/op), the sim engine benchmarks (the VM's batched replay
# gated on both ns/op and allocs/op, and additionally held to a floor
# multiple of the interpreter's speed within the same run),
# the sharded serving runtime (gated on allocs/op — its hot loop is
# pinned at zero), the translation validator (gated on ns/op — a
# path-count blowup shows up here), the multi-tenant warm re-solves
# (both the nudge and the harder flip variant gated on ns/op and
# allocs/op — the sub-second elastic-reallocation claim and the
# solver's node-throughput work ride on them), plus the Figure 9 and
# drift end-to-end benchmarks (reported, never gated — see
# cmd/benchgate).
BENCH     ?= ILPSolve|Figure9UnrollBound|FigureDrift|SimProcess|SimReplay|ServeScaling|Certify|MultiTenantResolve
BENCHTIME ?= 3x
COUNT     ?= 6
BASELINE  ?= BENCH_BASELINE.json

.PHONY: build test race lint check bench bench-baseline bench-gate \
	bench-profile difftest fuzz-smoke serve-smoke certify \
	multitenant

# Per-target budget for the CI fuzz smoke (see docs/DIFFTEST.md). Four
# targets at 22s each keep the job's total fuzz budget where it was
# when three targets ran at 30s.
FUZZTIME ?= 22s
FUZZPKG  := ./internal/difftest/

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 20m ./...

lint:
	golangci-lint run

check: build test race

# bench writes the raw output to bench-new.txt for benchstat/benchgate.
# -benchmem so the allocs/op columns feed benchgate's allocation gate.
# The output goes through a temp file moved into place only on success:
# tee would otherwise truncate bench-new.txt the moment the pipeline
# starts, so a failed run (even a build error) used to leave a stale or
# empty file behind for bench-gate to compare against.
bench:
	rm -f bench-new.txt
	$(GO) test -run=NONE -bench='$(BENCH)' -benchtime=$(BENCHTIME) -count=$(COUNT) -benchmem ./... | tee bench-new.tmp \
		&& mv bench-new.tmp bench-new.txt \
		|| { rm -f bench-new.tmp; exit 1; }

# bench-gate compares bench-new.txt against the checked-in baseline:
# fails on a >25% geomean ns/op regression in the gated benchmarks, on
# any allocs/op increase in the VM replay benchmarks, or when the VM's
# batched replay drops below benchgate's -vmratio multiple of the
# interpreter's speed within the same run.
bench-gate:
	$(GO) run ./cmd/benchgate -baseline $(BASELINE) < bench-new.txt

# bench-baseline re-measures and rewrites the checked-in baseline. Run
# it on a CI-class runner (see docs/CI.md) so the numbers the gate
# compares against were produced on comparable hardware.
bench-baseline:
	$(GO) test -run=NONE -bench='$(BENCH)' -benchtime=$(BENCHTIME) -count=$(COUNT) -benchmem ./... | $(GO) run ./cmd/benchgate -baseline $(BASELINE) -write

# bench-profile captures a pprof CPU profile of the headline solver
# benchmarks (the multi-tenant warm re-solves — the models where node
# throughput dominates). CI uploads the profile plus the test binary
# as an artifact so a bench-gate failure can be diagnosed offline:
#   go tool pprof ilp-bench.test ilp-cpu.prof
# (see docs/SOLVER_PERF.md).
bench-profile:
	$(GO) test -run=NONE -bench=MultiTenantResolve -benchtime=1x -benchmem \
		-cpuprofile=ilp-cpu.prof -o ilp-bench.test ./internal/multitenant/

# difftest runs the full differential-testing matrix offline: seven
# oracles x four apps x three budgets (see docs/DIFFTEST.md), with the
# replay oracles on the default bytecode VM and the engine oracle
# holding the VM to the interpreter. Failure reports with minimized
# repro streams land in difftest-failures/ for CI artifact upload.
DIFFTEST_N ?= 10000
difftest:
	mkdir -p difftest-failures
	$(GO) run ./cmd/difftest -seed 1 -n $(DIFFTEST_N) \
		-failures difftest-failures/vm.txt

# certify compiles every benchmark app with the translation validator
# enabled, writing one equivalence certificate per app to $(CERTDIR)
# (CI uploads them as artifacts), then runs the examples — which also
# compile with Certify — so a validator regression fails the build
# before any generated P4 is trusted (see
# docs/TRANSLATION_VALIDATION.md).
CERTDIR ?= certs
CERTAPPS := netcache sketchlearn precision conquest
certify:
	mkdir -p $(CERTDIR)
	for app in $(CERTAPPS); do \
		$(GO) run ./cmd/p4allc -app $$app -certify \
			-cert $(CERTDIR)/$$app.json -o /dev/null || exit 1; \
	done
	for ex in quickstart portability netcache sketchlearn; do \
		$(GO) run ./examples/$$ex > /dev/null || exit 1; \
	done

# multitenant is the PR-acceptance scenario for the joint compiler: a
# three-tenant mix (NetCache + SketchLearn + FlowRadar) compiled into
# one pipeline with fairness weights and utility floors, certified by
# the translation validator per tenant, plus the multi-tenant package
# tests and the per-tenant differential-testing oracle (see
# docs/MULTITENANT.md). Solver limits stay at the compiler's defaults:
# the 10-stage evaluation target under floors needs the full budget to
# find its first incumbent.
MTDIR ?= mtcerts
multitenant:
	mkdir -p $(MTDIR)
	$(GO) run ./cmd/p4allc -app netcache,sketchlearn,flowradar \
		-mem 524288 -weights 1,1,2 -minutil 1024 -det \
		-certify -cert $(MTDIR)/joint.json -o /dev/null
	$(GO) test ./internal/multitenant/
	$(GO) test ./internal/difftest/ -run TestTenantOracle

# fuzz-smoke gives each coverage-guided target a short budget on top of
# the checked-in corpora. Crashers land in
# internal/difftest/testdata/fuzz/<Target>/ — commit them as
# regression inputs after fixing the bug.
fuzz-smoke:
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzSimVsGolden -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzVMVsInterp -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzSnapshotRoundTrip -fuzztime=$(FUZZTIME)
	$(GO) test $(FUZZPKG) -run='^$$' -fuzz=FuzzMigrateCMS -fuzztime=$(FUZZTIME)

# serve-smoke boots the sharded UDP NetCache server on a loopback port,
# drives Zipf traffic at it with the load generator, and fails unless
# the observed hit rate clears the floor and the server acknowledges
# the shutdown frame (see docs/SERVING.md). An end-to-end check of
# cmd/netcacheserve + cmd/netcacheload over a real socket.
SMOKE_ADDR ?= 127.0.0.1:19640
serve-smoke:
	$(GO) build -o bin/netcacheserve ./cmd/netcacheserve
	$(GO) build -o bin/netcacheload ./cmd/netcacheload
	./bin/netcacheserve -addr $(SMOKE_ADDR) -shards 2 -duration 60s & \
	server=$$!; \
	sleep 1; \
	./bin/netcacheload -addr $(SMOKE_ADDR) -clients 4 -requests 200000 \
		-shutdown -minhit 0.4 || { kill $$server 2>/dev/null; exit 1; }; \
	wait $$server
