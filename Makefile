# PuPPIeS build/check targets. `make check` is the CI gate: formatting,
# vet, the full test suite, the resilience/concurrency tests under the
# race detector (TestConcurrentClients and the internal/faults harness run
# as part of the -race invocation), the perf gate table and the fuzzers.

GO ?= go

# bash with pipefail, so a failing stage of a piped recipe fails the target.
SHELL := bash
.SHELLFLAGS := -o pipefail -c

.PHONY: all build test check fmt race fuzz-smoke perf bench-compare cluster-e2e cluster-demo profile

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the PSP pipeline tests (client retries, fault injection,
# concurrent clients, pspd graceful shutdown), the durable-store crash
# matrix, the cluster gateway (ring, breakers, quorum replication, fault
# matrix) with its daemon, the parallel-pipeline determinism suite, the
# reduced-IDCT kernels and transform planner (parallel scaled decode +
# worker-count determinism), the restart-segment and scaled-decode
# parallel plane fills, and concurrent encodes of one shared image plus the
# banded forward path under -race.
race:
	$(GO) test -race -count=1 ./internal/psp/... ./internal/servecache/... ./internal/faults/... ./internal/blobstore/... ./internal/cluster/... ./internal/admission/... ./internal/stats/... ./internal/loadgen/... ./internal/searchidx/... ./internal/dct/... ./internal/transform/... ./cmd/pspd/... ./cmd/pspgw/...
	$(GO) test -race -count=1 -run 'TestParallelDeterminism' .
	$(GO) test -race -count=1 -run 'TestRestart|TestToPlanarScaled|TestEncodeConcurrent|TestFromStdImage' ./internal/jpegc

# cluster-e2e runs the full crash/partition e2e on its own: a real 3-shard
# cluster behind the gateway, one shard SIGKILLed mid-traffic, an asymmetric
# partition on a second, zero failed client requests, and byte-identical
# replicas after restart + repair. The -timeout guard keeps a wedged cluster
# from hanging CI.
cluster-e2e:
	$(GO) test -count=1 -timeout 120s -run 'TestClusterSurvives' ./cmd/pspgw/

# cluster-demo boots three in-memory shards plus the gateway on local ports
# and leaves them running for manual poking (Ctrl-C stops everything).
cluster-demo: build
	@bash -c 'set -e; trap "kill 0" EXIT INT TERM; \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8754 & \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8755 & \
	$(GO) run ./cmd/pspd -addr 127.0.0.1:8756 & \
	sleep 1; \
	$(GO) run ./cmd/pspgw -addr 127.0.0.1:8750 \
		-shards http://127.0.0.1:8754,http://127.0.0.1:8755,http://127.0.0.1:8756; \
	wait'

# fuzz-smoke gives each fuzz target a short budget so `make check` exercises
# the decoders, the encoder round trip and the shared multipart batch reader
# against the native fuzzer on every run (corpus regressions
# under testdata/ always run as plain tests regardless).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/jpegc
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/jpegc
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePublicData$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzEnvelope$$' -fuzztime $(FUZZTIME) ./internal/blobstore
	$(GO) test -run '^$$' -fuzz '^FuzzSpecKey$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzPlan$$' -fuzztime $(FUZZTIME) ./internal/transform
	$(GO) test -run '^$$' -fuzz '^FuzzSignature$$' -fuzztime $(FUZZTIME) ./internal/searchidx
	$(GO) test -run '^$$' -fuzz '^FuzzIndexSnapshot$$' -fuzztime $(FUZZTIME) ./internal/searchidx
	$(GO) test -run '^$$' -fuzz '^FuzzBatchMultipart$$' -fuzztime $(FUZZTIME) ./internal/psp

# perf measures every row the perf gate table (cmd/benchfmt/gates.go)
# bounds — the gated benchmarks, best of $(BENCH_COUNT), and a seeded chaos
# load run — writes the ledger $(PERF_OUT) (machine-stamped, every row
# tagged with its layer) and checks it against the table. A missing row, a
# missed bound or a failed loadgen run gate fails the target.
#
# The load run drives seeded Zipf traffic at an in-process 3-shard cluster
# whose gateway admission capacity is deliberately tiny, with the builtin
# chaos schedule (full 503 blackout on shard 0, partial burst on shard 1,
# partition of shard 2) running underneath. loadgen itself fails on any
# unexpected client-visible failure, when no request was shed with 429,
# and unless a breaker tripped and recovered.
PERF_OUT ?= PERF.json
BENCH_COUNT ?= 3
perf:
	{ $(GO) test -run '^$$' -benchmem -count $(BENCH_COUNT) -timeout 30m \
		-bench '^Benchmark(ProtectRecoverPerMP|Decode(Native|Normalized)420|Upload(Sequential|Batch)|Serve(TransformedCold|ThumbnailCold)|Search(Scan|Lookup)100k)$$' \
		. ./internal/jpegc ./internal/psp ./internal/searchidx && \
	$(GO) run ./cmd/loadgen -selfhost 3 -seed 42 -duration 8s -workers 12 -corpus 16 -chaos gate \
		-gw-max-inflight 4 -gw-admit-wait 10ms -gw-admit-queue 2 \
		-max-unexpected 0 -require-sheds -require-breaker-cycle; } \
	| tee /dev/stderr | $(GO) run ./cmd/benchfmt -o $(PERF_OUT)
	$(GO) run ./cmd/benchfmt -new $(PERF_OUT)

# bench-compare diffs two ledgers row by row and fails on a >10% ns/op or
# allocs/op regression, or on a baseline row missing from NEW:
#   make perf PERF_OUT=old.json   # on the baseline commit
#   make perf PERF_OUT=new.json   # on the candidate
#   make bench-compare OLD=old.json NEW=new.json
bench-compare:
	$(if $(and $(OLD),$(NEW)),,$(error bench-compare needs OLD=<ledger> NEW=<ledger>))
	$(GO) run ./cmd/benchfmt -old $(OLD) -new $(NEW)

# profile captures CPU and allocation pprof profiles of the two hot paths —
# the protect/recover pipeline (paper Table 1 workload) and the streaming
# batch upload route — and prints the CPU top for each. Inspect further with
#   go tool pprof $(PROFILE_DIR)/protect.cpu.prof
PROFILE_DIR ?= profiles
profile:
	mkdir -p $(PROFILE_DIR)
	$(GO) test -run '^$$' -bench 'BenchmarkTable1Capabilities' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/protect.cpu.prof -memprofile $(PROFILE_DIR)/protect.mem.prof .
	$(GO) test -run '^$$' -bench 'BenchmarkUploadBatch$$' -benchtime 2s \
		-cpuprofile $(PROFILE_DIR)/batch.cpu.prof -memprofile $(PROFILE_DIR)/batch.mem.prof ./internal/psp/
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/protect.cpu.prof
	$(GO) tool pprof -top -nodecount 15 $(PROFILE_DIR)/batch.cpu.prof

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

check: fmt
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) cluster-e2e
	$(MAKE) perf PERF_OUT=.perf-check.json
	$(MAKE) fuzz-smoke
