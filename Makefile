# Build/test/benchmark entry points. CI (.github/workflows/ci.yml)
# runs the same commands.

GO ?= go

.PHONY: build test vet lint race bench-sim bench-short bench-check cover fuzz-smoke diff-fuzz serve serve-test cluster-test soak perfbench-test all

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the project's own analyzer suite (cmd/bplint): kernel
# purity, chunk-boundary cancellation, index geometry, determinism,
# codec error discipline, lock discipline (//bplint:guardedby),
# goroutine lifecycle, atomic/plain access mixing, HTTP response
# discipline, and resource pairing. -staleignores keeps the
# suppression inventory honest: an //bplint:ignore that no longer
# suppresses anything fails the build until it is deleted. See
# README.md "Static analysis" and DESIGN.md §14. Any file gofmt would
# rewrite also fails lint.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/bplint -staleignores ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# serve runs the sweep service locally (README "Sweep service").
SERVE_ADDR ?= :8149
SERVE_DATA ?= ./bpserved-data

serve:
	$(GO) run ./cmd/bpserved -listen $(SERVE_ADDR) -data $(SERVE_DATA)

# serve-test runs the service subsystem's full suite — concurrency
# stress, drain/restart, golden interop, and the binary-level SIGTERM
# integration test — under the race detector.
serve-test:
	$(GO) test -race ./internal/service/ ./cmd/bpserved/

# cluster-test runs the distributed-sweep subsystem under the race
# detector: ring/key/coordinator unit tests, the HTTP transport
# end-to-end, and the failure-injection (chaos) scenarios, every one
# of which must reproduce the single-node artifacts byte for byte.
cluster-test:
	$(GO) test -race -count=1 ./internal/cluster/

# soak extends the trace-plane churn test (concurrent uploads, sweeps,
# cancels, and decoded-cache eviction over a mixed resident/streaming
# trace population, with a mid-flight drain + restart) to a sustained
# window under the race detector. The same test runs as a short smoke
# in the normal suite; BPRED_SOAK=1 widens the churn window.
soak:
	BPRED_SOAK=1 $(GO) test -race -count=1 -run TestSoakUploadSweepEvict ./internal/service/

# perfbench-test vets and tests the end-to-end benchmark (perfbench/,
# its own module): it compiles against the service and sim APIs, which
# no ./... pattern of the root module reaches.
perfbench-test:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...

# bench-short is the smoke-level benchmark pass CI runs: one
# iteration of everything, just to keep the benchmarks compiling and
# non-crashing.
bench-short:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# bench-sim measures the simulation engine (generic vs batched
# kernels, fused vs per-config sweeps) and records the results as
# BENCH_sim.json so the perf trajectory is tracked across PRs.
BENCH_PATTERN = BenchmarkKernels|BenchmarkSweepChunked|BenchmarkSweepFusion

bench-sim:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime 1s . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_sim.json

# bench-check is the perf-regression gate: rerun the tracked
# benchmarks and fail if any MB/s figure dropped more than BENCH_TOL
# percent below the checked-in BENCH_sim.json. BENCH_TIME can be
# shortened for smoke-level CI runs (noisier, hence the wide default
# tolerance there — see .github/workflows/ci.yml).
BENCH_TOL ?= 15
BENCH_TIME ?= 1s

bench-check:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) . \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson -check -baseline BENCH_sim.json -tolerance $(BENCH_TOL)

# COVER_FLOOR is ~10 points below current coverage of the execution
# core (sim, sweep, checkpoint, obs sit at ~92%); the gate catches
# accidental deletion of the cancellation/resume/robustness test
# layer, not routine drift. The analyzer suite (internal/analysis/...)
# is in the gate too: its fixtures are the proof the invariants are
# actually enforced.
COVER_FLOOR = 80

# -coverpkg spans the gated set so cross-package exercise counts: the
# analyzer fixtures drive load/analysistest, and cmd/bplint's smoke
# test drives the bplint driver package.
COVER_PKGS = ./internal/sim/,./internal/sweep/,./internal/checkpoint/,./internal/obs/,./internal/analysis/...,./internal/service/,./internal/counter/,./internal/cluster/,./internal/trace/,./internal/core/,./internal/durable/

cover:
	$(GO) test -coverprofile=coverage.out -coverpkg=$(COVER_PKGS) \
		./internal/sim/ ./internal/sweep/ ./internal/checkpoint/ ./internal/obs/ \
		./internal/analysis/... ./cmd/bplint/ ./internal/service/ ./internal/counter/ \
		./internal/cluster/ ./internal/trace/ ./internal/core/ ./internal/durable/
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%"; exit 1; }

# fuzz-smoke gives each fuzz target a short budget — enough to catch
# shallow decoder and parser regressions and kernel or fused-executor
# divergence on every CI run without open-ended fuzz time. Each entry
# is <package>:<-fuzz pattern>. go test only warns, and exits 0, when
# a -fuzz pattern matches no fuzz test, so a pattern that matches
# nothing fails the target here.
FUZZ_SMOKE = \
	./internal/trace/:FuzzReader$$ \
	./internal/trace/:FuzzRoundTrip$$ \
	./internal/trace/:FuzzReader2 \
	./internal/trace/:FuzzRoundTrip2 \
	./internal/checkpoint/:FuzzRead \
	./internal/checkpoint/:FuzzRoundTrip \
	./internal/core/:FuzzParseConfig \
	./internal/refmodel/diff/:FuzzDiffTAGE \
	./internal/refmodel/diff/:FuzzDiffPerceptron \
	./internal/refmodel/diff/:FuzzDiffTournament \
	./internal/sim/:FuzzFusedEquivalence \
	./internal/sim/:FuzzKernelEquivalence

fuzz-smoke:
	@for t in $(FUZZ_SMOKE); do \
		pkg=$${t%%:*}; fz=$${t#*:}; \
		echo "$(GO) test -run '^$$' -fuzz '$$fz' -fuzztime 10s $$pkg"; \
		out=$$($(GO) test -run '^$$' -fuzz "$$fz" -fuzztime 10s $$pkg 2>&1); rc=$$?; \
		printf '%s\n' "$$out"; \
		[ $$rc -eq 0 ] || exit $$rc; \
		if printf '%s\n' "$$out" | grep -q 'no fuzz tests to fuzz'; then \
			echo "fuzz-smoke: -fuzz '$$fz' matches no fuzz test in $$pkg"; exit 1; \
		fi; \
	done

# diff-fuzz differentially fuzzes every scheme family against the
# independent reference model (internal/refmodel): random traces,
# geometries, warmups, and chunk sizes must produce bit-identical
# metrics between the batched kernels and the oracle. DIFF_FUZZTIME
# is per family.
DIFF_FUZZTIME ?= 60s

diff-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDiffAddress -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffGlobal -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffGShare -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPath -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPerAddress -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffTAGE -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffPerceptron -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
	$(GO) test -run '^$$' -fuzz FuzzDiffTournament -fuzztime $(DIFF_FUZZTIME) ./internal/refmodel/diff/
