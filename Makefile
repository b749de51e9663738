# Tier-1 verification: everything CI runs, runnable locally with `make`.

GO ?= go

# Perf trajectory files: bench-json writes the candidate, and bench-gate
# compares it against the committed baseline, which it never rewrites.
BENCH_CANDIDATE = BENCH_PR13.json
BENCH_BASELINE = BENCH_PR9.json

.PHONY: all verify build vet vet-arm64 test test-purego test-race-sweep smoke smoke-dist bench bench-hotpath bench-json bench-gate fmt-check lint staticcheck

all: verify

verify: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full build + test with the SIMD kernels compiled out (the purego build
# tag), proving the scalar fallback path is complete — this is what
# machines without AVX2/NEON (or any other GOARCH) run.
test-purego:
	$(GO) build -tags purego ./...
	$(GO) test -tags purego ./...

# Race-detector pass over the concurrent paths: the sweep engine and the
# distributed coordinator/worker tier (and the packages whose shared
# caches they exercise, rx included), the dsp kernel dispatch (shared
# SlideTab/FFT-plan caches + the ForceScalar toggle), and the Viterbi
# decoder (the shared decision-word pool and the ACS kernel choice under
# concurrent decodes), and the transmit path (per-worker synthesis scratch
# over the shared waveform pool, preamble and interleaver caches).
test-race-sweep:
	$(GO) test -race ./internal/sweep/... ./internal/wifi/ ./internal/experiments/ ./internal/rx/ ./internal/dsp/ ./internal/coding/ ./internal/interference/

# Short end-to-end sweep through the engine (sharded workers + waveform
# pool) plus the same-seed decision pins, direct and packet-range
# sharded, as run in CI.
smoke:
	$(GO) run ./cmd/cprecycle-bench -experiment fig8 -packets 8 -bytes 60 -pool
	$(GO) test -run 'TestRunPSRSameSeedRegression|TestRunRangeShardedMatchesRegression' ./internal/experiments/

# Distributed smoke: coordinator + two worker processes on localhost run
# the same short fig8 sweep, streamed over SSE, and the final table must
# be byte-identical to the single-process engine's.
smoke-dist:
	scripts/smoke_dist.sh

# Full benchmark suite (regenerates every paper table/figure at reduced
# fidelity; slow).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Hot-path micro-benchmarks with allocation reporting: segment
# demodulation (FFT-per-window reference vs the planar sliding-DFT
# batch), multi-segment observation, Viterbi, the dsp kernels (planar
# FFT, planar sliding DFT, interleaved FreqShift), and the transmit layer
# (one ACI scenario's synthesis, allocating and reused; a 400-octet PPDU
# encode; the multipath filter).
bench-hotpath:
	$(GO) test -bench 'BenchmarkScenarioRun' -benchtime 50x -benchmem -run '^$$' ./internal/interference/
	$(GO) test -bench 'BenchmarkBuildPPDU400B' -benchtime 500x -benchmem -run '^$$' ./internal/wifi/
	$(GO) test -bench 'BenchmarkMultipathApply' -benchtime 2000x -benchmem -run '^$$' ./internal/channel/
	$(GO) test -bench 'BenchmarkSegment' -benchtime 2000x -run '^$$' ./internal/ofdm/
	$(GO) test -bench 'BenchmarkObserve' -benchtime 2000x -run '^$$' ./internal/rx/
	$(GO) test -bench 'BenchmarkViterbiDecode' -benchtime 500x -run '^$$' ./internal/coding/
	$(GO) test -bench 'BenchmarkPlanar|BenchmarkFreqShift' -run '^$$' ./internal/dsp/

# Machine-readable perf trajectory: run the hot-path benchmarks with
# allocation reporting and write ns/op, B/op and allocs/op per benchmark
# to $(BENCH_CANDIDATE) (CI archives it so future PRs can diff against it).
# Each suite runs -count=3 and benchjson keeps the fastest run per
# benchmark (min ns/op), so one noisy-neighbour blip cannot poison the
# trajectory or trip the regression gate; the store suite runs -count=6
# because its Put benchmarks are filesystem-bound and need more samples
# for a stable minimum. The rx suite adds one whole 400-octet QPSK DATA
# decode (BenchmarkDecodeData400BQPSK, some sixty times an ObserveSegments
# op, hence its smaller -benchtime). The coding suite covers the flat
# 1200-bit decode and the windowed, anchored 400-octet decode, each with
# its ForceScalar twin. The dsp suite covers the planar FFT and the
# planar sliding DFT (BenchmarkPlanar*, each with its ForceScalar twin)
# and the interleaved FreqShift;
# the obs suite pins the metrics layer at 0 allocs per hot-path update;
# the store suite covers the result store's encode/decode/lookup path; the
# transmit suites cover one ACI scenario's synthesis (BenchmarkScenarioRunACI
# allocating, BenchmarkScenarioRunIntoACI into a reused Composite), a
# 400-octet PPDU encode and the multipath filter.
bench-json:
	set -e; tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -bench 'BenchmarkScenarioRun' -benchtime 50x -count 3 -benchmem -run '^$$' ./internal/interference/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkBuildPPDU400B' -benchtime 500x -count 3 -benchmem -run '^$$' ./internal/wifi/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkMultipathApply' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/channel/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkObserve' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/rx/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkDecodeData400BQPSK' -benchtime 100x -count 3 -benchmem -run '^$$' ./internal/rx/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkSegment' -benchtime 2000x -count 3 -benchmem -run '^$$' ./internal/ofdm/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkViterbiDecode' -benchtime 500x -count 3 -benchmem -run '^$$' ./internal/coding/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkPlanar|BenchmarkFreqShift' -count 3 -benchmem -run '^$$' ./internal/dsp/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkMetric|BenchmarkPacketMetrics' -benchtime 100000x -count 3 -benchmem -run '^$$' ./internal/obs/ >> "$$tmp"; \
	$(GO) test -bench 'BenchmarkStore' -count 6 -benchmem -run '^$$' ./internal/sweep/store/ >> "$$tmp"; \
	$(GO) run ./cmd/benchjson -out $(BENCH_CANDIDATE) < "$$tmp"
	@echo "wrote $(BENCH_CANDIDATE)"

# Perf regression gate: regenerate the candidate trajectory on this
# machine and fail when any hot-path benchmark shared with the committed
# baseline trajectory regresses ns/op by more than 25%.
bench-gate: bench-json
	$(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -compare $(BENCH_CANDIDATE) -max-regress 25

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Cross-check for arm64: vet and build every package, the NEON assembly
# included, for a GOARCH this machine may not run.
vet-arm64:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...

# Static analysis: vet (native and arm64) + gofmt always; staticcheck when
# installed (the CI lint job installs it, local runs skip gracefully).
lint: vet vet-arm64 fmt-check staticcheck

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped (CI runs it)"; \
	fi
