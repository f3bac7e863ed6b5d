# SPERR-Go development targets.

GO ?= go

.PHONY: all build vet test test-race faultinject fuzz bench bench-kernels profile-kernels cover experiments examples serve-smoke cluster-smoke chaos-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full test log, as recorded in test_output.txt.
test-log:
	$(GO) test ./... 2>&1 | tee test_output.txt

# Race-hardened tier: the parallel chunk pipeline, scratch pooling, and
# instrumentation delivery all run under the race detector.
test-race:
	$(GO) test -race ./...

# Deterministic corruption campaign over the golden fixtures: every
# frame-boundary truncation plus stratified byte flips and zeroed runs,
# asserting no panic, bounded time and allocation, and exact salvage
# recovery of the checksum-intact chunks. The same campaign also runs
# over stub-shard containers, asserting damaged frames never pass the
# ownership audit and that shard damage on one peer never corrupts a
# full-cluster read while a clean replica exists.
faultinject:
	$(GO) test -race -count=1 -v -run 'TestCampaign' ./internal/faultinject/

# Short fuzz smoke over the decoder- and request-facing targets; raise FUZZTIME for a
# longer exploration.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz=FuzzDecompress -fuzztime=$(FUZZTIME) -run=^$$ .
	$(GO) test -fuzz=FuzzCompressDecompress -fuzztime=$(FUZZTIME) -run=^$$ .
	$(GO) test -fuzz=FuzzReadIndex -fuzztime=$(FUZZTIME) -run=^$$ ./internal/chunk/
	for f in FuzzParseRegionSpec FuzzParseTriple FuzzParseFill; do $(GO) test -fuzz="^$$f\$$" -fuzztime=$(FUZZTIME) -run=^$$ ./internal/server/ || exit 1; done

bench:
	$(GO) test -bench=. -benchmem ./...

# Hot-kernel micro-benchmarks: cache-blocked wavelet passes, integer
# bit-plane SPECK, word-batched bit I/O, the end-to-end single-thread
# and intra-chunk-threaded pipelines, and the streaming engine (which
# also reports peak-inflight-bytes, its bounded-memory witness).
# BENCH_KERNELS.json records the before/after table for these.
bench-kernels:
	$(GO) test -run='TestParallelCoderMatchesSerialGolden' -count=1 .
	$(GO) test -run='^$$' -bench='WaveletForward3D|WaveletInverse3D' -benchmem ./internal/wavelet/
	$(GO) test -run='^$$' -bench='SpeckEncode|SpeckDecode' -benchmem ./internal/speck/
	$(GO) test -run='^$$' -bench='BitsReadWrite' -benchmem ./internal/bits/
	$(GO) test -run='^$$' -bench='CompressPWE64|CompressPWEIntra64|Decompress64' -benchmem .
	$(GO) test -run='^$$' -bench='StreamCompress|StreamDecompress' -benchmem .
	$(GO) test -run='^$$' -bench='RegionCached|RegionUncached' -benchmem ./internal/store/
	$(GO) test -run='^$$' -bench='AdaptiveSelect' -benchmem .
	$(GO) test -run='^$$' -bench='ProfileChunk' -benchmem ./internal/codec/

bench-log:
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

# CPU and heap profiles of the hot coding kernels, written under
# profiles/ for `go tool pprof`. End-to-end runs can be profiled instead
# via `sperr -c/-d -cpuprofile=... -memprofile=...`.
profile-kernels:
	mkdir -p profiles
	$(GO) test -run='^$$' -bench='SpeckEncode$$|SpeckDecode$$' -benchtime=5x \
		-cpuprofile=profiles/speck.cpu.pprof -memprofile=profiles/speck.mem.pprof \
		-o profiles/speck.test ./internal/speck/
	$(GO) test -run='^$$' -bench='WaveletForward3D|WaveletInverse3D' -benchtime=5x \
		-cpuprofile=profiles/wavelet.cpu.pprof -memprofile=profiles/wavelet.mem.pprof \
		-o profiles/wavelet.test ./internal/wavelet/

cover:
	$(GO) test -cover ./...

# Regenerate every table and figure of the paper (see EXPERIMENTS.md).
experiments:
	$(GO) run ./cmd/sperrbench -exp all | tee experiments_output.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/climate
	$(GO) run ./examples/turbulencedb
	$(GO) run ./examples/compressors
	$(GO) run ./examples/multires
	$(GO) run ./examples/insitu

# End-to-end smoke of the sperrd daemon: builds the binary, starts it on
# a free localhost port, round-trips a volume over HTTP (PWE bound
# checked), verifies /metrics is non-empty, and requires a graceful
# SIGTERM drain with exit status 0.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# End-to-end smoke of a three-node sperrd cluster: ingests both golden
# fixtures, reads cross-shard regions through every coordinator
# (bit-identical to a single-node decode), SIGKILLs one peer and
# requires the next read to degrade (fill + trailer) instead of
# erroring, then drains the survivors.
cluster-smoke:
	$(GO) run ./scripts/clustersmoke

# Chaos smoke of the replicated cluster: boots three peers with
# -replicas=2 and a fast scrubber, SIGKILLs a primary owner with reads
# in flight (reads must stay 200 / non-degraded / bit-identical),
# restarts the victim with an empty store and requires scrubber-driven
# rejoin convergence, then corrupts a shard blob on disk and requires
# the anti-entropy scrubber to heal it within the deadline — witnessed
# by sperrd_replica_* and sperrd_scrub_* counters. Logs each act's
# convergence time.
chaos-smoke:
	$(GO) run ./scripts/chaossmoke

clean:
	$(GO) clean ./...
