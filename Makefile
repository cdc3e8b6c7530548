# Convenience targets; scripts/check.sh is the tier-1 gate (ROADMAP.md).

.PHONY: build test check loc difftest enginetest fuzz enginefuzz hullfuzz soak fleetsoak tracesoak restartsoak ecosoak

build:
	go build ./...

test:
	go test ./...

check:
	sh scripts/check.sh

# Go line counts, non-test and test, excluding the nested benchmark
# module: the before/after figures each change reports in CHANGES.md.
loc:
	@printf 'non-test %s\n' "$$(find . -name '*.go' ! -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"
	@printf 'test     %s\n' "$$(find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l)"

# Differential/determinism gate on the parallel dynamic program, the
# incremental re-solve, the batch endpoint, the solve cache and the
# analyzers: serial-vs-parallel bit identity over the seeded corpus, Delta
# answers bit-identical to a from-scratch solve (TestDeltaDifferential),
# order/concurrency independence of /solve/batch, pool-leak accounting,
# cache on/off identity (TestSolveCache*: a hit and a coalesced waiter
# serve the stored answer, byte for byte), the read-only answer doors
# (*ReadOnly, TestDeltaEditNotRetained: no later solve, edit or caller
# write changes an answer or a session's tree), the Elmore and Devgan
# analyzers against their reference forms, bit for bit
# (TestAnalyzeMatchesReference), and every reply of a replica and of the
# router byte for byte the compacted form of the indented encoding it
# replaced, sent with its length (*RepliesAreCompact). The tier-1 gate
# (scripts/check.sh) runs these tests once in its full race pass; this
# target re-runs just them, uncached.
difftest:
	go test -race -count=1 -run 'TestDifferential|TestDeltaDifferential|TestDeterminism|TestBatch|TestConcurrentParallelSolves|TestSolveCache|ReadOnly|TestDeltaEditNotRetained|TestAnalyzeMatchesReference|RepliesAreCompact' ./internal/core ./internal/server ./internal/fleet ./internal/elmore ./internal/noise

# Cross-engine equivalence gate: every core.EngineTable row (the default
# configuration, serial and forced-parallel) against the reference row
# (classic O(b²n²) cross-product merge, serial walk) — the full 200-net
# stratified differential, the metamorphic properties, the exhaustive
# oracle, the checked-in fuzz corpus replay, and the merge-level frontier
# property tests the Li–Shi walk's soundness proof rests on, and buffer
# insertion's slot-major path (the delay-mode hull filter, the sorted
# emission in both modes, slot ranges and the counting sort) differenced
# against the full scan, a noise-mode branch node's insertion (each pair
# scored as it is formed) against the stored pair sums and the full scan,
# and the sorted sweep (the fused merge-prune, the whole chain-node step)
# against the sort-and-scan prune and the reference override. The tier-1
# gate runs the same tests in its full race pass; this re-runs just them.
enginetest:
	GOFLAGS=-count=1 go test -race ./internal/core/enginetest
	GOFLAGS=-count=1 go test -race -run 'TestPrunedListsAreStrictFrontiers|TestMergeDifferentialProperty|TestInsertWinnersMatchFullScan|TestInsertPairsMatchesPairScan|TestInsertHullEmitsSortedRun|TestMergePruneMatchesSortScan|TestChainStepMatchesReference' ./internal/core

# Decoder and solve-path fuzzing: the netfmt reader, then every bufferd
# decode path (/solve, /solve/batch items, /solve/delta) under the same
# invariants, then fuzzed netfmt bytes read, segmented and solved by
# core.Optimize under a small candidate cap and a timeout — each input
# must end in a typed guard error or an answer the Elmore and Devgan
# analyzers confirm.
fuzz:
	go test -fuzz=FuzzRead -fuzztime=30s ./internal/netfmt
	go test -run FuzzDecodeRequest -fuzz=FuzzDecodeRequest -fuzztime=30s ./internal/server
	go test -run FuzzOptimizeNetfmt -fuzz=FuzzOptimizeNetfmt -fuzztime=30s ./internal/core

# Engine-equivalence fuzzing: random trees × random sub-libraries, every
# exact EngineTable row vs the reference, bit-identical objectives required.
enginefuzz:
	go test -fuzz=FuzzEngineEquivalence -fuzztime=60s ./internal/core/enginetest

# Buffer-insertion fuzzing: fuzzed adversarial source lists
# (near-collinear, equal loads, one-ulp slacks, huge and subnormal
# magnitudes; under noise constraints, noise slacks on a type's
# admission boundary and NaN, infinite or negative currents) through
# insertion's slot-major path — the hull filter in delay mode, the whole
# slots in noise mode — vs the full scan, bit-identical winners, order
# and links required.
hullfuzz:
	go test -run FuzzInsertWinners -fuzz=FuzzInsertWinners -fuzztime=60s ./internal/core

# Fault-injection soak: repeatedly hammers the bufferd server stack —
# admission control, drain lifecycle, seeded chaos injector — under the
# race detector, asserting exact shed/degrade accounting each pass. The
# tier-1 gate (scripts/check.sh) runs the same tests once; this target is
# the long version for hunting rare interleavings.
soak:
	go test -race -count=5 -run 'TestSoakUnderChaos|TestGracefulDrain|TestForcedDrain' -v ./internal/server

# Fleet chaos soak: a 3-replica in-process fleet behind the router, under
# request-level faults (slow/cancel/panic/malformed) plus replica-level
# partitions and a kill, with exact attempt/outcome/fault ledgers. The
# tier-1 gate runs it once; this is the long version.
fleetsoak:
	go test -race -count=5 -run 'TestFleetSoakUnderChaos' -v ./internal/fleet

# Trace soak: the distributed-tracing ledger gate. Cross-process trace
# assembly through the 3-replica lab fleet (/debug/trace/<id> must return
# one fully linked router→replica tree), then a faulted soak in which
# every injected fault, admission shed, and hedge must map to exactly one
# recorded span, with exact collector books (started == finished ==
# resident + dropped, zero flight-recorder evictions). The tier-1 gate
# runs it once; this is the long version.
tracesoak:
	go test -race -count=5 -run 'TestTraceAcrossFleet|TestTraceSoak' -v ./internal/fleet

# Restart chaos soak: replicas are kill-restarted under load — snapshots
# saved, corrupted, and torn between boots — with exact snapshot
# (loaded + rejected == restarts) and peer-fill (attempts == hits +
# misses + timeouts) ledgers, and every post-restart response
# byte-identical to a never-restarted control. The tier-1 gate runs it
# once; this is the long version.
restartsoak:
	go test -race -count=5 -run 'TestRestartSoakUnderChaos' -v ./internal/fleet

# ECO (incremental re-solve) chaos soak: /solve/delta sessions hammered
# with concurrent edit streams under seeded faults and forced session
# eviction, with exact reuse/request/session-book ledgers, plus the
# core-level edit-stream differential (delta answers bit-identical to the
# reference solve across merge paths, objectives, and serial/parallel).
# The tier-1 gate runs them once; this is the long version.
ecosoak:
	go test -race -count=5 -run 'TestEcoSoakUnderChaos' -v ./internal/server
	go test -race -count=2 -run 'TestDelta|TestNewSessionValidation' -v ./internal/core
