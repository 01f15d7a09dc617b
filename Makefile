GO ?= go

.PHONY: check lint race chaos bench-smoke bench-sched bench-trace bench-comm bench-comm-gate bench-policy bench-elastic bench-supervise bench-e2e

## check: the tier-1 gate — vet, then the project linter, then build and
## the full test suite.
check:
	$(GO) vet ./...
	$(GO) run ./cmd/hiper-lint -audit ./...
	$(GO) build ./...
	$(GO) test ./...

## lint: run hiper-lint (the stdlib static analyzer enforcing the
## runtime's concurrency invariants) over the whole module.
lint:
	$(GO) run ./cmd/hiper-lint -audit ./...

## race: race-detector pass over the full module.
race:
	$(GO) test -race ./...

## bench-smoke: quick-scale scheduler microbenchmarks; exercises the whole
## hiper-bench -sched path without overwriting the committed report. Ends
## with the quick Fig. 4 (HPGMG) sweep, whose residual oracle fails the
## target if the HiPER history differs from the reference's.
bench-smoke:
	$(GO) run ./cmd/hiper-bench -sched -schedout /tmp/BENCH_scheduler.smoke.json
	$(GO) run ./cmd/hiper-bench -comm -commout /tmp/BENCH_comm.smoke.json
	$(GO) run ./cmd/hiper-bench -commgate BENCH_comm.json
	$(GO) run ./cmd/hiper-bench -policygate BENCH_scheduler.json
	$(GO) run ./cmd/hiper-bench -elasticgate BENCH_elastic.json
	$(GO) run ./cmd/hiper-bench -supervisegate BENCH_supervise.json
	$(GO) run ./cmd/hiper-bench -only fig4

## bench-comm-gate: rerun ping-pong + fanin-4to1 at quick scale and fail
## if any ns/op regresses >3x vs the committed BENCH_comm.json — loose
## enough to ignore noise, tight enough to catch data-plane collapse.
bench-comm-gate:
	$(GO) run ./cmd/hiper-bench -commgate BENCH_comm.json

## bench-sched: regenerate the committed BENCH_scheduler.json (full scale,
## 16 workers — the configuration recorded in EXPERIMENTS.md).
bench-sched:
	$(GO) run ./cmd/hiper-bench -sched -full -workers 16 -schedout BENCH_scheduler.json

## bench-trace: regenerate the committed BENCH_trace.json — tracing
## overhead (untraced vs armed-disabled vs enabled) on the spawn-latency
## and fanout-wake microbenchmarks.
bench-trace:
	$(GO) run ./cmd/hiper-bench -tracebench BENCH_trace.json -full -workers 16

## bench-policy: regenerate the committed BENCH_policy.json — the
## scheduling-policy A/B over the three DAG workloads (UTS, HPGMG, GEO)
## plus the default-policy seam guards.
bench-policy:
	$(GO) run ./cmd/hiper-bench -policy -full -policyout BENCH_policy.json

## bench-comm: regenerate the committed BENCH_comm.json — transport-layer
## ping-pong latency, the N-to-1 congestion-collapse curve, and the
## shared-vs-separate-fabric A/B for mixed MPI+SHMEM traffic.
bench-comm:
	$(GO) run ./cmd/hiper-bench -comm -full -commout BENCH_comm.json

## bench-elastic: regenerate the committed BENCH_elastic.json — both
## workloads (ISx, Graph500 BFS) static vs scripted kill/grow/shrink over
## the virtualized chaos fabric: per-phase wall time plus migration and
## resize latencies. Every run verifies results byte-identical.
bench-elastic:
	$(GO) run ./cmd/hiper-bench -elastic -full -elasticout BENCH_elastic.json

## bench-supervise: regenerate the committed BENCH_supervise.json — both
## workloads (ISx, Graph500 BFS) under unscripted seeded kills with
## phi-accrual supervision, at a clean wire and at 5% drop+dup:
## detection latency, MTTR, and the completed-work ratio. Every run
## verifies committed phases byte-identical.
bench-supervise:
	$(GO) run ./cmd/hiper-bench -supervise -superviseout BENCH_supervise.json

## bench-e2e: run the repository benchmark (BENCHMARK.json) end to end —
## all four workloads, seed 1, 20 s each, tracing off. Builds perfbench
## from source; results land under the git-ignored .bench_build/.
bench-e2e:
	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0

## chaos: fault-injection gate — every chaos/resilience/self-healing test
## (deterministic seeded fault plans over the Reliable layer, plus the
## detector and supervised-recovery suites) across a seed matrix: tests
## read HIPER_CHAOS_SEED so the same suite replays under each seed, and
## the seeds live here — not in the tests — so widening the matrix is a
## one-line change. Ends with a quick resilience benchmark pass that
## certifies the fan-out completes correctly under loss.
CHAOS_SEEDS ?= 42 7 1301
chaos:
	@for seed in $(CHAOS_SEEDS); do \
		echo "== chaos seed $$seed =="; \
		HIPER_CHAOS_SEED=$$seed $(GO) test -count=1 -run 'Chaos|Resilience|Reliable|Watchdog|Stall|Detector|Supervise|Evict|KillPlan' ./... || exit 1; \
	done
	$(GO) run ./cmd/hiper-bench -chaos -chaosout /tmp/BENCH_resilience.smoke.json
