# Convenience wrappers around dune; see bench/README.md for the
# benchmark suite.

.PHONY: all build test bench bench-smoke chaos chaos-net chaos-sweep service batch durability fabric migration migration-sweep loadgen golden golden-update check clean

all: build

# Everything a pre-merge run needs: formatting gate (dune files; see
# dune-project), full build, the test suites, and the chaos/bench
# smoke aliases.  All of them but chaos-smoke and micro are expect
# tests: a changed report fails with a diff against the alias's
# .expected file, and `dune promote` accepts a deliberate change.
check:
	dune build @fmt
	dune build
	dune runtest
	dune build @perfbench/agree
	dune build @chaos-smoke
	dune build @bench-smoke
	dune build @service-smoke
	dune build @batch-smoke
	dune build @durability-smoke
	dune build @fabric-smoke
	dune build @migration-smoke
	dune build @loadgen-smoke
	dune build @flag-errors
	$(MAKE) golden

build:
	dune build

test:
	dune runtest

# Full microbenchmark run; writes BENCH_sim.json at the repo root.
bench:
	dune exec bench/main.exe -- micro

# Tiny-parameter smoke run of the perf plumbing (also part of
# `dune runtest` via the bench-smoke alias).
bench-smoke:
	dune build @bench-smoke

# Seeded fault-injection runs with invariant checking (also part of
# `dune runtest` via the chaos-smoke alias), plus the mid-migration
# chaos scenarios.  Replay any seed with
#   dune exec bin/amoeba.exe -- chaos --seed N
#   dune exec bin/amoeba.exe -- migration-chaos --seed N
chaos:
	dune build @chaos-smoke
	dune build @migration-smoke

# Invariant-checked runs under persistent adversarial link conditions
# (also part of `dune runtest` via the chaos-net-smoke alias).  Replay
# with e.g.
#   dune exec bin/amoeba.exe -- chaos --seed N --net adversarial
chaos-net:
	dune build @chaos-net-smoke

# Hostile-net chaos sweep: SWEEP_SEEDS seeds on each of ether, switch
# and switch:2x3@2, all with the adversarial link profile.  The seed
# also picks the group size (3-5), resilience (0..m-2) and method
# (pb/bb), so the sweep covers every combination.  Prints the replay
# line of each failing run and fails if there was one.  Extra chaos
# flags go in SWEEP_FLAGS, e.g.
#   make chaos-sweep SWEEP_FLAGS="--pipeline 4 --ops-per-send 3"
SWEEP_FLAGS ?=
chaos-sweep: SWEEP_SEEDS ?= 300
chaos-sweep:
	dune build bin/amoeba.exe
	@fails=0; runs=0; \
	for net in ether switch switch:2x3@2; do \
	  for seed in $$(seq 1 $(SWEEP_SEEDS)); do \
	    m=$$((3 + seed % 3)); k=$$((seed / 3)); r=$$((k % (m - 1))); \
	    if [ $$((k / (m - 1) % 2)) -eq 0 ]; then meth=pb; else meth=bb; fi; \
	    args="--seed $$seed -m $$m -r $$r --method $$meth --net $$net+adversarial $(SWEEP_FLAGS)"; \
	    runs=$$((runs + 1)); \
	    ./_build/default/bin/amoeba.exe chaos $$args > /dev/null \
	      || { echo "FAIL: amoeba chaos $$args"; fails=$$((fails + 1)); }; \
	  done; \
	done; \
	echo "chaos-sweep: $$fails of $$runs runs failed"; [ $$fails -eq 0 ]

# Fixed-seed sharded-service workloads with per-shard invariant checks,
# including sequencer- and follower-crash runs (also part of
# `dune runtest` via the service-smoke alias).  Replay with e.g.
#   dune exec bin/amoeba.exe -- workload --shards 4 --seed 11
service:
	dune build @service-smoke

# Batched/pipelined workloads — one healthy, one crashing the
# sequencer mid-batch-stream — with per-shard invariant checks (also
# part of `dune runtest` via the batch-smoke alias).  The full
# batch-size x pipeline-depth x wire sweep is
#   dune exec bench/main.exe -- batch
batch:
	dune build @batch-smoke

# Durable-mode runs (also part of `dune runtest` via the
# durability-smoke alias): healthy durable chaos, seeded and explicit
# whole-cluster power cycles on clean and adversarial nets, and a
# service workload that loses every host mid-run under
# fsync-per-commit.  Replay with e.g.
#   dune exec bin/amoeba.exe -- chaos --seed N --disk ssd
#   dune exec bin/amoeba.exe -- workload --disk ssd --fsync commit --power-cycle
durability:
	dune build @durability-smoke

# Switched-fabric runs (also part of `dune runtest` via the
# fabric-smoke alias): the service workload and invariant-checked
# chaos on `--net switch:*` topologies instead of the shared wire.
# The full shard x topology sweep at 100+ hosts is
#   dune exec bench/main.exe -- fabric
fabric:
	dune build @fabric-smoke

# Live-migration smoke (also part of `dune runtest` via the
# migration-smoke alias): invariant-checked mid-migration chaos —
# source-sequencer crash, destination crash (rollback), whole-cluster
# power cycle inside the transfer window — plus `--migrate` and
# `--rebalance` workload runs.  The 120-schedule swarm lives in
# test/test_migration.ml (part of `dune runtest`).  Replay with e.g.
#   dune exec bin/amoeba.exe -- migration-chaos --seed N --power-cycle
migration:
	dune build @migration-smoke

# Mid-migration chaos sweep: SWEEP_SEEDS seeds (default 200) on each
# of ether, switch and switch:2x3@2 with the adversarial link profile,
# plus clean ether and switch.  The seed also picks the crash (seed
# mod 3): none, the source sequencer or the destination head.  Prints
# the replay line of each failing run and fails if there was one.
migration-sweep: SWEEP_SEEDS ?= 200
migration-sweep:
	dune build bin/amoeba.exe
	@fails=0; runs=0; \
	for net in ether+adversarial switch+adversarial switch:2x3@2+adversarial \
	    ether switch; do \
	  for seed in $$(seq 1 $(SWEEP_SEEDS)); do \
	    case $$((seed % 3)) in \
	      1) crash=" --crash-source" ;; 2) crash=" --crash-dest" ;; *) crash="" ;; \
	    esac; \
	    args="--seed $$seed --net $$net$$crash"; \
	    runs=$$((runs + 1)); \
	    ./_build/default/bin/amoeba.exe migration-chaos $$args > /dev/null 2>&1 \
	      || { echo "FAIL: amoeba migration-chaos $$args"; fails=$$((fails + 1)); }; \
	  done; \
	done; \
	echo "migration-sweep: $$fails of $$runs runs failed"; [ $$fails -eq 0 ]

# Loadgen smoke (also part of `dune runtest` via the loadgen-smoke
# alias): the open-loop YCSB-style generator, a fixed-rate trial and a
# bounded SLO saturation search, plus the tiny bench sweep that writes
# and schema-checks BENCH_loadgen.json.  The full knee sweep is
#   dune exec bench/main.exe -- loadgen --json
loadgen:
	dune build @loadgen-smoke

# Golden perfbench figures: runs perfbench at seeds 11 and 4242 on every
# workload (about 4 minutes) and diffs the simulated end-to-end metrics,
# `attempted` and `failed` against bench/perfbench_golden.json, printing
# each differing field as workload, seed, old and new value.
# `make golden-update` rewrites the file instead; see bench/golden.py.
golden:
	dune build ./perfbench/main.exe
	python3 bench/golden.py

golden-update:
	dune build ./perfbench/main.exe
	python3 bench/golden.py --update

clean:
	dune clean
