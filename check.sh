#!/bin/sh
# Repo verification: build, tier-1 tests, lint, and short multicore smokes
# whose every cell is invariant-checked (conservation, capacity bound, slot
# lifecycle, telemetry identities).
# Uses only packages a standard dev switch already has; exits non-zero on
# any failure. CI runs exactly this script.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest (tier-1) =="
dune runtest

echo "== pools_lint (concurrency-discipline static analysis) =="
dune exec bin/pools_lint.exe -- check lib

echo "== pools_lint interleave (DPOR Mc_segment schedule check) =="
# The scenario count is derived from the registry itself (interleave
# --count), not hard-coded here: the run must cover exactly the scenarios
# the binary declares, so a lost scenario is a count mismatch, not a
# silently smaller run.
expected=$(dune exec bin/pools_lint.exe -- interleave --count)
interleave_start=$(date +%s)
interleave_out=$(dune exec bin/pools_lint.exe -- interleave)
interleave_elapsed=$(( $(date +%s) - interleave_start ))
echo "$interleave_out"
scenarios=$(echo "$interleave_out" | sed -n 's/^pools_lint interleave: \([0-9]*\) scenarios.*/\1/p')
if [ -z "$scenarios" ] || [ "$scenarios" -ne "$expected" ]; then
  echo "check.sh: expected $expected interleave scenarios, saw '${scenarios:-none}'" >&2
  exit 1
fi
# Wall-clock budget: the reduction is the only thing keeping the deeper
# scenarios enumerable, so a blown budget means DPOR regressed (or a
# scenario grew past what it buys back).
interleave_budget=120
if [ "$interleave_elapsed" -gt "$interleave_budget" ]; then
  echo "check.sh: interleave took ${interleave_elapsed}s, budget ${interleave_budget}s" >&2
  exit 1
fi
echo "check.sh: interleave took ${interleave_elapsed}s (budget ${interleave_budget}s)"

echo "== mc-throughput soak (all kinds, unbounded + capacity 32, churn on) =="
# Every mc-throughput cell drains to quiescence and runs the invariant
# checks (exit 1 on any violation); --churn adds register/deregister churn.
dune exec bin/pools_bench.exe -- mc-throughput --domains 4 --seconds 0.5 \
  --kind all --workload default --churn --out BENCH_mcsoak_smoke.json
dune exec bin/pools_bench.exe -- mc-throughput --domains 4 --seconds 0.5 \
  --kind all --workload default --churn --capacity 32 \
  --out BENCH_mcsoak_bounded_smoke.json

echo "== mc-throughput soak (all kinds, sparse mix: blocking removes park) =="
dune exec bin/pools_bench.exe -- mc-throughput --domains 4 --seconds 0.3 \
  --kind all --workload mix=0.35,initial=8 --churn \
  --out BENCH_mcsparse_soak_smoke.json

echo "== mc-throughput smoke (fast path vs all-mutex baseline) =="
dune exec bin/pools_bench.exe -- mc-throughput --domains 2 --seconds 0.2 \
  --out BENCH_mcpool_smoke.json

echo "== mc-throughput smoke (topology-aware vs distance-oblivious, two-group) =="
# The committed topo/two_group.topo drives both this real-domain run and
# the simulator's topology experiment — one locality model, two worlds.
dune exec bin/pools_bench.exe -- mc-throughput --domains 4 --seconds 0.2 \
  --kind linear --workload sparse --topology topo/two_group.topo \
  --out BENCH_mctopo_smoke.json

echo "== mc-throughput --trace smoke (traced tree cell, invariants and Chrome export) =="
dune exec bin/pools_bench.exe -- mc-throughput --domains 3 --seconds 0.3 \
  --kind tree --workload mix=0.4,initial=11 \
  --trace TRACE_mcpool_smoke.json --out BENCH_mctrace_smoke.json

echo "== mc-app smoke (minimax + n-queens on real domains, pool vs stack) =="
# Tiny parameters: the full grid is the committed BENCH_mcapp.json; this
# only proves the scheduler wiring (answers checked against the sequential
# references, task conservation enforced — a mismatch is exit 1).
dune exec bin/pools_bench.exe -- mc-app --domains 1,2 --plies 1 --queens 6 \
  --fork-depth 2 --repeats 1 --out BENCH_mcapp_smoke.json

echo "== examples smoke (they must run, not just build) =="
# task_scheduler exits non-zero if the 1-domain and N-domain runs disagree
# on the task count or checksum; the others assert their answers inline.
dune exec examples/quickstart.exe > /dev/null
dune exec examples/sim_tour.exe > /dev/null
dune exec examples/task_scheduler.exe > /dev/null
dune exec examples/game_search.exe > /dev/null
dune exec examples/backtracking.exe > /dev/null

echo "== timing discipline (no wall-clock timing outside Cpool_util.Clock) =="
# Examples and harnesses must time with the monotonic Clock; gettimeofday
# jumps under NTP and once fed negative deltas into the stats. Only the
# Clock's own documentation may mention it.
if grep -rn "Unix\.gettimeofday" --include="*.ml" --include="*.mli" \
  bin lib examples bench test | grep -v "lib/util/clock.mli"; then
  echo "check.sh: Unix.gettimeofday outside Cpool_util.Clock (use Clock.now_ns)" >&2
  exit 1
fi

echo "== parking discipline (idle searchers and awaiters never sleep-poll) =="
# Idle waits park on an eventcount (Mc_park) and are woken by the change
# they wait for; a timed sleep in the hunt or the await would bring back
# the timer-slack latency floor.
if grep -n "Unix\.sleepf" lib/mcpool/mc_pool.ml lib/tasks/mc_task.ml; then
  echo "check.sh: Unix.sleepf in the pool hunt or the task await (park on Mc_park)" >&2
  exit 1
fi

echo "== event discipline (each pool event is recorded once, through Mc_stats) =="
# Mc_stats owns the optional trace ring: every handle-level note bumps its
# counter and appends its event in one call. A direct ring write elsewhere
# is a second event path. The one exception is the Mpsc_drain event, whose
# counter is bumped inside the model-checked segment core.
if grep -rn "Mc_trace\.record" --include="*.ml" --include="*.mli" lib \
  | grep -v "^lib/mcpool/mc_stats\.ml:" | grep -v "^lib/mcpool/mc_trace\.ml:" \
  | grep -v "^lib/mcpool/mc_pool\.ml:[0-9]*: *Mc_trace\.record ring Mc_trace\.Mpsc_drain "; then
  echo "check.sh: Mc_trace.record outside Mc_stats (record events through an Mc_stats note)" >&2
  exit 1
fi

echo "== mc-siege smoke (open-loop breaking-point search, 2 domains) =="
dune exec bin/pools_bench.exe -- mc-siege --domains 2 --kind linear \
  --workload siege,arrival=poisson:500,duration=0.05,arrangement=balanced:1 \
  --max-rate 2000 --bisect 0 --out BENCH_mcsiege_smoke.json

echo "== json-check (benchmark artifacts parse and validate) =="
# The topology artifact's near/far steal split is validated here too
# (near_steals + far_steals must equal steals in every topology cell).
dune exec bin/pools_bench.exe -- json-check BENCH_mcsoak_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcsoak_bounded_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcsparse_soak_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mctrace_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcpool_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mctopo_smoke.json
dune exec bin/pools_bench.exe -- json-check TRACE_mcpool_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcsiege_smoke.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcapp_smoke.json
# The committed artifacts must keep validating too.
dune exec bin/pools_bench.exe -- json-check BENCH_mcpool.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcsiege.json
dune exec bin/pools_bench.exe -- json-check BENCH_mcapp.json

echo "== siege-diff gate (fresh smoke vs itself, then the committed baseline) =="
# Self-diff must always be clean — it exercises the pairing and threshold
# logic without rerunning anything.
dune exec bin/pools_bench.exe -- siege-diff BENCH_mcsiege_smoke.json \
  --fresh BENCH_mcsiege_smoke.json
# The committed baseline is rerun cell by cell (its cells carry their own
# config); thresholds live in the artifact and are generous for CI noise.
dune exec bin/pools_bench.exe -- siege-diff BENCH_mcsiege.json
rm -f BENCH_mcpool_smoke.json \
  BENCH_mctopo_smoke.json TRACE_mcpool_smoke.json BENCH_mcsiege_smoke.json \
  BENCH_mcapp_smoke.json BENCH_mcsoak_smoke.json BENCH_mcsoak_bounded_smoke.json \
  BENCH_mcsparse_soak_smoke.json BENCH_mctrace_smoke.json

echo "== usage-error exit codes (pools_bench, PR 7 convention) =="
# mc-throughput must reject nonsense flags with a usage error on stderr
# and exit 2 (0 = clean, 1 = findings, 2 = usage). The hinted kind is
# simulator-only, so naming it on a multicore command is one of them.
for bad in "--domains 0" "--seconds=-1" "--topology nonexistent.topo" "--kind hinted" \
  "--churn --trace /dev/null --domains 2 --seconds 0.01 --no-baseline"; do
  if dune exec bin/pools_bench.exe -- mc-throughput $bad --out /dev/null \
    >/dev/null 2>&1; then
    echo "check.sh: mc-throughput $bad should have failed" >&2
    exit 1
  fi
  status=0
  dune exec bin/pools_bench.exe -- mc-throughput $bad --out /dev/null \
    >/dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: mc-throughput $bad exited $status, expected 2" >&2
    exit 1
  fi
done
# An unknown workload spec must exit 2 and list the valid forms on stderr
# (the one parser serves mc-throughput and mc-siege alike).
for cmd in mc-throughput mc-siege; do
  status=0
  err=$(dune exec bin/pools_bench.exe -- "$cmd" --workload bogus \
    2>&1 >/dev/null) || status=$?
  if [ "$status" -ne 2 ]; then
    echo "check.sh: $cmd --workload bogus exited $status, expected 2" >&2
    exit 1
  fi
  case "$err" in
  *"mix="*) ;;
  *)
    echo "check.sh: $cmd --workload bogus error does not list valid forms" >&2
    exit 1
    ;;
  esac
done

echo "check.sh: all green"
