#!/bin/sh
# Pre-merge gate: everything must build (libraries, executables, examples,
# docs) and the whole test suite must pass.  Run from the repo root:
#
#     bin/check.sh [--quick] [--chaos]
#
# CI and local development use the same gate; a change is mergeable only
# when this script exits 0.  --quick stops after the build, the test suite
# and the telemetry smoke test (the cheap subset CI runs per matrix leg);
# the full gate adds the degraded-run, kill-and-resume and speculative-
# compaction smoke tests.  --chaos builds and then soaks the daemon under
# deterministic fault injection (seed pinned via CHAOS_SEED, default 42):
# every request must end in exactly one typed outcome, the daemon must
# survive and drain cleanly, and a retried batch must be byte-identical
# to an uninterrupted one.  The flags compose: --quick --chaos runs the
# quick subset AND the chaos soak, and a failure in either fails the gate
# (an earlier version exited 0 after the soak without ever running the
# quick subset).
#
# Set CHECK_ARTIFACTS to a directory to keep the metrics/trace documents
# the smoke tests produce (CI uploads them as build artifacts).
set -eu
cd "$(dirname "$0")/.."

quick=0
chaos=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --chaos) chaos=1 ;;
    *)
      echo "check.sh: unknown argument '$arg' (expected --quick and/or --chaos)" >&2
      exit 2
      ;;
  esac
done

fail() {
  echo "check: FAILED: $*" >&2
  exit 1
}

# Every assertion below parses the versioned JSON telemetry; there is no
# point limping along without jq and silently skipping them.
command -v jq > /dev/null 2>&1 \
  || fail "jq is required (apt-get install jq / brew install jq)"

# QCheck property tests draw a fresh random seed per run unless pinned.
# Pin it (overridable) so the gate is reproducible — the properties still
# explore new seeds in interactive `dune runtest`.
: "${QCHECK_SEED:=1}"
export QCHECK_SEED

# The jobs-invariant counters of a metrics document: every counter except
# the speculative-dispatch and arena-reuse accounting, which by design
# reflect --compact-jobs and the dispatch schedule.  Keep the two prefixes
# in step with Compaction.Spec.jobs_dependent, their source.
jobs_invariant_counters='.counters | with_entries(select(.key
  | startswith("compaction.speculative.")
    or startswith("compaction.adaptive.") | not))'

tmpdir=$(mktemp -d)
keep_artifacts() {
  if [ -n "${CHECK_ARTIFACTS:-}" ]; then
    mkdir -p "$CHECK_ARTIFACTS"
    cp -f "$tmpdir"/*.json "$tmpdir"/*.jsonl "$tmpdir"/*.txt \
      "$CHECK_ARTIFACTS"/ 2>/dev/null || true
  fi
}
trap 'keep_artifacts; rm -rf "$tmpdir"' EXIT

echo "== dune build @all =="
dune build @all || fail "dune build @all"

wait_for_socket() {
  i=0
  while [ ! -S "$1" ] && [ "$i" -lt 100 ]; do
    i=$((i + 1)); sleep 0.1
  done
  [ -S "$1" ] || fail "$2 socket never appeared"
}

# Prometheus text lint of `scanatpg stats --prom` against socket $1, kept
# in $2: every line is a bare name{labels} value sample, and the e2e
# latency p99 is present.  Daemon and router render it with one function.
lint_prom() {
  "$scanatpg_bin" stats --socket "$1" --prom > "$2" 2> /dev/null \
    || fail "scanatpg stats --prom against $1"
  if grep -Evq '^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$' "$2"; then
    fail "prometheus exposition from $1 has a malformed line"
  fi
  grep -q '^scanatpg_hist{name="server\.e2e_ns",quantile="0\.99"} ' "$2" \
    || fail "prometheus e2e p99 sample missing from $1"
}

run_chaos_soak() {
  scanatpg_bin=./_build/default/bin/scanatpg.exe
  [ -x "$scanatpg_bin" ] || fail "missing $scanatpg_bin (dune build @all ran?)"
  : "${CHAOS_SEED:=42}"
  : "${CHAOS_REQUESTS:=200}"

  echo "== chaos soak (seed $CHAOS_SEED, $CHAOS_REQUESTS requests) =="
  # Daemon with every injection site armed; the retrying batch client
  # drives the workload through injected worker crashes, compile
  # failures, queue delays and killed response writes.  The contract:
  # the daemon never dies, every request ends in exactly one typed
  # outcome (no "lost"), and SIGTERM still drains to exit 0.
  chaos_spec="seed=${CHAOS_SEED};worker=crash@0.03;cache.compile=error@0.05"
  chaos_spec="${chaos_spec};queue=delay:1@0.2;writer=error@0.01"
  : > "$tmpdir/chaos-requests.jsonl"
  i=0
  while [ "$i" -lt "$CHAOS_REQUESTS" ]; do
    i=$((i + 1))
    case $((i % 3)) in
      0) printf '{"op":"generate","circuit":"s298","seed":%d}\n' "$i" ;;
      1) printf '{"op":"generate","circuit":"s27","seed":%d}\n' "$i" ;;
      2) printf '{"op":"table","circuit":"s27"}\n' ;;
    esac >> "$tmpdir/chaos-requests.jsonl"
  done
  "$scanatpg_bin" serve --socket "$tmpdir/chaos.sock" --quiet \
    --server-jobs 2 --chaos "$chaos_spec" \
    --access-log "$tmpdir/chaos-access.jsonl" \
    --metrics "$tmpdir/chaos-metrics.json" &
  serve_pid=$!
  wait_for_socket "$tmpdir/chaos.sock" "chaos daemon"
  rc=0
  "$scanatpg_bin" batch --socket "$tmpdir/chaos.sock" \
    --retries 6 --backoff-ms 50 \
    "$tmpdir/chaos-requests.jsonl" -o "$tmpdir/chaos-responses.jsonl" \
    2> /dev/null || rc=$?
  # injected faults surface as typed failures, so batch may exit 1
  [ "$rc" -eq 0 ] || [ "$rc" -eq 1 ] || [ "$rc" -eq 3 ] \
    || fail "chaos batch exited $rc (expected 0, 1 or 3)"
  kill -0 "$serve_pid" 2> /dev/null \
    || fail "daemon died during the chaos soak"
  jq -es --argjson n "$CHAOS_REQUESTS" \
    'length == $n and all(.[];
       .status == "ok" or .status == "degraded" or .status == "error"
       or .status == "overloaded" or .status == "internal_error")' \
    "$tmpdir/chaos-responses.jsonl" > /dev/null \
    || fail "not every request ended in exactly one typed outcome"
  kill -TERM "$serve_pid"
  wait "$serve_pid" || fail "chaos daemon exited non-zero after SIGTERM"
  jq -e '.counters["server.internal_error"] >= 1' \
    "$tmpdir/chaos-metrics.json" > /dev/null \
    || fail "soak injected no faults (server.internal_error == 0)"
  jq -es --argjson n "$CHAOS_REQUESTS" \
    'length >= $n and all(.[]; has("id") and has("op") and has("status"))' \
    "$tmpdir/chaos-access.jsonl" > /dev/null \
    || fail "chaos access log not well-formed"

  echo "== chaos retry byte-identity =="
  # A single injected connection kill at the response writer: the
  # retrying client must reconnect, replay only the unanswered requests,
  # and produce bytes identical to an uninterrupted run.
  cat > "$tmpdir/retry-requests.jsonl" <<'EOF'
{"op":"generate","circuit":"s27","seed":7}
{"op":"generate","circuit":"s298","seed":5}
{"op":"table","circuit":"s27"}
{"op":"generate","circuit":"s27","seed":9}
EOF
  run_retry_daemon() {
    sock=$1; out=$2; chaos_opt=$3; retry_opts=$4
    if [ -n "$chaos_opt" ]; then
      "$scanatpg_bin" serve --socket "$sock" --quiet --chaos "$chaos_opt" &
    else
      "$scanatpg_bin" serve --socket "$sock" --quiet &
    fi
    pid=$!
    wait_for_socket "$sock" "retry daemon"
    # shellcheck disable=SC2086
    "$scanatpg_bin" batch --socket "$sock" $retry_opts \
      "$tmpdir/retry-requests.jsonl" -o "$out" 2> /dev/null \
      || fail "retry batch against $sock"
    kill -TERM "$pid"
    wait "$pid" || fail "retry daemon exited non-zero"
  }
  run_retry_daemon "$tmpdir/clean.sock" "$tmpdir/clean-responses.jsonl" "" ""
  run_retry_daemon "$tmpdir/faulty.sock" "$tmpdir/retried-responses.jsonl" \
    "seed=${CHAOS_SEED};writer=error#1" "--retries 4 --backoff-ms 50"
  diff "$tmpdir/clean-responses.jsonl" "$tmpdir/retried-responses.jsonl" \
    || fail "retried batch differs from the uninterrupted run"
}

run_fleet_smoke() {
  scanatpg_bin=./_build/default/bin/scanatpg.exe
  [ -x "$scanatpg_bin" ] || fail "missing $scanatpg_bin (dune build @all ran?)"
  : "${CHAOS_SEED:=42}"

  echo "== fleet smoke (router over 2 shards, injected shard crash) =="
  # The armed failpoint SIGKILLs the dispatch target's shard process
  # exactly once; the router must restart it, redeliver the lost
  # request, and keep every client outcome typed — the crash is
  # invisible to the client.
  cat > "$tmpdir/fleet-requests.jsonl" <<'EOF'
{"op":"generate","circuit":"s27","seed":7}
{"op":"generate","circuit":"s208","seed":5}
{"op":"table","circuit":"s27"}
{"op":"generate","circuit":"s27","seed":9}
{"op":"generate","circuit":"s27","seed":7}
{"op":"table","circuit":"s27"}
EOF
  "$scanatpg_bin" router --socket "$tmpdir/fleet.sock" --shards 2 --quiet \
    --chaos "seed=${CHAOS_SEED};shard=crash#1" \
    --metrics "$tmpdir/fleet-metrics.json" &
  router_pid=$!
  wait_for_socket "$tmpdir/fleet.sock" "fleet router"
  "$scanatpg_bin" batch --socket "$tmpdir/fleet.sock" \
    "$tmpdir/fleet-requests.jsonl" -o "$tmpdir/fleet-responses.jsonl" \
    2> /dev/null || fail "batch through the router"
  kill -0 "$router_pid" 2> /dev/null \
    || fail "router died during the fleet smoke"
  jq -es 'length == 6 and all(.[]; .status == "ok")' \
    "$tmpdir/fleet-responses.jsonl" > /dev/null \
    || fail "a routed request did not end in a typed ok outcome"

  # Open-loop load harness, two rates: a sustainable one (no losses) and
  # a deliberate overload — admission control must still hand every
  # arrival a typed response (lost == 0), it just types the excess as
  # overloaded.  Both reports are kept as CI artifacts.
  printf '%s\n' '{"op":"generate","circuit":"s27","seed":7}' \
    '{"op":"table","circuit":"s27"}' > "$tmpdir/fleet-templates.jsonl"
  "$scanatpg_bin" batch --socket "$tmpdir/fleet.sock" \
    --rate 20 --duration 2 --seed "$CHAOS_SEED" \
    --report "$tmpdir/fleet-load-report.json" \
    "$tmpdir/fleet-templates.jsonl" 2> /dev/null \
    || fail "load harness at 20 rps"
  jq -e '.schema == "scanatpg-load/1" and .lost == 0 and .completed >= 1' \
    "$tmpdir/fleet-load-report.json" > /dev/null \
    || fail "load-harness report not well-formed (or lost requests)"
  "$scanatpg_bin" batch --socket "$tmpdir/fleet.sock" \
    --rate 300 --duration 1 --seed "$CHAOS_SEED" \
    --report "$tmpdir/fleet-overload-report.json" \
    "$tmpdir/fleet-templates.jsonl" 2> /dev/null \
    || fail "load harness at 300 rps (overload)"
  jq -e '.lost == 0' "$tmpdir/fleet-overload-report.json" > /dev/null \
    || fail "overload dropped a request without a typed response"

  # Fleet-wide top: aggregate line plus one row per target.
  "$scanatpg_bin" top --socket "$tmpdir/fleet.sock" \
    --socket "$tmpdir/fleet.sock.shard0" \
    --socket "$tmpdir/fleet.sock.shard1" \
    --count 1 > "$tmpdir/fleet-top.txt" 2> /dev/null \
    || fail "fleet-wide top"
  grep -q '^fleet ' "$tmpdir/fleet-top.txt" \
    || fail "top did not render the aggregate fleet line"
  [ "$(wc -l < "$tmpdir/fleet-top.txt")" -eq 4 ] \
    || fail "top did not render one row per target"
  lint_prom "$tmpdir/fleet.sock" "$tmpdir/fleet-stats-prom.txt"

  # Clean fanned-out drain: SIGTERM must collect both shard processes,
  # unlink every socket, and exit 0.
  kill -TERM "$router_pid"
  wait "$router_pid" || fail "router exited non-zero after SIGTERM"
  [ ! -S "$tmpdir/fleet.sock" ] || fail "router socket not unlinked"
  [ ! -S "$tmpdir/fleet.sock.shard0" ] && [ ! -S "$tmpdir/fleet.sock.shard1" ] \
    || fail "shard sockets not unlinked after the fanned-out drain"
  jq -e '.counters["router.shard_kills"] >= 1
         and .counters["router.shard_restarts"] >= 1' \
    "$tmpdir/fleet-metrics.json" > /dev/null \
    || fail "injected shard crash never fired (or no restart)"
  pgrep -f "scanatpg.exe serve --socket $tmpdir/fleet.sock" > /dev/null 2>&1 \
    && fail "a shard process outlived the router" || true
}

run_fleet_soak() {
  scanatpg_bin=./_build/default/bin/scanatpg.exe
  : "${CHAOS_SEED:=42}"
  : "${FLEET_REQUESTS:=60}"

  echo "== fleet chaos soak (seed $CHAOS_SEED, $FLEET_REQUESTS requests) =="
  # Router over 2 shards with random shard kills and client-write faults
  # armed.  A retrying batch drives a two-circuit mix (s27 and s208 hash
  # to different shards, so both supervision paths see traffic).  The
  # contract mirrors the daemon soak: the router never dies, every
  # request ends in exactly one typed outcome, SIGTERM drains to 0.
  : > "$tmpdir/fsoak-requests.jsonl"
  i=0
  while [ "$i" -lt "$FLEET_REQUESTS" ]; do
    i=$((i + 1))
    case $((i % 3)) in
      0) printf '{"op":"generate","circuit":"s208","seed":%d}\n' "$i" ;;
      1) printf '{"op":"generate","circuit":"s27","seed":%d}\n' "$i" ;;
      2) printf '{"op":"table","circuit":"s27"}\n' ;;
    esac >> "$tmpdir/fsoak-requests.jsonl"
  done
  "$scanatpg_bin" router --socket "$tmpdir/fsoak.sock" --shards 2 --quiet \
    --chaos "seed=${CHAOS_SEED};shard=crash@0.05;writer=error@0.02" \
    --metrics "$tmpdir/fsoak-metrics.json" &
  router_pid=$!
  wait_for_socket "$tmpdir/fsoak.sock" "fleet soak router"
  rc=0
  "$scanatpg_bin" batch --socket "$tmpdir/fsoak.sock" \
    --retries 6 --backoff-ms 50 \
    "$tmpdir/fsoak-requests.jsonl" -o "$tmpdir/fsoak-responses.jsonl" \
    2> /dev/null || rc=$?
  [ "$rc" -eq 0 ] || [ "$rc" -eq 1 ] || [ "$rc" -eq 3 ] \
    || fail "fleet soak batch exited $rc (expected 0, 1 or 3)"
  kill -0 "$router_pid" 2> /dev/null \
    || fail "router died during the fleet soak"
  jq -es --argjson n "$FLEET_REQUESTS" \
    'length == $n and all(.[];
       .status == "ok" or .status == "degraded" or .status == "error"
       or .status == "overloaded" or .status == "internal_error")' \
    "$tmpdir/fsoak-responses.jsonl" > /dev/null \
    || fail "not every routed request ended in exactly one typed outcome"
  kill -TERM "$router_pid"
  wait "$router_pid" || fail "router exited non-zero after the soak SIGTERM"
  jq -e '.counters["router.shard_kills"] >= 1' \
    "$tmpdir/fsoak-metrics.json" > /dev/null \
    || fail "fleet soak injected no shard kills"

  echo "== routed retry byte-identity (mid-stream shard restart) =="
  # Satellite of the retried-vs-clean diff: same requests, but through a
  # router whose shard dies mid-stream AND whose first client write is
  # faulted.  The batch client reconnects to the ROUTER (the only
  # address it knows), replays the unanswered tail, and the bytes must
  # match a clean routed run — and the clean routed run must match the
  # clean direct-daemon run, proving the router is a transparent proxy.
  run_retry_router() {
    sock=$1; out=$2; chaos_opt=$3; retry_opts=$4
    if [ -n "$chaos_opt" ]; then
      "$scanatpg_bin" router --socket "$sock" --shards 2 --quiet \
        --chaos "$chaos_opt" &
    else
      "$scanatpg_bin" router --socket "$sock" --shards 2 --quiet &
    fi
    pid=$!
    wait_for_socket "$sock" "retry router"
    # shellcheck disable=SC2086
    "$scanatpg_bin" batch --socket "$sock" $retry_opts \
      "$tmpdir/retry-requests.jsonl" -o "$out" 2> /dev/null \
      || fail "retry batch against routed $sock"
    kill -TERM "$pid"
    wait "$pid" || fail "retry router exited non-zero"
  }
  run_retry_router "$tmpdir/clean-routed.sock" \
    "$tmpdir/clean-routed-responses.jsonl" "" ""
  run_retry_router "$tmpdir/faulty-routed.sock" \
    "$tmpdir/retried-routed-responses.jsonl" \
    "seed=${CHAOS_SEED};shard=crash#1;writer=error#1" \
    "--retries 4 --backoff-ms 50"
  diff "$tmpdir/clean-routed-responses.jsonl" \
    "$tmpdir/retried-routed-responses.jsonl" \
    || fail "routed retried batch differs from the clean routed run"
  diff "$tmpdir/clean-responses.jsonl" \
    "$tmpdir/clean-routed-responses.jsonl" \
    || fail "routed responses differ from the direct-daemon run"
}

if [ "$chaos" -eq 1 ] && [ "$quick" -eq 0 ]; then
  run_chaos_soak
  run_fleet_smoke
  run_fleet_soak
  echo "check: OK (chaos)"
  exit 0
fi

echo "== dune runtest =="
dune runtest || fail "dune runtest"

echo "== telemetry smoke test =="
# The table subcommand must produce a parseable metrics document with the
# versioned schema tag and at least one phase/counter, and a trace file
# with one JSON object per line.
dune exec bin/scanatpg.exe -- table 6 --circuits s27 --verbose \
  --metrics "$tmpdir/metrics.json" --trace "$tmpdir/trace.jsonl" \
  > "$tmpdir/table.out" 2>&1 \
  || fail "table 6 s27 exited non-zero (see $tmpdir/table.out)"
jq -e '.schema == "scanatpg-metrics/1"' "$tmpdir/metrics.json" > /dev/null \
  || fail "metrics schema tag"
jq -e '.phases.generate >= 0' "$tmpdir/metrics.json" > /dev/null \
  || fail "metrics generate phase"
jq -e '.counters["omit.trials"] >= 1' "$tmpdir/metrics.json" > /dev/null \
  || fail "metrics omit.trials counter"
jq -es 'length >= 1 and all(.[]; .stop_ns >= .start_ns)' \
  "$tmpdir/trace.jsonl" > /dev/null || fail "trace spans well-formed"
grep -q 'omission:' "$tmpdir/table.out" || fail "verbose omission summary"

if [ "$quick" -eq 1 ]; then
  if [ "$chaos" -eq 1 ]; then
    run_chaos_soak
    echo "check: OK (quick+chaos)"
  else
    echo "check: OK (quick)"
  fi
  exit 0
fi

echo "== degraded-run smoke test =="
# A tiny deadline must terminate promptly with the documented degraded
# exit code (3) and still leave a well-formed metrics document that names
# the phase where the budget tripped.
rc=0
dune exec bin/scanatpg.exe -- run s298 --deadline 0.05 \
  --metrics "$tmpdir/degraded.json" > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 3 ] || fail "expected exit 3 (degraded), got $rc"
jq -e '.schema == "scanatpg-metrics/1"' "$tmpdir/degraded.json" > /dev/null \
  || fail "degraded metrics schema tag"
jq -e '.counters | keys | map(select(startswith("budget.tripped."))) | length == 1' \
  "$tmpdir/degraded.json" > /dev/null || fail "budget.tripped.<phase> counter"

echo "== kill-and-resume smoke test =="
# Halt right after the generate phase (induced crash, exit 4), resume from
# the checkpoint, and demand bit-identical table rows and jobs-invariant
# counters versus an uninterrupted run — even at different --jobs and
# --compact-jobs.
rc=0
dune exec bin/scanatpg.exe -- run s27 --checkpoint "$tmpdir/ck" \
  --halt-after generate > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 4 ] || fail "expected exit 4 (halted), got $rc"
dune exec bin/scanatpg.exe -- run s27 --checkpoint "$tmpdir/ck" --resume \
  --jobs 3 --compact-jobs 3 --metrics "$tmpdir/resumed.json" \
  > "$tmpdir/resumed.out" 2>/dev/null || fail "resumed run exited non-zero"
dune exec bin/scanatpg.exe -- run s27 \
  --metrics "$tmpdir/uninterrupted.json" > "$tmpdir/uninterrupted.out" \
  2>/dev/null || fail "uninterrupted run exited non-zero"
diff "$tmpdir/resumed.out" "$tmpdir/uninterrupted.out" \
  || fail "resumed stdout differs from uninterrupted run"
# Every jobs-invariant counter must match bit for bit.
jq -S "$jobs_invariant_counters" \
  "$tmpdir/resumed.json" > "$tmpdir/resumed.counters" \
  || fail "jq on resumed metrics"
jq -S "$jobs_invariant_counters" \
  "$tmpdir/uninterrupted.json" > "$tmpdir/uninterrupted.counters" \
  || fail "jq on uninterrupted metrics"
diff "$tmpdir/resumed.counters" "$tmpdir/uninterrupted.counters" \
  || fail "resumed counters differ from uninterrupted run"

echo "== speculative-compaction smoke test =="
# Static compaction must produce byte-identical sequences and identical
# jobs-invariant counters at --compact-jobs 1 vs 3, and must actually
# dispatch speculative trials at 3.
dune exec bin/scanatpg.exe -- generate s298 --no-compact \
  -o "$tmpdir/seq.txt" > /dev/null 2>&1 || fail "generate s298 --no-compact"
dune exec bin/scanatpg.exe -- compact s298 "$tmpdir/seq.txt" \
  -o "$tmpdir/compact1.txt" --metrics "$tmpdir/compact1.json" \
  > "$tmpdir/compact1.out" 2>&1 || fail "compact at --compact-jobs 1"
dune exec bin/scanatpg.exe -- compact s298 "$tmpdir/seq.txt" --compact-jobs 3 \
  -o "$tmpdir/compact3.txt" --metrics "$tmpdir/compact3.json" \
  > "$tmpdir/compact3.out" 2>&1 || fail "compact at --compact-jobs 3"
diff "$tmpdir/compact1.txt" "$tmpdir/compact3.txt" \
  || fail "compacted sequences differ between --compact-jobs 1 and 3"
jq -S "$jobs_invariant_counters" \
  "$tmpdir/compact1.json" > "$tmpdir/compact1.counters" \
  || fail "jq on compact-jobs-1 metrics"
jq -S "$jobs_invariant_counters" \
  "$tmpdir/compact3.json" > "$tmpdir/compact3.counters" \
  || fail "jq on compact-jobs-3 metrics"
diff "$tmpdir/compact1.counters" "$tmpdir/compact3.counters" \
  || fail "compaction counters differ between --compact-jobs 1 and 3"
jq -e '.counters["compaction.speculative.dispatched"] >= 1' \
  "$tmpdir/compact3.json" > /dev/null \
  || fail "no speculative trials dispatched at --compact-jobs 3"
jq -e '.counters["compaction.speculative.dispatched"] ==
       .counters["compaction.speculative.committed"]
       + .counters["compaction.speculative.discarded"]' \
  "$tmpdir/compact3.json" > /dev/null \
  || fail "speculative dispatch accounting does not balance"
jq -e '.counters | has("compaction.adaptive.arena_reuses")' \
  "$tmpdir/compact3.json" > /dev/null \
  || fail "arena-reuse telemetry missing at --compact-jobs 3"
# Width 2 is the bench's compact_jobs; --jobs 2 adds the fault-simulation
# fan-out of both target computations: the sequence's first targets and
# the recomputation between restoration and omission.
for jobs in "--compact-jobs 2" "--jobs 2 --compact-jobs 2"; do
  tag=$(echo "$jobs" | tr -d ' -')
  # shellcheck disable=SC2086
  dune exec bin/scanatpg.exe -- compact s298 "$tmpdir/seq.txt" $jobs \
    -o "$tmpdir/$tag.txt" --metrics "$tmpdir/$tag.json" \
    > "$tmpdir/$tag.out" 2>&1 || fail "compact at $jobs"
  diff "$tmpdir/compact1.txt" "$tmpdir/$tag.txt" \
    || fail "compacted sequences differ between --compact-jobs 1 and $jobs"
  jq -S "$jobs_invariant_counters" "$tmpdir/$tag.json" \
    > "$tmpdir/$tag.counters" || fail "jq on $jobs metrics"
  diff "$tmpdir/compact1.counters" "$tmpdir/$tag.counters" \
    || fail "compaction counters differ between --compact-jobs 1 and $jobs"
done

echo "== help pages =="
# A doc string cmdliner cannot parse still renders, but warns on stderr.
./_build/default/bin/scanatpg.exe router --help=plain > /dev/null \
  2> "$tmpdir/router-help.err" || fail "router --help=plain"
[ ! -s "$tmpdir/router-help.err" ] \
  || fail "router --help=plain wrote to stderr: $(cat "$tmpdir/router-help.err")"

echo "== malformed sequence files =="
# An empty file and a vector of the wrong width (s27's C_scan has 6
# inputs) exit 2 before any simulation, naming the file and the line.
: > "$tmpdir/empty.seq"
printf '0101\n' > "$tmpdir/narrow.seq"
for f in empty narrow; do
  for cmd in "compact s27" "diagnose s27 --inject 0"; do
    rc=0
    # shellcheck disable=SC2086
    dune exec bin/scanatpg.exe -- $cmd "$tmpdir/$f.seq" > /dev/null \
      2> "$tmpdir/$f.err" || rc=$?
    [ "$rc" -eq 2 ] && grep -q -- "$f.seq:1: " "$tmpdir/$f.err" \
      || fail "$cmd on $f.seq: exit $rc, not 2 naming $f.seq:1"
  done
done

echo "== diagnose smoke test =="
# A detected fault, injected as the observed failing device, explains its
# own response exactly.  Without candidates the ranking lists exactly the
# faults the sequence detects, so its last line names one of them.
dune exec bin/scanatpg.exe -- generate s27 -o "$tmpdir/diag.seq" > /dev/null \
  || fail "generate s27 -o"
dune exec bin/scanatpg.exe -- diagnose s27 "$tmpdir/diag.seq" --inject 0 \
  --top 100000 > "$tmpdir/diag0.out" || fail "diagnose s27 --inject 0"
k=$(sed -n 's/^ *[0-9]*\. fault \([0-9]*\):.*/\1/p' "$tmpdir/diag0.out" | tail -n 1)
[ -n "$k" ] || fail "diagnose s27 ranked no candidate"
dune exec bin/scanatpg.exe -- diagnose s27 "$tmpdir/diag.seq" --inject "$k" \
  --top 100000 > "$tmpdir/diag.out" || fail "diagnose s27 --inject $k"
grep -q "fault $k: matched [0-9]*, missed 0, extra 0  <- injected" \
  "$tmpdir/diag.out" || fail "injected fault $k does not explain its response"

echo "== serve-mode smoke test =="
# Daemon on a temp socket; pipeline generate (twice, so the second is a
# warm-cache hit) + stats + shutdown through the batch client.  Demand
# clean exits on both sides, server.accepted == requests sent, exactly one
# cache hit, and identical generate payloads (modulo id) cold vs warm.
scanatpg_bin=./_build/default/bin/scanatpg.exe
[ -x "$scanatpg_bin" ] || fail "missing $scanatpg_bin (dune build @all ran?)"
# A host name is not an address: exit 2 with a message naming the flag.
rc=0
"$scanatpg_bin" stats --tcp localhost:7227 > /dev/null 2> "$tmpdir/tcp.err" \
  || rc=$?
[ "$rc" -eq 2 ] && grep -q -- '--tcp' "$tmpdir/tcp.err" \
  || fail "--tcp with a host name: exit $rc, not 2 naming --tcp"
cat > "$tmpdir/requests.jsonl" <<'EOF'
{"op":"generate","circuit":"s27","seed":7}
{"op":"generate","circuit":"s27","seed":7}
{"op":"stats"}
{"op":"shutdown"}
EOF
"$scanatpg_bin" serve --socket "$tmpdir/serve.sock" --quiet \
  --metrics "$tmpdir/serve-metrics.json" &
serve_pid=$!
wait_for_socket "$tmpdir/serve.sock" "daemon"
"$scanatpg_bin" batch --socket "$tmpdir/serve.sock" \
  "$tmpdir/requests.jsonl" -o "$tmpdir/responses.jsonl" 2> /dev/null \
  || fail "batch against daemon"
wait "$serve_pid" || fail "daemon exited non-zero after a shutdown request"
[ "$(wc -l < "$tmpdir/responses.jsonl")" -eq 4 ] \
  || fail "expected 4 responses"
jq -es 'all(.[]; .status == "ok")' "$tmpdir/responses.jsonl" > /dev/null \
  || fail "non-ok response in batch replay"
jq -e '.counters["server.accepted"] == 4' "$tmpdir/serve-metrics.json" \
  > /dev/null || fail "server.accepted != requests sent"
jq -e '.counters["server.cache_hit"] == 1
       and .counters["server.cache_miss"] == 1' \
  "$tmpdir/serve-metrics.json" > /dev/null \
  || fail "expected one cache miss then one cache hit"
warm1=$(sed -n 1p "$tmpdir/responses.jsonl" | jq -cS 'del(.id)')
warm2=$(sed -n 2p "$tmpdir/responses.jsonl" | jq -cS 'del(.id)')
[ "$warm1" = "$warm2" ] \
  || fail "warm-cache generate payload differs from the cold one"

echo "== serve-drain smoke test =="
# SIGTERM with a short grace: in-flight work is budget-tripped to typed
# degraded responses, the daemon still exits 0, and the access log holds
# one well-formed JSON line per request.
cat > "$tmpdir/drain-requests.jsonl" <<'EOF'
{"op":"table","circuit":"s344"}
{"op":"table","circuit":"s298"}
EOF
"$scanatpg_bin" serve --socket "$tmpdir/drain.sock" --quiet \
  --drain-grace 0.2 --access-log "$tmpdir/access.jsonl" &
serve_pid=$!
wait_for_socket "$tmpdir/drain.sock" "drain daemon"
"$scanatpg_bin" batch --socket "$tmpdir/drain.sock" \
  "$tmpdir/drain-requests.jsonl" -o "$tmpdir/drain-responses.jsonl" \
  2> /dev/null &
batch_pid=$!
sleep 0.5
kill -TERM "$serve_pid"
wait "$serve_pid" || fail "daemon exited non-zero after SIGTERM"
rc=0
wait "$batch_pid" || rc=$?
[ "$rc" -eq 0 ] || [ "$rc" -eq 3 ] \
  || fail "batch during drain exited $rc (expected 0 or 3)"
jq -es 'all(.[]; .status == "ok" or .status == "degraded")' \
  "$tmpdir/drain-responses.jsonl" > /dev/null \
  || fail "drain left a response that is neither ok nor degraded"
jq -es 'length == 2 and all(.[]; has("id") and has("op") and has("status"))' \
  "$tmpdir/access.jsonl" > /dev/null \
  || fail "access log not well-formed after drain"

echo "== observability smoke test =="
# Daemon with the full observability plane on: Chrome trace export, a
# zero slow threshold (every compute request logs its span tree) and the
# enriched access log.  While it is up, the Prometheus exposition must
# pass a line lint; after drain the trace must be a Perfetto-loadable
# trace-event array.
cat > "$tmpdir/obs-requests.jsonl" <<'EOF'
{"op":"generate","circuit":"s27","seed":7}
EOF
"$scanatpg_bin" serve --socket "$tmpdir/obs.sock" --quiet \
  --trace "$tmpdir/trace-chrome.json" --trace-format chrome --slow-ms 0 \
  --access-log "$tmpdir/obs-access.jsonl" &
serve_pid=$!
wait_for_socket "$tmpdir/obs.sock" "obs daemon"
"$scanatpg_bin" batch --socket "$tmpdir/obs.sock" \
  "$tmpdir/obs-requests.jsonl" -o "$tmpdir/obs-responses.jsonl" \
  2> /dev/null || fail "batch against obs daemon"
lint_prom "$tmpdir/obs.sock" "$tmpdir/stats-prom.txt"
printf '{"op":"shutdown"}\n' > "$tmpdir/obs-shutdown.jsonl"
"$scanatpg_bin" batch --socket "$tmpdir/obs.sock" \
  "$tmpdir/obs-shutdown.jsonl" 2> /dev/null || fail "obs daemon shutdown"
wait "$serve_pid" || fail "obs daemon exited non-zero after shutdown"
jq -e 'type == "array" and length >= 1
       and all(.[]; .ph == "X" and has("ts") and has("dur") and has("name"))' \
  "$tmpdir/trace-chrome.json" > /dev/null \
  || fail "chrome trace is not a well-formed trace-event array"
jq -es 'any(.[]; .op == "generate" and has("spans") and has("trace_id")
            and has("queue_wait_ns") and has("service_ns"))' \
  "$tmpdir/obs-access.jsonl" > /dev/null \
  || fail "slow request did not log an enriched line with its span tree"

run_fleet_smoke

echo "check: OK"
