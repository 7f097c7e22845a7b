#!/usr/bin/env bash
# Smoke test for the pmsd serving layer (make server-smoke).
#
# Boots pmsd on a random port with a deliberately tiny capacity
# (1 worker, 100ms injected access time, 4 admitted requests), then runs
# a scripted request mix:
#
#   1. health + each API endpoint answers 200 with sane payloads, and
#      /metrics counts each request, and each 400, on its own endpoint;
#      a heap run on a 40-level tree answers and pmsd stays healthy;
#   2. a parallel singleton burst must coalesce: across the burst,
#      /metrics has to show coalesced jobs and fewer flushed batches than
#      lookups served;
#   3. a saturating burst must shed load with 429s while the admitted
#      requests still complete with 200;
#   4. SIGTERM drains gracefully and the process exits 0;
#   5. a pmsd with -record tapes a request mix into a PMSTRC1 file on
#      SIGTERM, and two pmsd -replay runs of it print the same digest
#      with zero bound violations;
#   6. a pmsd with -store-dir serves traffic, drains on SIGTERM
#      (persisting its memory tier to the store), and a relaunch over the
#      same directory warm-starts: the pre-warmed spec is served without
#      a single rematerialization and the bound monitor stays at zero.
#
# Every pmsd the script starts must keep the bound monitor
# (pmsd_bound_violations_total on /metrics) at zero, and every file it
# writes (the -record trace, store entries and MANIFEST, incidents) must
# leave no *.tmp behind.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR="$(mktemp -d)"
SERVER_PID=""
trap 'kill "$SERVER_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

# LOG is the log of the pmsd under test; fail prints it.
LOG=/dev/null
fail() { echo "FAIL: $*" >&2; cat "$LOG" >&2; exit 1; }

# start_pmsd LOG ARGS... launches pmsd on a random local port with ARGS,
# logging to $WORKDIR/LOG, waits for its listen line and sets SERVER_PID,
# ADDR and BASE.
start_pmsd() {
    LOG="$WORKDIR/$1"
    shift
    "$WORKDIR/pmsd" -addr 127.0.0.1:0 "$@" >"$LOG" 2>&1 &
    SERVER_PID=$!
    ADDR=""
    for _ in $(seq 1 100); do
        ADDR="$(sed -n 's/.*pmsd listening on \([0-9.:]*\).*/\1/p' "$LOG")"
        [ -n "$ADDR" ] && break
        sleep 0.05
    done
    [ -n "$ADDR" ] || fail "pmsd $* never reported its listen address"
    BASE="http://$ADDR"
}

# counter NAME prints the value of the unlabeled /metrics series NAME
# read from stdin, or nothing when the series is absent.
counter() { sed -n "s/^$1 \([0-9]*\)$/\1/p"; }

# no_tmp DIR WHAT fails when a *.tmp file remains in DIR after WHAT
# wrote there: every pmsd writer renames its temp file into place or
# removes it.
no_tmp() {
    local left
    left=$(find "$1" -maxdepth 1 -name '*.tmp')
    [ -z "$left" ] || fail "$2 left temp files behind: $left"
}

# labeled NAME LABEL VALUE prints the value of the /metrics series
# NAME{LABEL="VALUE"} read from stdin, or nothing when it is absent.
labeled() { sed -n "s/^$1{$2=\"$3\"} \([0-9]*\)$/\1/p"; }

echo "== building pmsd"
go build -o "$WORKDIR/pmsd" ./cmd/pmsd

start_pmsd pmsd.log -workers 1 -max-inflight 4 -max-batch 64 -worker-delay 100ms
echo "== pmsd on $BASE"

MAPPING='{"alg":"color","levels":16,"m":3}'

echo "== request mix"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")
[ "$code" = 200 ] || fail "healthz returned $code"

body=$(curl -s -X POST "$BASE/v1/color" -d '{"mapping":'"$MAPPING"',"node":{"index":5,"level":3}}')
echo "$body" | grep -q '"colors":\[' || fail "singleton color reply malformed: $body"

body=$(curl -s -X POST "$BASE/v1/color" \
    -d '{"mapping":'"$MAPPING"',"nodes":[{"index":0,"level":0},{"index":7,"level":9}]}')
echo "$body" | grep -q '"colors":\[' || fail "batched color reply malformed: $body"

body=$(curl -s -X POST "$BASE/v1/template-cost" \
    -d '{"mapping":'"$MAPPING"',"kind":"P","size":6,"anchor":{"index":100,"level":9}}')
echo "$body" | grep -q '"conflicts":' || fail "template-cost reply malformed: $body"

body=$(curl -s -X POST "$BASE/v1/simulate" \
    -d '{"mapping":'"$MAPPING"',"batches":[[0,1,2,3],[7,7,7]]}')
echo "$body" | grep -q '"cycles":' || fail "simulate reply malformed: $body"

# The workload endpoints run before the /metrics scrape below, so the
# bound monitor's zero-violation check covers their P- and C-template
# charges too. Each carries an X-Tenant identity for the tenant series.
body=$(curl -s -X POST "$BASE/v1/heap/run" -H 'X-Tenant: smoke-a' \
    -d '{"mapping":'"$MAPPING"',"ops":[{"op":"insert","key":9},{"op":"insert","key":3},{"op":"delete-min"}]}')
echo "$body" | grep -q '"final_len":1' || fail "heap run reply malformed: $body"

body=$(curl -s -X POST "$BASE/v1/heap/workload" -H 'X-Tenant: smoke-a' \
    -d '{"mapping":'"$MAPPING"',"n":64,"dist":"zipf","seed":7}')
echo "$body" | grep -q '"total_cycles":' || fail "heap workload reply malformed: $body"

body=$(curl -s -X POST "$BASE/v1/range" -H 'X-Tenant: smoke-b' \
    -d '{"mapping":'"$MAPPING"',"ranges":[[5,60],[100,140]]}')
echo "$body" | grep -q '"total_items":97' || fail "range reply malformed: $body"

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/range" \
    -d '{"mapping":'"$MAPPING"',"ranges":[[60,5]]}')
[ "$code" = 400 ] || fail "inverted range returned $code, want 400"

code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/color" -d 'not json')
[ "$code" = 400 ] || fail "malformed body returned $code, want 400"

echo "== endpoint counters"
# Each route of the mix above must land on its own endpoint series: the
# real binary's route-to-name wiring, which in-process tests cannot see.
MIX=$(curl -s "$BASE/metrics")
for want in color=3 template_cost=1 simulate=1 heap_run=1 heap_workload=1 range_query=2; do
    got=$(echo "$MIX" | labeled pmsd_endpoint_requests_total endpoint "${want%=*}")
    [ "$got" = "${want#*=}" ] ||
        fail "pmsd_endpoint_requests_total{endpoint=\"${want%=*}\"} is '$got', want ${want#*=}"
done
for want in color=1 template_cost=0 simulate=0 heap_run=0 heap_workload=0 range_query=1; do
    got=$(echo "$MIX" | labeled pmsd_endpoint_errors_4xx_total endpoint "${want%=*}")
    [ "$got" = "${want#*=}" ] ||
        fail "pmsd_endpoint_errors_4xx_total{endpoint=\"${want%=*}\"} is '$got', want ${want#*=}"
done

echo "== tall heap"
# A heap request costs memory in proportion to its ops, at any height
# the validator accepts: on a 40-level tree (2^40-1 slots) one request
# must answer and leave the same pmsd healthy. It runs after the
# endpoint counter check so that check's counts stay as they are.
TALL='{"alg":"mod","levels":40,"modules":7}'
reply=$(curl -s -w '\n%{http_code}' -X POST "$BASE/v1/heap/run" \
    -d '{"mapping":'"$TALL"',"ops":[{"op":"insert","key":9},{"op":"insert","key":3},{"op":"delete-min"}]}' || true)
code=${reply##*$'\n'}
[ "$code" = 200 ] || fail "40-level heap run returned '$code', want 200: ${reply%$'\n'*}"
echo "$reply" | grep -q '"final_len":' || fail "40-level heap run reply malformed: $reply"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz" || true)
[ "$code" = 200 ] || fail "healthz after the 40-level heap run returned '$code', want 200"

echo "== coalescing burst"
# 8 concurrent singletons against one spec. The one worker sleeps 100ms
# per batch, so lookups that arrive while it is busy join the queued
# group for their spec: the burst must flush fewer batches than it had
# lookups served (past -max-inflight 4 the rest are shed with 429).
BEFORE=$(curl -s "$BASE/metrics")
pids=()
for i in $(seq 0 7); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST "$BASE/v1/color" \
        -d '{"mapping":'"$MAPPING"',"node":{"index":'"$i"',"level":5}}' >"$WORKDIR/coal.$i" &
    pids+=($!)
done
wait "${pids[@]}"
AFTER=$(curl -s "$BASE/metrics")
served=$(cat "$WORKDIR"/coal.* | grep -c '^200$' || true)
flushed=$(( $(echo "$AFTER" | counter pmsd_batches_flushed_total) - $(echo "$BEFORE" | counter pmsd_batches_flushed_total) ))
coalesced=$(( $(echo "$AFTER" | counter pmsd_coalesced_jobs_total) - $(echo "$BEFORE" | counter pmsd_coalesced_jobs_total) ))
[ "$flushed" -lt 8 ] && [ "$flushed" -lt "$served" ] ||
    fail "8 concurrent lookups ($served served) flushed $flushed batches, want fewer than both: $AFTER"
[ "$coalesced" -gt 0 ] || fail "the burst coalesced no jobs: $AFTER"
echo "   served=$served batches_flushed=+$flushed coalesced_jobs=+$coalesced"

echo "== prometheus exposition"
# The request mix above exercised every accounted path: /metrics must
# render the domain gauges and the bound monitor must report zero
# violations of the paper's theorems.
METRICS=$(curl -s "$BASE/metrics")
echo "$METRICS" | grep -q '^pmsd_module_load_ratio ' || fail "no pmsd_module_load_ratio in /metrics: $METRICS"
echo "$METRICS" | grep -q '^pmsd_bound_violations_total 0$' || fail "bound monitor not at zero violations: $METRICS"
echo "$METRICS" | grep -q '^pmsd_module_accesses_total{module=' || fail "no per-module series in /metrics: $METRICS"
checks=$(echo "$METRICS" | sed -n 's/^pmsd_bound_checks_total \([0-9]*\)$/\1/p')
echo "   bound_checks=$checks violations=0"
# Every flush above went through a COLOR retriever, which carries a
# batch kernel: the fast path must actually have been taken.
kernel=$(echo "$METRICS" | sed -n 's/^pmsd_kernel_batches_total \([0-9]*\)$/\1/p')
[ "${kernel:-0}" -gt 0 ] || fail "batch kernel never engaged (pmsd_kernel_batches_total=$kernel): $METRICS"
echo "   kernel_batches=$kernel"
# The identified workload requests above must appear in the per-tenant
# admission series.
echo "$METRICS" | grep -q '^pmsd_tenant_requests_total{tenant="smoke-a"} 2$' || fail "no smoke-a tenant series in /metrics: $METRICS"
echo "$METRICS" | grep -q '^pmsd_tenant_requests_total{tenant="smoke-b"} 1$' || fail "no smoke-b tenant series in /metrics: $METRICS"
echo "   tenant series: smoke-a=2 smoke-b=1"

echo "== pmsstat"
# The monitor must parse the live exposition and render a clean frame.
go build -o "$WORKDIR/pmsstat" ./cmd/pmsstat
"$WORKDIR/pmsstat" -addr "$ADDR" -once >"$WORKDIR/pmsstat.out"
grep -q 'bound monitor' "$WORKDIR/pmsstat.out" || fail "pmsstat frame missing bound monitor: $(cat "$WORKDIR/pmsstat.out")"
grep -q '\[ok\]' "$WORKDIR/pmsstat.out" || fail "pmsstat bound monitor not ok: $(cat "$WORKDIR/pmsstat.out")"
grep -q 'module heatmap' "$WORKDIR/pmsstat.out" || fail "pmsstat frame missing heatmap: $(cat "$WORKDIR/pmsstat.out")"

echo "== request traces"
# The coalescing burst above ran fully traced (default sample rate 1):
# /debug/requests must hold per-stage histograms and slowest traces.
TRACES=$(curl -s "$BASE/debug/requests")
echo "$TRACES" | grep -q '"coalesce_wait"' || fail "no coalesce_wait stage in /debug/requests: $TRACES"
echo "$TRACES" | grep -q '"request_id":' || fail "no slowest traces retained: $TRACES"

echo "== flight recorder snapshot"
# The always-on recorder captured every request above: GET /debug/snapshot
# must serve a decodable PMSINC1 incident, and pmsdoctor must render a
# report from it. The flight counters also show up on /metrics.
go build -o "$WORKDIR/pmsdoctor" ./cmd/pmsdoctor
mkdir -p "$WORKDIR/manual-inc"
curl -s "$BASE/debug/snapshot" -o "$WORKDIR/manual-inc/incident-manual.pmsinc"
[ -s "$WORKDIR/manual-inc/incident-manual.pmsinc" ] || fail "/debug/snapshot served an empty incident"
"$WORKDIR/pmsdoctor" -once -dir "$WORKDIR/manual-inc" >"$WORKDIR/doctor-manual.out" \
    || fail "pmsdoctor rejected the manual snapshot: $(cat "$WORKDIR/doctor-manual.out")"
grep -q 'reason=manual' "$WORKDIR/doctor-manual.out" || fail "pmsdoctor report missing the manual reason: $(cat "$WORKDIR/doctor-manual.out")"
# A here-string, not a pipe: grep -q exits at its first match, and under
# pipefail the curl still writing the rest of /metrics would fail the line.
grep -q '^pmsd_flightrec_events_total [1-9]' <<<"$(curl -s "$BASE/metrics")" || fail "flight recorder captured no events"
echo "   manual snapshot decoded by pmsdoctor"

echo "== backpressure burst"
# 12 concurrent requests against max-inflight 4: the overflow must get
# 429 while the admitted requests still finish with 200.
pids=()
for i in $(seq 1 12); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST "$BASE/v1/simulate" \
        -d '{"mapping":'"$MAPPING"',"batches":[[0,1,2]]}' >"$WORKDIR/burst.$i" &
    pids+=($!)
done
wait "${pids[@]}"
oks=$(cat "$WORKDIR"/burst.* | grep -c '^200$' || true)
rejects=$(cat "$WORKDIR"/burst.* | grep -c '^429$' || true)
echo "   200s=$oks 429s=$rejects"
[ "$rejects" -gt 0 ] || fail "saturating burst produced no 429s"
[ "$oks" -gt 0 ] || fail "saturating burst starved every request"
rejected=$(curl -s "$BASE/metrics" | counter pmsd_rejected_429_total)
[ -n "$rejected" ] && [ "$rejected" -ge "$rejects" ] ||
    fail "pmsd_rejected_429_total=${rejected:-absent}, want at least the burst's $rejects 429s"
echo "   pmsd_rejected_429_total=$rejected"

echo "== graceful shutdown"
kill -TERM "$SERVER_PID"
if ! wait "$SERVER_PID"; then
    fail "pmsd exited non-zero on SIGTERM"
fi
grep -q "pmsd stopped" "$WORKDIR/pmsd.log" || fail "no graceful-stop log line"

echo "== trace record/replay"
# -record tapes every /v1 POST at the capture point and writes the
# PMSTRC1 file on SIGTERM; two -replay runs of that file must print the
# same digest with the bound monitor at zero.
TRACEFILE="$WORKDIR/run.pmstrc"
start_pmsd pmsd-record.log -record "$TRACEFILE" -seed 5
for i in $(seq 0 3); do
    curl -s -o /dev/null -H 'X-Tenant: smoke-rec' -X POST "$BASE/v1/color" \
        -d '{"mapping":'"$MAPPING"',"node":{"index":'"$i"',"level":4}}'
    curl -s -o /dev/null -X POST "$BASE/v1/template-cost" \
        -d '{"mapping":'"$MAPPING"',"kind":"S","size":7,"anchor":{"index":'"$i"',"level":3}}'
    curl -s -o /dev/null -H 'X-Tenant: smoke-rec' -X POST "$BASE/v1/range" \
        -d '{"mapping":'"$MAPPING"',"ranges":[['"$i"',40]]}'
done
grep -q '^pmsd_bound_violations_total 0$' <<<"$(curl -s "$BASE/metrics")" || fail "bound monitor not at zero while recording"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "recording pmsd exited non-zero on SIGTERM"
grep -q 'recorded=12 dropped=0' "$WORKDIR/pmsd-record.log" || fail "tape did not hold the 12 POSTs"
no_tmp "$WORKDIR" "the -record save"
for run in 1 2; do
    "$WORKDIR/pmsd" -replay "$TRACEFILE" >"$WORKDIR/replay$run.out" 2>&1 \
        || fail "pmsd -replay run $run failed: $(cat "$WORKDIR/replay$run.out")"
    grep -q '^replayed 12 requests' "$WORKDIR/replay$run.out" || fail "replay run $run did not re-drive 12 requests: $(cat "$WORKDIR/replay$run.out")"
    grep -q 'violations 0$' "$WORKDIR/replay$run.out" || fail "replay run $run saw bound violations: $(cat "$WORKDIR/replay$run.out")"
done
digest1=$(sed -n 's/^digest: //p' "$WORKDIR/replay1.out")
digest2=$(sed -n 's/^digest: //p' "$WORKDIR/replay2.out")
[ -n "$digest1" ] && [ "$digest1" = "$digest2" ] || fail "replay digests differ: '$digest1' vs '$digest2'"
echo "   12 requests taped, replayed twice: digest ${digest1:0:16}… violations=0"

echo "== tiered store: cold run"
# A fresh pmsd with a disk tier: serve one table-backed spec, then drain.
# The graceful shutdown must flush the resident memory tier into the
# store so the next process can warm-start from it.
STOREDIR="$WORKDIR/store"
start_pmsd pmsd-store1.log -store-dir "$STOREDIR"
body=$(curl -s -X POST "$BASE/v1/color" -d '{"mapping":'"$MAPPING"',"node":{"index":5,"level":3}}')
echo "$body" | grep -q '"colors":\[' || fail "store-backed color reply malformed: $body"
grep -q '^pmsd_bound_violations_total 0$' <<<"$(curl -s "$BASE/metrics")" || fail "bound monitor not at zero on the cold run"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "store-backed pmsd exited non-zero on SIGTERM"
[ -f "$STOREDIR/MANIFEST" ] || fail "store drain left no manifest in $STOREDIR"
ls "$STOREDIR"/*.pme >/dev/null 2>&1 || fail "store drain left no entries in $STOREDIR"
no_tmp "$STOREDIR" "the store drain"

echo "== tiered store: warm restart"
# Relaunch over the same directory: the hot spec must be pre-admitted
# from the manifest and served without a single rematerialization.
start_pmsd pmsd-store2.log -store-dir "$STOREDIR" -store-warm 16
grep -q "warm start" "$WORKDIR/pmsd-store2.log" || fail "no warm-start log line"
body=$(curl -s -X POST "$BASE/v1/color" -d '{"mapping":'"$MAPPING"',"node":{"index":5,"level":3}}')
echo "$body" | grep -q '"colors":\[' || fail "warm color reply malformed: $body"
body=$(curl -s -X POST "$BASE/v1/template-cost" \
    -d '{"mapping":'"$MAPPING"',"kind":"P","size":6,"anchor":{"index":100,"level":9}}')
echo "$body" | grep -q '"conflicts":' || fail "warm template-cost reply malformed: $body"
METRICS=$(curl -s "$BASE/metrics")
mat=$(counter pmsd_registry_acquire_materializes_total <<<"$METRICS")
[ "$mat" = 0 ] || fail "warm restart paid ${mat:-absent} rematerializations: $METRICS"
hits=$(counter pmsd_registry_acquire_hits_total <<<"$METRICS")
[ "${hits:-0}" -gt 0 ] || fail "warm restart served no memory hits: $METRICS"
echo "$METRICS" | grep -q '^pmsd_store_entries ' || fail "no pmsd_store_* series in /metrics: $METRICS"
echo "$METRICS" | grep -q '^pmsd_store_corrupt_total 0$' || fail "store reports corrupt entries: $METRICS"
echo "$METRICS" | grep -q '^pmsd_bound_violations_total 0$' || fail "bound monitor not at zero violations after warm restart: $METRICS"
echo "   warm restart: materializes=0 acquire_hits=$hits"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "warm pmsd exited non-zero on SIGTERM"
no_tmp "$STOREDIR" "the warm store drain"

echo "== adaptive controller: migration under S-heavy traffic"
# A controller-enabled pmsd over a fresh store directory. The requested
# mapping is levelcyclic over the m=4 canonical module count (15), which
# pays 3 conflicts per 7-node subtree; under S-heavy traffic the
# controller must shadow-score COLOR m=4 (conflict-free, Theorem 3) and
# migrate the entry within a few policy ticks, with the bound monitor
# staying at zero across the switch.
CTRLSTORE="$WORKDIR/ctrl-store"
CTRLSPEC='{"alg":"levelcyclic","levels":12,"modules":15}'
SUBTREE='{"mapping":'"$CTRLSPEC"',"kind":"S","size":7,"anchor":{"index":3,"level":3}}'
start_pmsd pmsd-ctrl1.log -store-dir "$CTRLSTORE" \
    -controller -controller-interval 100ms -shadow-sample 1
for i in $(seq 0 23); do
    body=$(curl -s -X POST "$BASE/v1/template-cost" \
        -d '{"mapping":'"$CTRLSPEC"',"kind":"S","size":7,"anchor":{"index":'"$((i % 8))"',"level":3}}')
    echo "$body" | grep -q '"conflicts":' || fail "controller subtree reply malformed: $body"
done
migrated=""
for _ in $(seq 1 100); do
    METRICS=$(curl -s "$BASE/metrics")
    if echo "$METRICS" | grep -q '^pmsd_controller_migrations_total [1-9]'; then
        migrated=1
        break
    fi
    # Keep the entry's observation window warm so an idle tick cannot
    # stall the probe.
    curl -s -o /dev/null -X POST "$BASE/v1/template-cost" -d "$SUBTREE"
    sleep 0.1
done
[ -n "$migrated" ] || fail "controller never migrated: $(echo "$METRICS" | grep ^pmsd_controller)"
echo "$METRICS" | grep -q '^pmsd_bound_violations_total 0$' || fail "bound monitor tripped across the migration: $METRICS"
# The migrated entry redirects on the wire: requests for the levelcyclic
# spec answer with the effective COLOR mapping in the response header.
hdr=$(curl -s -D - -o /dev/null -X POST "$BASE/v1/template-cost" -d "$SUBTREE" \
    | tr -d '\r' | sed -n 's/^X-Effective-Mapping: //p')
[ "$hdr" = "color/H=12/m=4" ] || fail "effective-mapping header '$hdr', want color/H=12/m=4"
echo "   migrated: effective=$hdr violations=0"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "controller pmsd exited non-zero on SIGTERM"

echo "== adaptive controller: decision survives warm restart"
# Relaunch over the same store directory: the persisted decision must
# re-apply the override and serve the flushed COLOR artifact from disk
# without a single rematerialization.
start_pmsd pmsd-ctrl2.log -store-dir "$CTRLSTORE" -store-warm 16
hdr=$(curl -s -D - -o /dev/null -X POST "$BASE/v1/template-cost" -d "$SUBTREE" \
    | tr -d '\r' | sed -n 's/^X-Effective-Mapping: //p')
[ "$hdr" = "color/H=12/m=4" ] || fail "restart lost the migration (header '$hdr')"
METRICS=$(curl -s "$BASE/metrics")
mat=$(counter pmsd_registry_acquire_materializes_total <<<"$METRICS")
[ "$mat" = 0 ] || fail "restart paid ${mat:-absent} rematerializations for the migrated mapping: $METRICS"
echo "$METRICS" | grep -q '^pmsd_bound_violations_total 0$' || fail "bound monitor not at zero after controller warm restart: $METRICS"
echo "   warm restart: effective=$hdr materializes=0"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "restarted controller pmsd exited non-zero on SIGTERM"

echo "== forensics: forced SLO breach and incident round-trip"
# A chaos-mode pmsd with a deliberately tight error-rate SLO. A short
# sequential 5xx storm must trip the watchdog, which freezes the rings
# into a PMSINC1 incident on disk; pmsdoctor then analyzes it and
# -replay re-drives the bundled window under the recorded chaos schedule
# to confirm the breach reproduces deterministically.
INCDIR="$WORKDIR/incidents"
start_pmsd pmsd-forensics.log -chaos -chaos-seed 7 -chaos-error 0.9 -chaos-burst 4 \
    -chaos-latency 0 -flightrec-dir "$INCDIR" -slo-error-rate 5 -slo-interval 200ms \
    -max-batch 1
# Strictly sequential traffic, so the recorded window replays against
# the rebuilt chaos schedule index-for-index.
for i in $(seq 0 39); do
    curl -s -o /dev/null -H 'X-Tenant: smoke-chaos' -X POST "$BASE/v1/color" \
        -d '{"mapping":'"$MAPPING"',"node":{"index":'"$((i % 8))"',"level":3}}'
done
inc=""
for _ in $(seq 1 50); do
    inc=$(ls "$INCDIR"/*.pmsinc 2>/dev/null | head -1 || true)
    [ -n "$inc" ] && break
    sleep 0.1
done
[ -n "$inc" ] || fail "watchdog never wrote an incident"
METRICS=$(curl -s "$BASE/metrics")
echo "$METRICS" | grep -q '^pmsd_slo_breaches_total [1-9]' || fail "no SLO breach counted: $METRICS"
echo "$METRICS" | grep -q '^pmsd_bound_violations_total 0$' || fail "bound monitor tripped under chaos: $METRICS"
"$WORKDIR/pmsstat" -addr "$ADDR" -once >"$WORKDIR/pmsstat-slo.out"
grep -q 'slo watchdog' "$WORKDIR/pmsstat-slo.out" || fail "pmsstat frame missing the SLO watchdog line: $(cat "$WORKDIR/pmsstat-slo.out")"
grep -q 'rule error_rate' "$WORKDIR/pmsstat-slo.out" || fail "pmsstat frame missing the breached rule: $(cat "$WORKDIR/pmsstat-slo.out")"
kill -TERM "$SERVER_PID"
wait "$SERVER_PID" || fail "forensics pmsd exited non-zero on SIGTERM"
no_tmp "$INCDIR" "the watchdog's incident write"
"$WORKDIR/pmsdoctor" -once -dir "$INCDIR" >"$WORKDIR/doctor-breach.out" \
    || fail "pmsdoctor rejected the watchdog incident: $(cat "$WORKDIR/doctor-breach.out")"
grep -q 'error_rate' "$WORKDIR/doctor-breach.out" || fail "pmsdoctor report missing the error_rate breach: $(cat "$WORKDIR/doctor-breach.out")"
"$WORKDIR/pmsdoctor" -replay -once -dir "$INCDIR" >"$WORKDIR/doctor-replay.out" \
    || fail "incident did not reproduce under -replay: $(cat "$WORKDIR/doctor-replay.out")"
grep -q 'reproduced: true' "$WORKDIR/doctor-replay.out" || fail "replay verdict not reproduced: $(cat "$WORKDIR/doctor-replay.out")"
echo "   breach captured, analyzed, and reproduced deterministically"

echo "server-smoke: OK"
