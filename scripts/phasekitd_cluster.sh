#!/usr/bin/env bash
# phasekitd cluster check: golden equivalence across membership churn,
# including an unannounced crash.
#
# Three nodes share one checkpoint store and one WAL root, and renew
# lease records in that store on a compressed failure-detection ladder.
# A workload is ingested through node 1 with a redirect-following
# client, so every stream lands on its ring owner. Mid-run, node 2 is
# kill -9'd with NO operator command and NO checkpoint barrier —
# batches it ACKed after its last checkpoint exist only in its
# write-ahead log. The survivors must see its lease stand still, bump
# the epoch, adopt node 2's streams from its checkpoints, and replay its
# WAL tail on top. Later node 3 drains gracefully (its lease stops with
# it) and the lone survivor auto-evicts it the same way. The deduplicated union of
# the per-node phase logs (WAL replay re-closes intervals the dead node
# already logged, as exact duplicates) must be line-identical to a
# single-process golden run — growth, redirects, handoffs,
# crash-failover, and epoch bumps may not perturb classification by a
# single interval, and no ACKed event may be lost.
set -euo pipefail

WORKLOAD=${WORKLOAD:-gzip/g}
STREAMS=${STREAMS:-6}
INTERVAL=${INTERVAL:-1000000}
SCALE=${SCALE:-0.2}
CUT1=${CUT1:-75}  # batch index where segment 1 stops (n2 dies here)
CUT2=${CUT2:-150} # batch index where segment 2 stops (n3 drains here)
HOST=127.0.0.1
PORTS=(9127 9131 9135)  # ingest ports, node 1..3
ADMINS=(9227 9231 9235) # health/admin ports, node 1..3

workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in ${pids[@]+"${pids[@]}"}; do
    [ -n "$p" ] && kill "$p" 2>/dev/null || true
  done
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/phasekitd" ./cmd/phasekitd
go build -o "$workdir/phasekitctl" ./cmd/phasekitctl
go build -o "$workdir/phasesim" ./cmd/phasesim

sim_args=(-workload "$WORKLOAD" -streams "$STREAMS" -interval "$INTERVAL" -scale "$SCALE")
ctl() { "$workdir/phasekitctl" -admin "$HOST:${ADMINS[0]}" "$@"; }
ctl_node() { local i=$1; shift; "$workdir/phasekitctl" -admin "$HOST:${ADMINS[$i]}" "$@"; }
members() { # ring membership count (the Nodes array only — Peers may
  # still list a dead node until the detector prunes it)
  ctl status | sed -n 's/.*"Nodes":\[\([^]]*\)\].*/\1/p' |
    grep -o '"ID":"n[0-9]"' | sort -u | wc -l
}

echo "==> golden in-process run"
"$workdir/phasesim" "${sim_args[@]}" -parallel -adaptive=false \
  -phases "$workdir/golden.log" >/dev/null

start_node() { # start_node <idx> [-peers ...]
  local i=$1; shift
  "$workdir/phasekitd" -addr "$HOST:${PORTS[$i]}" -health "$HOST:${ADMINS[$i]}" \
    -node-id "n$((i + 1))" -node-addr "$HOST:${PORTS[$i]}" \
    -interval "$INTERVAL" -store "$workdir/state" \
    -wal-dir "$workdir/wal" -wal-sync group \
    -heartbeat-interval 200ms -suspect-after 600ms -dead-after 1200ms \
    -phases "$workdir/node$((i + 1)).log" "$@" &
  pids[$i]=$!
  for _ in $(seq 100); do
    (exec 3<>"/dev/tcp/$HOST/${PORTS[$i]}") 2>/dev/null && return
    sleep 0.1
  done
  echo "node $((i + 1)) did not come up on $HOST:${PORTS[$i]}" >&2
  exit 1
}

drain_node() { # drain_node <idx>: graceful SIGTERM drain
  kill -TERM "${pids[$1]}"
  wait "${pids[$1]}" || { echo "node $(($1 + 1)) drain exited non-zero" >&2; exit 1; }
  pids[$1]=
}

crash_node() { # crash_node <idx>: kill -9, no warning, no checkpoint
  kill -9 "${pids[$1]}"
  wait "${pids[$1]}" 2>/dev/null || true
  pids[$1]=
}

wait_epoch() { # wait_epoch <want>: poll n1's status until the epoch lands
  local want=$1 epoch=0
  for _ in $(seq 150); do
    epoch=$(ctl status | grep -o '"Epoch":[0-9]*' | head -1 | cut -d: -f2)
    [ "$epoch" = "$want" ] && return
    sleep 0.2
  done
  echo "FAIL: epoch $epoch after waiting, want $want" >&2
  exit 1
}

echo "==> boot a 3-node cluster (n2, n3 join through n1)"
mkdir "$workdir/state"
start_node 0
start_node 1 -peers "$HOST:${PORTS[0]}"
start_node 2 -peers "$HOST:${PORTS[0]}"
ctl status
[ "$(members)" = 3 ] || { echo "FAIL: expected 3 members, saw $(members)" >&2; exit 1; }

echo "==> segment 1: ingest batches [0, $CUT1) through n1 (redirects fan streams out)"
"$workdir/phasesim" -connect "$HOST:${PORTS[0]}" "${sim_args[@]}" -max-batches "$CUT1"

echo "==> kill -9 n2 mid-interval — no leave, no checkpoint barrier; its ACKed tail lives only in the WAL"
crash_node 1

echo "==> survivors must see n2's lease stand still and take over on their own (epoch 3 -> 4)"
wait_epoch 4
[ "$(members)" = 2 ] || { echo "FAIL: expected 2 members after crash-failover, saw $(members)" >&2; exit 1; }

echo "==> segment 2: ingest batches [$CUT1, $CUT2); n2's streams resume on the survivors"
# -clusterz prefetches each stream's owner from the admin endpoint, so
# the resumed client dials owners directly instead of rediscovering
# them through one REDIRECT hop per stream.
"$workdir/phasesim" -connect "$HOST:${PORTS[0]}" -clusterz "$HOST:${ADMINS[0]}" \
  "${sim_args[@]}" -from-batch "$CUT1" -max-batches "$((CUT2 - CUT1))"

echo "==> drain n3 gracefully; the lone survivor auto-evicts it (epoch 4 -> 5)"
drain_node 2
wait_epoch 5

echo "==> force a rebalance (epoch bump, fences any stale writer)"
ctl rebalance
wait_epoch 6

echo "==> segment 3: ingest batches [$CUT2, end] through the last node standing"
"$workdir/phasesim" -connect "$HOST:${PORTS[0]}" -clusterz "$HOST:${ADMINS[0]}" \
  "${sim_args[@]}" -from-batch "$CUT2"

echo "==> drain the survivor"
epoch=$(ctl status | grep -o '"Epoch":[0-9]*' | head -1 | cut -d: -f2)
drain_node 0

# start(1) + join n2 + join n3 + crash-failover n2 + auto-evict n3 + rebalance = epoch 6
[ "$epoch" = 6 ] || { echo "FAIL: final epoch $epoch, want 6" >&2; exit 1; }

echo "==> diff the deduplicated union of per-node phase logs against the golden run"
# WAL replay re-closes every interval the dead node completed after its
# last checkpoint, so those lines appear in both n2's log and its
# adopter's — as byte-identical duplicates. uniq collapses only exact
# duplicates: a replay that diverged by even one phase ID survives the
# dedup and fails the diff.
sort -k1,1 -k2,2n "$workdir/golden.log" >"$workdir/golden.sorted"
cat "$workdir"/node*.log | sort -k1,1 -k2,2n | uniq >"$workdir/cluster.sorted"
if ! diff -u "$workdir/golden.sorted" "$workdir/cluster.sorted"; then
  echo "FAIL: phase sequence diverged across cluster churn" >&2
  exit 1
fi
echo "PASS: $(wc -l <"$workdir/golden.sorted") phase records identical across join/crash-failover/evict/rebalance"
