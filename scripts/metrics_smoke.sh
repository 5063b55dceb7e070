#!/bin/sh
# metrics_smoke.sh boots collectd and a durable 2-shard notaryd with their
# observability debug endpoints, scrapes each endpoint with obsget -check,
# and fails unless the payload is well-formed snapshot JSON. For notaryd it
# then walks the one serving path end to end: SIGINT must shut it down
# cleanly, `tangled fsck` must pass and report both shards, and a reboot at
# the default width must refuse the wider data directory. It is the
# `make metrics-smoke` verify stage: proof that the debug surface actually
# serves what the README documents.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
pid=""
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT INT TERM

# debug_addr NAME LOG PID prints the address from NAME's "debug listening
# on <addr>" log line once it appears, and fails if the daemon exits first.
debug_addr() {
    for _ in $(seq 1 100); do
        addr=$(sed -n "s/^$1: debug listening on //p" "$2")
        if [ -n "$addr" ]; then
            echo "$addr"
            return 0
        fi
        kill -0 "$3" 2>/dev/null || break
        sleep 0.1
    done
    echo "metrics-smoke: $1 never announced its debug listener" >&2
    cat "$2" >&2
    return 1
}

# scrape NAME ADDR checks ADDR's snapshot and shows its head.
scrape() {
    echo "==> scraping $1 at http://$2/debug/vars"
    "$workdir/obsget" -check "http://$2/debug/vars" >"$workdir/$1.json"
    head -c 400 "$workdir/$1.json"; echo
}

echo "==> building collectd, notaryd, tangled and obsget"
for cmd in collectd notaryd tangled obsget; do
    go build -o "$workdir/$cmd" "./cmd/$cmd"
done

echo "==> booting collectd with a debug listener"
"$workdir/collectd" -addr 127.0.0.1:0 -debug 127.0.0.1:0 >"$workdir/collectd.log" 2>&1 &
pid=$!
scrape collectd "$(debug_addr collectd "$workdir/collectd.log" "$pid")"
kill "$pid"

echo "==> booting a durable 2-shard notaryd with a debug listener"
"$workdir/notaryd" -addr 127.0.0.1:0 -data "$workdir/notary" -shards 2 -prefeed 200 \
    -debug 127.0.0.1:0 >"$workdir/notaryd.log" 2>&1 &
pid=$!
scrape notaryd "$(debug_addr notaryd "$workdir/notaryd.log" "$pid")"

echo "==> SIGINT: notaryd drains, checkpoints and exits 0"
kill -INT "$pid"
if ! wait "$pid"; then
    echo "metrics-smoke: notaryd did not exit cleanly on SIGINT" >&2
    cat "$workdir/notaryd.log" >&2
    exit 1
fi
pid=""

echo "==> tangled fsck over the 2-shard data directory"
"$workdir/tangled" fsck "$workdir/notary" | tee "$workdir/fsck.txt"
if [ "$(grep -c '^fsck .*/shard-00[01]$' "$workdir/fsck.txt")" -ne 2 ]; then
    echo "metrics-smoke: fsck did not report both shards" >&2
    exit 1
fi

echo "==> a reboot at the default width must refuse the 2-shard directory"
status=0
timeout 60 "$workdir/notaryd" -addr 127.0.0.1:0 -data "$workdir/notary" -prefeed 0 \
    >"$workdir/reboot.log" 2>&1 || status=$?
cat "$workdir/reboot.log"
if [ "$status" -eq 0 ] || [ "$status" -eq 124 ] || ! grep -q 'holds 2 shards' "$workdir/reboot.log"; then
    echo "metrics-smoke: notaryd at 1 shard did not refuse a 2-shard data directory (exit $status)" >&2
    exit 1
fi

echo "metrics-smoke: debug endpoints serve well-formed snapshot JSON; notaryd shuts down, checks and refuses as documented"
