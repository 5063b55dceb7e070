#!/bin/sh
# dataset_smoke.sh exercises the dataset interchange path end to end:
# export a small fleet as the JSONL v1 format, convert it to the columnar
# v2 format, integrity-check both directories with `tangled dataset
# verify`, and prove the verifier actually rejects damage: a truncated
# columnar file, and JSONL records on an Android version with no AOSP
# store or with a negative session count. It is the `make dataset-smoke`
# verify stage: proof
# that the CLI surface and the checksummed format agree with what the
# README documents.
set -eu

cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT INT TERM

echo "==> building tangled"
go build -o "$workdir/tangled" ./cmd/tangled

echo "==> fleet export (jsonl)"
"$workdir/tangled" fleet -scale 0.05 -export "$workdir/jsonl" >/dev/null

echo "==> dataset convert jsonl -> columnar"
"$workdir/tangled" dataset convert -format columnar "$workdir/jsonl" "$workdir/col"

echo "==> dataset verify (both formats)"
"$workdir/tangled" dataset verify "$workdir/jsonl"
"$workdir/tangled" dataset verify "$workdir/col"

echo "==> dataset verify rejects a truncated columnar file"
mkdir "$workdir/corrupt"
col="$workdir/col/handsets.col"
half=$(($(wc -c <"$col") / 2))
head -c "$half" "$col" >"$workdir/corrupt/handsets.col"
if "$workdir/tangled" dataset verify "$workdir/corrupt" >/dev/null 2>&1; then
	echo "dataset-smoke: verifier accepted a truncated file" >&2
	exit 1
fi

echo "==> dataset verify rejects JSONL handsets no fleet can hold"
for edit in '1s/"version":"[^"]*"/"version":"9.4"/' '2s/"sessions":[0-9]*/"sessions":-1/'; do
	bad="$workdir/bad-jsonl"
	rm -rf "$bad"
	mkdir "$bad"
	cp "$workdir/jsonl/certs.pem" "$bad/"
	sed "$edit" "$workdir/jsonl/handsets.jsonl" >"$bad/handsets.jsonl"
	if "$workdir/tangled" dataset verify "$bad" >/dev/null 2>&1; then
		echo "dataset-smoke: verifier accepted handsets.jsonl edited by $edit" >&2
		exit 1
	fi
done

echo "dataset-smoke: ok"
