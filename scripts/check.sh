#!/bin/sh
# Pre-PR check: batlint + vet the whole module, run the concurrency-
# sensitive packages under the race detector, smoke the benchmarks, and
# (unless CHECK_FUZZ=0) give both format fuzzers a short pass. Run it from
# the repository root before sending a PR.
#
# Stages keep running after a failure; the script reports a per-stage
# summary at the end and exits non-zero if anything failed.
set -u

cd "$(dirname "$0")/.."

failed=""

# run <name> <cmd...> executes one stage, recording failures instead of
# aborting so one broken stage does not hide the rest.
run() {
	name="$1"
	shift
	echo "== $name"
	if ! "$@"; then
		echo "-- FAILED: $name"
		failed="$failed
  FAIL $name"
	fi
}

# The repo's own static-analysis suite: format endianness, interprocedural
# taint tracking of decoded integers into narrowing conversions,
# build-pipeline determinism, dropped fabric/pfs errors, unpaired obs
# spans, uncancellable bare time.Sleep, dropped contexts before blocking
# calls. Zero unwaived findings is the bar. Built once, the same binary
# serves the standalone gate, the waiver audit, and the go vet unitchecker
# run — vet reuses the export data the standalone load already warmed.
BATLINT_BIN="${TMPDIR:-/tmp}/batlint.$$"
trap 'rm -f "$BATLINT_BIN"' EXIT
run "build batlint" go build -o "$BATLINT_BIN" ./cmd/batlint
run "batlint ./..." "$BATLINT_BIN" ./...
run "batlint -waivers" "$BATLINT_BIN" -waivers ./...
run "batlint vettool" go vet -vettool="$BATLINT_BIN" ./...

run "go vet ./..." go vet ./...

run "go test -race fabric+core" go test -race ./internal/fabric/... ./internal/core/...

# The distributed-planning equivalence property under the race detector:
# DistributedBuild must reproduce the centralized oracle byte-for-byte
# across world sizes, bounds distributions, and sampling knobs, and both
# plan modes must leave identical datasets behind. GOMAXPROCS forced above
# 1 so the per-rank goroutines of the simulated fabric truly interleave.
run "go test -race distributed plan" env GOMAXPROCS=4 go test -race \
	-run 'TestDistributed|TestPlanMode|TestPlanModes|TestPlanDistributed' \
	./internal/aggtree/ ./internal/core/

# The chaos suite injects storage faults into full 16-rank collectives;
# running it under the race detector is the strongest deadlock/race signal
# the repo has, so it gets its own invocation even though the package run
# above already covered it once.
run "go test -race TestChaos" go test -race -run 'TestChaos' ./internal/core/

# The BAT build byte-identity property (serial path vs every worker count)
# under the race detector, with GOMAXPROCS forced above 1 so the fused
# treelet/bitmap workers and the parallel compact stage actually interleave
# even on single-core CI runners.
run "go test -race TestBuildDeterminism" env GOMAXPROCS=4 go test -race -run 'TestBuildDeterminism' ./internal/bat/

# The v3 codec layer under the race detector: the max-error property
# (random per-attribute bounds, lossless bit-exactness, LOD two-grid
# bounds) plus encode determinism across worker counts, with decode
# running fused inside the concurrent query workers.
run "go test -race compression" env GOMAXPROCS=4 go test -race -run 'TestCompressed|TestCompressionInfo|TestGolden' ./internal/bat/

# The concurrent query engine under the race detector: shared-File queries,
# parallel-vs-serial multiset identity, the treelet cache singleflight, the
# batch visitor (including views of treelets evicted mid-batch), the
# per-query allocation guard, the differential engine oracle at File and
# Dataset level, and the batserve overlapping-request tests. GOMAXPROCS
# forced above 1 so the traversal workers genuinely interleave on
# single-core runners.
run "go test -race query engine" env GOMAXPROCS=4 go test -race -run 'TestConcurrent|TestParallel|TestOrdered|TestCache|TestFileCache|TestReadahead|TestCloseWaits|TestFileLevel|TestBatch|TestQueryAllocs|TestEngineOracle' ./internal/bat/ .
run "go test -race batserve" env GOMAXPROCS=4 go test -race ./cmd/batserve/
# The Dataset reader and the collective read served through it: leaf
# singleflight, cache counters beside stalled opens, leaf-naming errors,
# and the collective oracle at 1 and 4 reader ranks.
run "go test -race Dataset" env GOMAXPROCS=4 go test -race -run 'TestDataset|TestCollective' .

# Chaos-latency: the cancellation/deadline suites across every read-path
# layer under combined error+latency injection — cancel storms against the
# traversal engine, singleflight detach, warm queries beside a stalled
# open, stalled-mount 504s, batserve kill/restart cycles. The short -timeout means a wedged goroutine fails
# the stage with a full goroutine dump (go test's panic output; leak
# failures print their own dump via internal/leakcheck) instead of hanging
# the script.
run "go test -race chaos-latency" env GOMAXPROCS=4 go test -race -timeout 120s \
	-run 'TestChaos|TestCancel|TestReadQueryCtx|TestDatasetQueryCtx|TestDatasetCacheStats|TestAdmission' \
	./internal/bat/ ./internal/core/ ./cmd/batserve/ .

# Bench smoke: one iteration of every BAT build benchmark, just to keep the
# benchmark code compiling and runnable (no timing assertions).
run "bench smoke BenchmarkBATBuild" go test -run=NONE -bench=BATBuild -benchtime=1x ./internal/bat/

# Read-path bench smoke: run the query benchmark at a small scale into a
# temp file and require only that a well-formed report is produced — the
# readbench validates its own JSON on the way out. Never gates on speed.
readbench_smoke() {
	out="$(mktemp)" || return 1
	if ! go run ./cmd/batbench -readbench -readbench-out "$out" -read-particles 50000 >/dev/null; then
		rm -f "$out"
		return 1
	fi
	test -s "$out"
	rc=$?
	rm -f "$out"
	return $rc
}
run "bench smoke readbench" readbench_smoke

# Compression bench smoke: small-scale run into a temp file; the bench
# self-validates every decoded value against its declared error bound and
# checks its own JSON on the way out. Never gates on speed.
compressbench_smoke() {
	out="$(mktemp)" || return 1
	if ! go run ./cmd/batbench -compressbench -compressbench-out "$out" -compress-particles 50000 >/dev/null; then
		rm -f "$out"
		return 1
	fi
	test -s "$out"
	rc=$?
	rm -f "$out"
	return $rc
}
run "bench smoke compressbench" compressbench_smoke

# Plan-scaling bench smoke: quick mode runs both planners for real at small
# world sizes and models the extended weak-scaling table; the bench
# validates its own JSON (equivalence booleans, crossover, slope checks) on
# the way out. Never gates on speed.
treebench_smoke() {
	out="$(mktemp)" || return 1
	if ! go run ./cmd/batbench -treebench -treebench-quick -treebench-out "$out" >/dev/null; then
		rm -f "$out"
		return 1
	fi
	test -s "$out"
	rc=$?
	rm -f "$out"
	return $rc
}
run "bench smoke treebench" treebench_smoke

# batserve end-to-end smoke: write a small dataset, serve it, drive a few
# queries over HTTP, and require /metrics, /debug/access, and /debug/queries
# to answer well-formed. This is the only stage that exercises the real
# binary over a real socket.
batserve_smoke() {
	dir="$(mktemp -d)" || return 1
	bin="$dir/batserve"
	log="$dir/serve.log"
	port="${BATSERVE_SMOKE_PORT:-18931}"
	base="http://127.0.0.1:$port"
	rc=1
	pid=""
	while :; do
		go run ./cmd/batwrite -workload uniform -ranks 4 -particles 20000 \
			-out "$dir/data" -name smoke >/dev/null || break
		go build -o "$bin" ./cmd/batserve || break
		"$bin" -in "$dir/data" -name smoke -addr "127.0.0.1:$port" \
			-access-persist >"$log" 2>&1 &
		pid=$!
		up=""
		for _ in $(seq 1 50); do
			if curl -sf "$base/info" >/dev/null 2>&1; then
				up=1
				break
			fi
			kill -0 "$pid" 2>/dev/null || break
			sleep 0.2
		done
		if [ -z "$up" ]; then
			echo "batserve never came up; log:"
			cat "$log"
			break
		fi
		# A clustered workload plus one filtered query, so the telemetry
		# endpoints have per-treelet hits, heatmap mass, and a query log.
		ok=1
		for i in 1 2 3; do
			curl -sf "$base/points?box=0,0,0,0.5,0.5,0.5" >/dev/null || ok=""
		done
		curl -sf "$base/points?box=0,0,0,1,1,1&filter=0,0,1e30" >/dev/null || ok=""
		[ -n "$ok" ] || { echo "query requests failed"; break; }
		curl -sf "$base/metrics" | grep -q '^http_requests_total' ||
			{ echo "/metrics missing http_requests_total"; break; }
		curl -sf "$base/metrics" | grep -q '^go_goroutines' ||
			{ echo "/metrics missing go runtime series"; break; }
		curl -sf "$base/metrics" | grep -q '_p99' ||
			{ echo "/metrics missing quantile gauges"; break; }
		curl -sf "$base/debug/access" | python3 -c '
import json, sys
d = json.load(sys.stdin)["datasets"]
assert d and d[0]["treelets"], "no per-treelet hits"
assert d[0]["heatmap"], "no heatmap mass"
' || { echo "/debug/access malformed"; break; }
		curl -sf "$base/debug/queries?n=2" | python3 -c '
import json, sys
q = json.load(sys.stdin)["queries"]
assert len(q) == 2, f"n=2 returned {len(q)}"
assert all(r["source"] == "batserve:/points" for r in q)
' || { echo "/debug/queries malformed"; break; }
		curl -sf "$base/debug/access?format=prometheus" | grep -q '^access_queries_total' ||
			{ echo "/debug/access prometheus export malformed"; break; }
		rc=0
		break
	done
	if [ -n "$pid" ]; then
		kill -TERM "$pid" 2>/dev/null
		wait "$pid" 2>/dev/null
	fi
	# -access-persist: the shutdown path must have written the sidecar.
	if [ "$rc" = 0 ] && [ ! -s "$dir/data/smoke.bata" ]; then
		echo "access sidecar not persisted on shutdown"
		rc=1
	fi
	rm -rf "$dir"
	return $rc
}
run "batserve smoke" batserve_smoke

# Short fuzz pass over both on-disk format parsers: seconds, not a soak —
# enough to catch parser regressions on the corpus + fresh mutations.
# (-fuzzminimizetime keeps a newly found interesting input from eating the
# whole budget in minimization.) CHECK_FUZZ=0 skips it for quick local
# iterations.
if [ "${CHECK_FUZZ:-1}" != "0" ]; then
	run "fuzz FuzzDecode bat" go test -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=5x ./internal/bat/
	run "fuzz FuzzDecode meta" go test -fuzz=FuzzDecode -fuzztime=10s -fuzzminimizetime=5x ./internal/meta/
else
	echo "== fuzz stages skipped (CHECK_FUZZ=0)"
fi

if [ -n "$failed" ]; then
	echo "check.sh: FAILED stages:$failed"
	exit 1
fi
echo "check.sh: OK"
