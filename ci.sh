#!/bin/sh
# ci.sh — tier-1 verification in one command: formatting, vet, build,
# the full test suite, and a smoke-run of every example and CLI so
# facade regressions that only break consumers fail here too. Exits
# non-zero on the first failure.
set -eu
cd "$(dirname "$0")"

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

go vet ./...
go build ./...
go test ./...
# The benchmark is a module of its own that imports internal packages
# (npu, compiler, serving, ...); the root module's vet and test do not
# reach it, so an API change that breaks it must fail here.
(cd bench && go vet ./... && go test -short ./...)

# Domain invariants (determinism, facade boundary, write-once
# registries, must-check errors, no-copy state): the repo must lint
# clean, and the tripwire itself must still trip — a premalint that
# stops flagging the seeded-violation fixture is a silent CI hole.
echo "premalint"
go run ./cmd/premalint ./...
if go run ./cmd/premalint ./internal/lint/testdata/broken >/dev/null 2>&1; then
	echo "premalint: seeded-violation fixture passed the lint — tripwire is broken" >&2
	exit 1
fi

# The streaming node-session paths (per-NPU session backends, the
# shared router, closed-loop injection, autoscaling) are
# concurrency-sensitive: race-check them on every run, with the
# compiler's shared block pools and the workload generator on top of
# them (the experiment engine's workers share one Generator, and so one
# Compiler). The simulator core and the worker-pool experiment engine
# (the most concurrency-dense code in the repo) race-check in -short
# mode — the full experiment sweeps blow past go test's timeout under
# the race detector, and the engine/cache race coverage lives in the
# fast tests.
go test -race ./internal/serving/... ./internal/cluster/... ./internal/autoscale/... ./internal/scenario/... ./internal/ctl/... \
	./internal/compiler/... ./internal/workload/...
go test -race -short ./internal/sim/... ./internal/exp/...

# Coverage-guided smoke: exercise the simulator fuzz target's seed
# corpus plus a short fuzz burst, so invariant regressions surface on
# every run, not only when someone remembers to fuzz.
go test -fuzz=FuzzSimInvariants -fuzztime=5s -run '^$' ./internal/sim/
# The resumable simulator's contract: a stream admitted in random chunks
# and advanced bound by bound projects and ends exactly as the offline
# run over the same tasks.
go test -fuzz=FuzzLiveEqualsOffline -fuzztime=5s -run '^$' ./internal/sim/
# The JSONL encoder writes exactly what encoding/json would, NaN and ±Inf
# errors included; the fuzz target checks it against that reference.
go test -fuzz=FuzzEncodeJSONL -fuzztime=5s -run '^$' ./internal/telemetry/
# A cursor at a speed factor executes exactly as one over the program
# stretched instruction by instruction.
go test -fuzz=FuzzScaledExecution -fuzztime=5s -run '^$' ./internal/npu/
# Any binary program stream reads or errors without panicking, allocating
# by the bytes read rather than the header's claim, and an accepted
# program writes back to a stream that reads as the same program.
go test -fuzz=FuzzISARead -fuzztime=5s -run '^$' ./internal/isa/
# Any scenario text parses or errors without panicking, and a small
# accepted scenario runs to the same transcript and report on the
# control plane as on the reference executor it replaced.
go test -fuzz=FuzzScenarioParse -fuzztime=5s -run '^$' ./internal/scenario/

# The examples are the public-API consumers: every one must build and
# run to completion against the current facade.
for ex in examples/*/; do
	echo "smoke: $ex"
	go run "./$ex" >/dev/null
done

# CLI smoke: one cheap invocation per command, exercising the typed
# flag-parsing paths.
echo "smoke: cmd/premasim"
go run ./cmd/premasim -policy PREMA -preemptive -tasks 4 -timeline=false >/dev/null
go run ./cmd/premasim -npus 2 -routing least-work -policy FCFS -tasks 6 >/dev/null
go run ./cmd/premasim -npus 2 -routing least-queued -policy PREMA -preemptive -clients 4 -think 2ms -serve-horizon 150ms >/dev/null
go run ./cmd/premasim -npus 4 -clients 4 -fleet 70%:fast,30%:slow -serve-horizon 150ms >/dev/null
go run ./cmd/premasim -autoscale queue-depth -slo 8ms -min-npus 1 -max-npus 4 -policy FCFS -serve-horizon 150ms >/dev/null
# Scenario smoke: the corpus doubles as a regression suite — every file
# must parse, run and pass its assertions (non-zero exit otherwise).
# .txt is the homogeneous corpus, .scn the heterogeneous-fleet stress
# scenarios.
for scn in scenarios/*.txt scenarios/*.scn; do
	go run ./cmd/premasim -scenario "$scn" >/dev/null
done
go run ./cmd/premasim -scenario scenarios/baseline.txt \
	-report-json "$tmpdir/baseline.json" >/dev/null
grep -q '"source": "scenario"' "$tmpdir/baseline.json"
grep -q '"passed": true' "$tmpdir/baseline.json"
# Telemetry determinism: a traced run of the heterogeneous stress
# scenario must emit a byte-identical JSONL stream (per-request events
# interleaved with autoscale-tick metric samples) on every replay, even
# under the race detector — the observability layer reads the same
# virtual clock as the scheduler and may never perturb or race it.
trace_ctl() {
	go run -race ./cmd/premasim -scenario scenarios/hetero-stress.scn \
		-trace-jsonl "$tmpdir/trace-$1.jsonl" >/dev/null
}
trace_ctl a
trace_ctl b
cmp "$tmpdir/trace-a.jsonl" "$tmpdir/trace-b.jsonl"
grep -q '"kind":"tick"' "$tmpdir/trace-a.jsonl"
grep -q '"tier":"slow"' "$tmpdir/trace-a.jsonl"

# Control-plane replay: the checked-in command script must run clean at
# time-scale 0 and produce the same transcript and report digest on
# every replay — the live REPL's determinism contract, checked the same
# way the scenario corpus is.
echo "smoke: cmd/premactl"
replay_ctl() {
	go run ./cmd/premactl -script scenarios/cordon-compensate.ctl \
		-timescale 0 -seed 7 -segment 25ms -min-npus 2 -max-npus 4 \
		-load 2 -name cordon-compensate \
		-report-json "$tmpdir/ctl-$1.json" > "$tmpdir/ctl-$1.txt"
}
replay_ctl a
replay_ctl b
cmp "$tmpdir/ctl-a.txt" "$tmpdir/ctl-b.txt"
cmp "$tmpdir/ctl-a.json" "$tmpdir/ctl-b.json"
grep -q '"source": "premactl"' "$tmpdir/ctl-a.json"
echo "smoke: cmd/premazoo"
go run ./cmd/premazoo -config >/dev/null
echo "smoke: cmd/premapredict"
go run ./cmd/premapredict -model CNN-AN >/dev/null
echo "smoke: cmd/premabench"
go run ./cmd/premabench -exp fig7 -runs 2 >/dev/null

echo "ci.sh: all green"
