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
# registries, must-check errors, no-copy state, no test-only exports):
# the repo must lint clean, and each analyzer seeded in the
# seeded-violation fixture must still trip on its own — a premalint
# analyzer that stops flagging it is a silent CI hole, even while
# another one keeps the whole run failing. The binary is built once so
# the exit status (1 = findings, 2 = usage or load error) survives.
echo "premalint"
go build -o "$tmpdir/premalint" ./cmd/premalint
"$tmpdir/premalint" ./...
for analyzer in determinism expgolden floatorder testonly; do
	status=0
	"$tmpdir/premalint" -only "$analyzer" ./internal/lint/testdata/broken >/dev/null 2>&1 || status=$?
	if [ "$status" -ne 1 ]; then
		echo "premalint: -only $analyzer exited $status on the seeded-violation fixture, want 1 — its tripwire is broken" >&2
		exit 1
	fi
done

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
# A failed NPU's in-flight count names the tail of its commit order:
# exactly the requests the work ledger the router state used to keep
# would have reclaimed, under random commits, polls and fleet churn.
go test -fuzz=FuzzFailReclaim -fuzztime=5s -run '^$' ./internal/cluster/
# The count a compile grows a block pool by is the number of instructions
# the lowering emits, for any valid layer of any kind at any batch.
go test -fuzz=FuzzLowerCount -fuzztime=5s -run '^$' ./internal/compiler/
# Any binary program stream reads or errors without panicking, allocating
# by the bytes read rather than the header's claim, and an accepted
# program writes back to a stream that reads as the same program.
go test -fuzz=FuzzISARead -fuzztime=5s -run '^$' ./internal/isa/
# A flat sequence-length corpus draws, buckets, summarizes, predicts and
# samples exactly as the map-based corpus it replaced, for any profile
# shape.
go test -fuzz=FuzzCorpusMatchesReference -fuzztime=5s -run '^$' ./internal/seqlen/
# Any scenario text parses or errors without panicking, and a small
# accepted scenario runs to the same transcript and report on the
# control plane as on the reference executor it replaced.
go test -fuzz=FuzzScenarioParse -fuzztime=5s -run '^$' ./internal/scenario/
# Any control-plane script errors or runs on a small plane without
# panicking, and replays to the same transcript and report.
go test -fuzz=FuzzCtlScript -fuzztime=5s -run '^$' ./internal/ctl/

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
# One scheduler rule (sched.Spec) behind every text surface: a mechanism
# on a non-preemptive scheduler is refused by the flags and by scenario
# text alike. The binary is built once so a build failure cannot pass
# for a refusal.
go build -o "$tmpdir/premasim" ./cmd/premasim
printf 'scenario np-mechanism\nfleet initial=2\npolicy FCFS mechanism=static-kill\nsegment 20ms\nload 1\n' \
	> "$tmpdir/np-mechanism.txt"
for args in "-policy FCFS -mechanism static-kill" "-scenario $tmpdir/np-mechanism.txt"; do
	status=0
	# shellcheck disable=SC2086 # args is a word list on purpose
	"$tmpdir/premasim" $args >/dev/null 2>&1 || status=$?
	if [ "$status" -ne 1 ]; then
		echo "premasim $args exited $status, want 1: a mechanism on a non-preemptive scheduler must be refused" >&2
		exit 1
	fi
done
# A speed factor is finite and at most 1000: a NaN tier derate is
# refused with an error, not a panic in the cursor.
status=0
"$tmpdir/premasim" -npus 4 -clients 4 -fleet 50%:fast,50%:x@NaN -serve-horizon 50ms >/dev/null 2>&1 || status=$?
if [ "$status" -ne 1 ]; then
	echo "premasim -fleet 50%:fast,50%:x@NaN exited $status, want 1: a non-finite tier factor must be refused" >&2
	exit 1
fi
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
go build -o "$tmpdir/premabench" ./cmd/premabench
"$tmpdir/premabench" -exp fig7 -runs 2 >/dev/null
# The experiments that hand one drawn workload to several
# configurations print the same tables on one worker and on two; only
# the wall-time footers differ.
for workers in 1 2; do
	"$tmpdir/premabench" -exp autoscale,batching,energy,fig14,spill -runs 2 -parallel "$workers" \
		> "$tmpdir/paired-$workers.raw"
	grep -v "completed in" "$tmpdir/paired-$workers.raw" > "$tmpdir/paired-$workers.txt"
done
cmp "$tmpdir/paired-1.txt" "$tmpdir/paired-2.txt"
# A persisted cache answers a repeated run in full with the cold run's
# tables (the experiments read the cached ANTT/STP/fairness, NTTs and
# wasted cycles; only the wall-time and cache-stats lines differ), and a
# cache directory keeps one file per configuration: the files older
# cache formats left there, unversioned or versioned, are deleted.
cachedir="$tmpdir/cachedir"
mkdir "$cachedir"
: > "$cachedir/prema-cache-0123456789abcdef.gob"
: > "$cachedir/prema-cache-v2-0123456789abcdef.gob"
for run in cold warm; do
	"$tmpdir/premabench" -exp fig11,fig13,killgranularity -runs 2 -cachedir "$cachedir" -cachestats \
		> "$tmpdir/cache-$run.raw"
	grep -v -e "completed in" -e " cache: " "$tmpdir/cache-$run.raw" > "$tmpdir/cache-$run.txt"
done
grep -q ", 0 misses;" "$tmpdir/cache-warm.raw"
if grep " cache: " "$tmpdir/cache-warm.raw" | grep -qv ", 0 misses;"; then
	echo "premabench -cachedir: the warm run missed the cache:" >&2
	grep " cache: " "$tmpdir/cache-warm.raw" >&2
	exit 1
fi
cmp "$tmpdir/cache-cold.txt" "$tmpdir/cache-warm.txt"
if [ "$(ls -A "$cachedir" | wc -l)" -ne 1 ]; then
	echo "premabench -cachedir: want exactly one cache file, have:" >&2
	ls -A "$cachedir" >&2
	exit 1
fi

echo "ci.sh: all green"
