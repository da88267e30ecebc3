#!/usr/bin/env bash
# Lists the functions of the module that no entry point reaches.
#
# Builds the three CLIs and ./benchmark with coverage over the whole module
# (go build -cover -coverpkg=./...), and the root package's tests as one
# covered test binary (go test -c). Drives them with the verify-skill
# recipes, every CI smoke, one command per flag value those skip, the root
# package's Example functions (only those: its other tests reach reference
# functions no entry point does) and all six benchmark workloads at -trace 0
# and -trace 1, then prints every function whose coverage is 0.0 %, one
# "file Func" line each (methods as Recv.Method), sorted.
# testdata/reachability.txt is the checked allowlist of that set; CI's
# reachability job diffs the two.
#
#	bash scripts/reachability.sh            # the 0.0 % set on stdout
#	bash scripts/reachability.sh -check     # exit 1 unless it equals the allowlist
#
# Build outputs, coverage counters and the files the commands write go to a
# temporary directory, removed on exit. A command that should succeed and
# fails, or the reverse, stops the script: an entry point that stopped working
# would otherwise only show as functions gone unreached.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
case "${1:-}" in
"") ;;
-check) check=1 ;;
*)
	echo "usage: $0 [-check]" >&2
	exit 2
	;;
esac

# The allowlist is the set of an amd64 host with AVX: elsewhere the portable
# band loop is reached and the vector routine's stubs are not. Two Ps at least,
# or a run's ranks share one cluster worker and its idle path goes unreached.
if [ "$(go env GOARCH)" != amd64 ] || ! grep -qw avx /proc/cpuinfo 2>/dev/null; then
	echo "reachability: needs an amd64 host with AVX, the platform testdata/reachability.txt is the set of" >&2
	exit 2
fi
export GOMAXPROCS=$(($(nproc) > 2 ? $(nproc) : 2))

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
bin=$dir/bin work=$dir/work
mkdir -p "$bin" "$work" "$dir/cov"
export GOCOVERDIR=$dir/cov GOFLAGS=-buildvcs=false

log() { echo "reachability: $*" >&2; }

for p in cmd/esrpsolve cmd/esrpbench cmd/esrpcampaign benchmark; do
	go build -cover -coverpkg=./... -o "$bin/${p##*/}" "./$p"
done
go test -c -cover -coverpkg=./... -o "$bin/examples.test" .
log "built $(ls "$bin" | wc -l) entry points"

# ok runs an entry point that must succeed, fails one that must exit non-zero.
ok() {
	if ! "$@" >"$work/out" 2>&1; then
		cat "$work/out" >&2
		log "FAILED: $*"
		exit 1
	fi
}
fails() {
	if "$@" >"$work/out" 2>&1; then
		log "succeeded but should have failed: $*"
		exit 1
	fi
}

solve=$bin/esrpsolve bench=$bin/esrpbench camp=$bin/esrpcampaign

# esrpsolve: the verify-skill recipes and the observability smoke.
ok "$solve" -gen poisson2d -n 64 -nodes 12 -balance -strategy esrp -T 15 -phi 2 -events "50:5-6" -no-spare -v
ok "$solve" -gen poisson2d -n 64 -nodes 8 -strategy imcr -T 10 -events "35:4" -v
fails "$solve" -gen poisson2d -n 16 -nodes 4 -pipelined
ok "$solve" -gen poisson2d -n 48 -nodes 8 -strategy esrp -T 20 -phi 1 -events "50:3" \
	-trace "$work/solve.trace.json" -series "$work/solve.series.csv" -v
# The flag values the recipes skip.
for g in poisson3d emilia audikw banded; do
	ok "$solve" -gen "$g" -n 6 -nodes 4 -strategy esr -phi 1 -events "5:1"
done
for pc in none jacobi blockjacobi bj ic0; do
	ok "$solve" -gen poisson2d -n 24 -nodes 4 -precond "$pc" -strategy esrp -T 5 -phi 1 -events "12:2"
done
fails "$solve" -precond bogus
ok "$solve" -gen emilia -n 8 -nodes 4 -strategy esrp -T 5 -phi 2 -events "12:1-2"
fails "$solve" -strategy bogus
fails "$solve" -gen bogus
fails "$solve" -gen poisson2d -n 4 -nodes 64
fails "$solve" -gen poisson2d -n 8 -nodes 2 -maxblock -3
fails "$solve" -gen poisson2d -n 8 -nodes 2 -strategy esrp -T 5 -phi -2
cat >"$work/small.mtx" <<'EOF'
%%MatrixMarket matrix coordinate real symmetric
% 1-D Laplacian, 8 rows
8 8 15
1 1 2.0
2 1 -1.0
2 2 2.0
3 2 -1.0
3 3 2.0
4 3 -1.0
4 4 2.0
5 4 -1.0
5 5 2.0
6 5 -1.0
6 6 2.0
7 6 -1.0
7 7 2.0
8 7 -1.0
8 8 2.0
EOF
ok "$solve" -matrix "$work/small.mtx" -nodes 2 -strategy esr -phi 1 -precond jacobi -events "2:1"
fails "$solve" -matrix "$work/missing.mtx"
ok "$solve" -gen poisson2d -n 24 -nodes 4 -series "$work/solve.series.json"
ok "$solve" -gen poisson2d -n 48 -nodes 8 -strategy esr -phi 1 -events "20:3;45:5;70:2" -spares 1 -v
ok "$solve" -gen poisson2d -n 48 -nodes 8 -strategy esrp -T 10 -phi 2 -rr 10 -events "20:2-3" -no-spare
ok "$solve" -gen poisson2d -n 48 -nodes 8 -strategy none -events "20:1"
ok "$solve" -gen poisson2d -n 48 -nodes 8 -strategy imcr -T 50 -events "5:1"
fails "$solve" -events "bogus"
fails "$solve" -events "5:x"
log "esrpsolve done"

# esrpbench: the fast table, CI's paper-tables job, the profiles and the
# rejected flags.
ok "$bench" -table 2 -scale 1 -cpuprofile "$work/cpu.prof" -memprofile "$work/mem.prof"
fails "$bench" -table 2 -scale 1 -allocsprofile "$work/allocs.prof"
ok "$bench" -all
ok "$bench" -fig 2 -nodes 8 -ts 10,20 -phis 1
fails "$bench"
fails "$bench" -table 1 -scale 0
fails "$bench" -table 1 -ts 0
fails "$bench" -table 3 -ts 1000
log "esrpbench done"

# esrpcampaign: every CI smoke, then the failure processes and options they
# skip.
small=(-gen poisson2d -n 32 -nodes 8 -strategies esrp,imcr -ts 10 -phis 1 -seeds 2 -mtbf 500 -horizon 80)
ok "$camp" "${small[@]}" -json "$work/campaign.json" -csv "$work/campaign.csv"
fails "$camp" -gen poisson2d -n 8 -nodes 2 -maxiter -5
fails "$camp" -gen poisson2d -n 8 -nodes 2 -horizon -5
for bad in "-nodes 0" "-phis -1" "-mtbf -5" "-group-prob 2" "-group -1"; do
	# $bad unquoted: it splits into the flag and its value
	fails "$camp" -gen poisson2d -n 8 -nodes 2 $bad -json /dev/null
done
ok "$camp" "${small[@]}" -sweep-machine "L=1x,8x" -schedules "$work/schedules" -json "$work/sweep.json"
ok "$camp" "${small[@]}" -json /dev/null -host-trace "$work/host.trace.json" -metrics "$work/host.prom" -v
cached=(-gen poisson2d -n 32 -nodes 8 -strategies esrp,imcr -ts 10,20 -phis 1 -seeds 2 -mtbf 500 -horizon 80)
ok "$camp" "${cached[@]}" -cache "$work/ccache" -workers 2 -json "$work/cold.json" -metrics "$work/cold.prom"
ok "$camp" "${cached[@]}" -cache "$work/ccache" -workers 1 -json "$work/warm.json" -metrics "$work/warm.prom"
ok "$camp" "${cached[@]}" -cache "$work/ccache" -trace-sample 2 -trace-dir "$work/warm-traces" -json "$work/traced.json"
ok cmp "$work/cold.json" "$work/traced.json"
ok "$camp" "${cached[@]}" -cache "$work/ccache" -machine "L=4x;G=2x" -json "$work/moved.json" -metrics "$work/moved.prom"
res=$(find "$work/ccache/res" -type f | sort | head -2)
truncate -s 5 "$(echo "$res" | sed -n 1p)"
printf 'X' | dd of="$(echo "$res" | sed -n 2p)" bs=1 seek=30 conv=notrunc 2>/dev/null
printf 'GARBAGE!' | dd of="$(find "$work/ccache/sch" -type f | sort | tail -1)" bs=1 conv=notrunc 2>/dev/null
ok "$camp" "${cached[@]}" -cache "$work/ccache" -workers 3 -json "$work/healed.json" -metrics "$work/healed.prom"
ok "$camp" "${cached[@]}" -cache "$work/ccache" -cache-mismatch refresh -json /dev/null -q
ok "$camp" -gen banded,audikw -n 6 -nodes 4 -strategies none,esr -ts 5 -phis 1 -seeds 2 \
	-model weibull -shape 0.7 -mtbf 300 -horizon 40 -group 2 -group-prob 0.5 -max-events 3 -spares 1 \
	-trace-sample 2 -trace-dir "$work/traces" -json /dev/null -q
ok "$camp" -gen poisson3d,emilia -n 6 -nodes 4 -strategies esrp -ts 5 -phis 2 -seeds 1 \
	-model fixed -events "10:1-2;20:3" -rtol 1e-6 -maxiter 500 -json /dev/null -q
fails "$camp" -gen bogus -json /dev/null
fails "$camp" -model bogus -json /dev/null
fails "$camp" -sweep-machine "bogus" -json /dev/null
fails "$camp" -machine "L=1x,2x" -json /dev/null
fails "$camp" -cache "$work/ccache" -cache-mismatch bogus -json /dev/null
log "esrpcampaign done"

ok "$bin/examples.test" -test.run '^Example' -test.gocoverdir "$GOCOVERDIR"
log "examples done"

# The benchmark finds the repository from its working directory and writes
# under benchmark/out, which git ignores.
for w in solve-fat solve-wide recovery-storm sweep-cold sweep-warm sweep-recost; do
	for tr in 0 1; do
		ok "$bin/benchmark" -workload "$w" -seconds 1 -trace "$tr"
	done
done
log "benchmark done"

# covdata prints "esrp/file.go:line: name pct", methods as "*Recv.Name" or
# "Recv.Name". Kept: "file Recv.Name" of every 0.0 % function, except
# benchmark/'s own (the measuring program, changed only with BENCHMARK.json)
# and functions with an empty body, which have no statement to reach.
go tool covdata func -i "$dir/cov" | awk '$NF == "0.0%" { print $1, $2 }' |
	while read -r pos name; do
		pos=${pos#esrp/}
		file=${pos%%:*} line=${pos#*:}
		line=${line%%:*}
		case $file in benchmark/*) continue ;; esac
		if sed -n "${line}p" "$file" | grep -qE '\{ *\}$'; then
			continue
		fi
		echo "$file ${name#\*}"
	done | LC_ALL=C sort -u >"$dir/unreached"

if [ "$check" = 0 ]; then
	cat "$dir/unreached"
	exit 0
fi
awk 'NF && $1 !~ /^#/ { print $1, $2 }' testdata/reachability.txt | LC_ALL=C sort -u >"$dir/allowed"
if ! diff -u --label allowlist --label unreached "$dir/allowed" "$dir/unreached"; then
	log "the 0.0 % set differs from testdata/reachability.txt:"
	log "  '+' lines: unreached and not listed (delete the function or justify it)"
	log "  '-' lines: listed but now reached (drop the entry)"
	exit 1
fi
log "$(wc -l <"$dir/unreached") unreached functions, all listed"
