#!/bin/sh
# Paired A/B speed gate on the repository benchmark (BENCHMARK.json,
# perfbench/): runs the table-checked, sweep-fast and net-relay workloads
# five times each on <base-ref> and on the working tree, interleaved
# base/head with the order swapped every pair, at a fixed seed and
# length. Fails (exit 1) when any run reports correct:false, or when the
# median of an end-to-end metric is worse at head than at the base by
# more than that metric's BENCHMARK.json bound.
#
#   sh scripts/bench-ab.sh <base-ref>
#
# Run from the repository root; needs git and jq. The base is checked
# out in a temporary git worktree, removed on exit. Takes about five
# minutes on a 2-core machine.
set -eu
if [ $# -ne 1 ]; then
	echo "usage: sh scripts/bench-ab.sh <base-ref>" >&2
	exit 2
fi
root=$(pwd)
tmp=$(mktemp -d)
base=$tmp/base
trap 'git -C "$root" worktree remove --force "$base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT
git worktree add --detach "$base" "$1" >/dev/null 2>&1

pairs=5
seed=1
seconds=5

# run <side> <workload>: one benchmark run, its output line appended to
# $tmp/<workload>.<side>; a run without one counts as incorrect.
run() {
	dir=$root
	[ "$1" = base ] && dir=$base
	line=$(cd "$dir" && bash perfbench/run.sh --workload "$2" --seed $seed --seconds $seconds --trace 0 2>>"$tmp/log" | tail -n 1)
	if ! printf '%s\n' "$line" | jq -e 'has("correct")' >/dev/null 2>&1; then
		line='{"correct":false,"metrics":{}}'
	fi
	printf '%s\n' "$line" >>"$tmp/$2.$1"
	echo "bench-ab: $2 $1 $(printf '%s\n' "$line" | jq -c '{correct, channel_rounds_per_s: .metrics.channel_rounds_per_s.value}')"
}

for w in table-checked sweep-fast net-relay; do
	i=1
	while [ $i -le $pairs ]; do
		if [ $((i % 2)) -eq 1 ]; then
			run base $w
			run head $w
		else
			run head $w
			run base $w
		fi
		i=$((i + 1))
	done
done

bad=0
for w in table-checked sweep-fast net-relay; do
	out=$(jq -n -r --arg w $w \
		--slurpfile spec "$root/BENCHMARK.json" \
		--slurpfile b "$tmp/$w.base" --slurpfile h "$tmp/$w.head" '
		def median: sort | if length % 2 == 1 then .[length / 2 | floor]
			else (.[length / 2 - 1] + .[length / 2]) / 2 end;
		if ([$b[], $h[]] | all(.correct)) | not then "FAIL \($w): a run reported correct:false"
		else $spec[0].end_to_end[] as $m
			| ([$b[].metrics[$m.name].value] | median) as $mb
			| ([$h[].metrics[$m.name].value] | median) as $mh
			| (if $m.better == "lower" then $mh > $mb * (1 + $m.bound)
				else $mh < $mb * (1 - $m.bound) end) as $worse
			| "\(if $worse then "FAIL" else "ok  " end) \($w) \($m.name): base \($mb) head \($mh) \($m.unit) (bound \($m.bound), \($m.better) is better)"
		end')
	echo "$out"
	case $out in *FAIL*) bad=1 ;; esac
done
if [ $bad -ne 0 ]; then
	echo "bench-ab: regression against $1; benchmark log:" >&2
	tail -n 40 "$tmp/log" >&2
	exit 1
fi
echo "bench-ab: no end-to-end metric worse than its bound against $1"
