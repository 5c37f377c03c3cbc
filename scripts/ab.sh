#!/usr/bin/env bash
# A/B pair driver for the repository benchmark (perfbench). It runs
# PAIRS alternating pairs of one workload: the parent side is the
# committed tree of REV, unpacked with `git archive` into a temporary
# directory (nothing is fetched and nothing is registered in .git), the
# change side is this checkout as it stands. Each side builds into its
# own CARGO_TARGET_DIR. The odd pairs run the parent first, the even
# pairs the change. For every end-to-end metric of BENCHMARK.json it
# prints each side's median and quartiles, the change's wins out of the
# pairs (ties count for neither) and a verdict:
#
#   unresolved  either side's IQR exceeds the metric's bound (as a
#               fraction of that side's median), unless every change run
#               beats every parent run or every parent run beats every
#               change run
#   gain        otherwise: the change wins at least 9 pairs in 10 and its
#               median beats the parent's by more than the parent's IQR
#   worse       otherwise: the change's median is worse than the
#               parent's by more than the bound
#   within      none of these
#
# Each line also prints, for information only, the median and quartiles
# of the per-pair ratios change/parent: pairing cancels drift that moves
# both runs of a pair, which the two sides' own spreads do not. The
# verdict does not read them.
#
# Both sides run at perfbench's own run length.
#
# It refuses a verdict (exit 1) when any run fails or reports
# `correct: false`, and says whether both sides' first-run fingerprints
# (perfbench's records of simulated totals and result hashes) agree.
#
# Usage, from the repository root:
#
#   bash scripts/ab.sh -r REV [-w WORKLOAD] [-s SEED] [-n PAIRS] [-o DIR]
#
# -o keeps every run's summary line (parent.jsonl, change.jsonl) and
# perfbench's standard error (parent.log, change.log) in DIR.
set -euo pipefail

rev= workload=cold-grid seed=1 pairs=10 out=
while getopts r:w:s:n:o: opt; do
	case $opt in
	r) rev=$OPTARG ;;
	w) workload=$OPTARG ;;
	s) seed=$OPTARG ;;
	n) pairs=$OPTARG ;;
	o) out=$OPTARG ;;
	*) exit 2 ;;
	esac
done
if [[ -z $rev ]]; then
	echo "usage: bash scripts/ab.sh -r REV [-w WORKLOAD] [-s SEED] [-n PAIRS] [-o DIR]" >&2
	exit 2
fi

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=${out:-$tmp/out}
mkdir -p "$tmp/parent" "$out"
rm -f "$out"/{parent,change}.{jsonl,log}
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"

# run SIDE DIR appends one summary line to $out/SIDE.jsonl, or fails.
run() {
	local side=$1 dir=$2 line
	line=$(cd "$dir" && CARGO_TARGET_DIR=$tmp/build-$side bash perfbench/run.sh \
		--workload "$workload" --seed "$seed" --trace 0 2>>"$out/$side.log" | tail -n 1) || true
	if [[ $line != *'"correct":true'* ]]; then
		echo "ab: no verdict: a $side run failed or reported correct: false: ${line:-no summary} (see $out/$side.log)" >&2
		exit 1
	fi
	echo "$line" >>"$out/$side.jsonl"
	echo "pair $i $side: $line" >&2
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
done

echo "ab: $workload seed $seed, $pairs pairs, parent $(git -C "$root" rev-parse --short "$rev"), change = this checkout"
if diff -r "$tmp/build-parent/perfbench/records" "$tmp/build-change/perfbench/records" >/dev/null; then
	echo "fingerprints: identical"
else
	echo "fingerprints: DIFFER"
fi

# Each end-to-end metric of BENCHMARK.json is one line there:
# {"name": ..., "unit": ..., "better": ..., "bound": ...}.
grep -o '"name": *"[^"]*", *"unit": *"[^"]*", *"better": *"[^"]*", *"bound": *[0-9.]*' "$root/BENCHMARK.json" |
	sed 's/"[a-z]*": *//g; s/"//g; s/, */ /g' |
	while read -r name unit better bound; do
		value() { grep -o "\"$name\":{\"value\":[^,}]*" "$1" | sed 's/.*://'; }
		paste <(value "$out/parent.jsonl") <(value "$out/change.jsonl") |
			awk -v name="$name" -v unit="$unit" -v better="$better" -v bound="$bound" '
			function sort(a, n,   i, j, x) {
				for (i = 2; i <= n; i++) {
					x = a[i]
					for (j = i - 1; j >= 1 && a[j] > x; j--) a[j + 1] = a[j]
					a[j + 1] = x
				}
			}
			# q is the p-quantile of the sorted a[1..n], interpolating
			# between order statistics.
			function q(a, n, p,   h, k) {
				h = 1 + (n - 1) * p
				k = int(h)
				return k >= n ? a[n] : a[k] + (h - k) * (a[k + 1] - a[k])
			}
			function gt(x, y) { return better == "higher" ? x > y : x < y }
			NF == 2 {
				n++
				b[n] = $1; c[n] = $2
				if (gt($2, $1)) wins++
				if ($1 != 0) r[++m] = $2 / $1
			}
			END {
				if (n == 0) { printf "%-15s not reported\n", name; exit }
				sort(b, n); sort(c, n); sort(r, m)
				mb = q(b, n, .5); mc = q(c, n, .5)
				iqr = q(b, n, .75) - q(b, n, .25)
				iqrc = q(c, n, .75) - q(c, n, .25)
				wideb = mb != 0 && iqr / mb > bound
				widec = mc != 0 && iqrc / mc > bound
				# apart: the worst change run beats the best parent run, or
				# the reverse, so the two samples do not overlap.
				hi = better == "higher"
				apart = gt(c[hi ? 1 : n], b[hi ? n : 1]) || gt(b[hi ? 1 : n], c[hi ? n : 1])
				gain = mb == 0 ? 0 : (hi ? mc - mb : mb - mc) / mb
				d = mc > mb ? mc - mb : mb - mc
				if ((wideb || widec) && !apart) v = "unresolved"
				else if (wins >= 0.9 * n && gain > 0 && d > iqr) v = "gain"
				else if (gain < -bound) v = "worse"
				else v = "within"
				ratio = m == 0 ? "n/a" : sprintf("%.3f [%.3f, %.3f]", q(r, m, .5), q(r, m, .25), q(r, m, .75))
				printf "%-15s %-9s parent %.4g [%.4g, %.4g]  change %.4g [%.4g, %.4g]  %+.1f%%  wins %d/%d  ratio %s  IQR parent %s change %s bound %g  %s\n",
					name, unit, mb, q(b, n, .25), q(b, n, .75), mc, q(c, n, .25), q(c, n, .75),
					100 * gain, wins, n, ratio, wideb ? "exceeds" : "within", widec ? "exceeds" : "within", bound, v
			}'
	done
