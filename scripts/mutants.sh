#!/usr/bin/env bash
# Mutation catalogue gate. Each tests/mutants/NN-name.patch is a small
# fault in the committed program, with a header line
#   Killed by: <test command>
# naming the test that must catch it. This applies each patch in turn to
# a throwaway checkout of HEAD (a `git worktree` under $TMPDIR), checks
# that the named test still compiles, and requires it to fail. Builds
# share one CARGO_TARGET_DIR, so each mutant rebuilds incrementally;
# nothing is fetched. Prints the kill count and exits 1 when a mutant
# survives, does not compile or no longer applies (refresh the patch in
# the change that moved its code).
#
#   scripts/mutants.sh [PATCH...]    # default: every committed patch
#
# `MUTANTS=1 scripts/bench_smoke.sh` runs it after the other gates.
set -euo pipefail
cd "$(dirname "$0")/.."
repo=$(pwd)
tmp=${TMPDIR:-/tmp}
work=$(mktemp -d "$tmp/pels-mutants.XXXXXX")
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$tmp/pels-mutants-target}
cleanup() {
    git -C "$repo" worktree remove --force "$work/tree" 2>/dev/null || true
    git -C "$repo" worktree prune
    rm -rf "$work"
}
trap cleanup EXIT
git worktree add -q --detach "$work/tree" HEAD

if [ $# -gt 0 ]; then
    patches=("$@")
else
    patches=(tests/mutants/*.patch)
fi
killed=0
for patch in "${patches[@]}"; do
    patch=$(cd "$(dirname "$patch")" && pwd)/$(basename "$patch")
    name=$(basename "$patch" .patch)
    cmd=$(sed -n 's/^Killed by: //p' "$patch")
    if [ -z "$cmd" ]; then
        echo "mutants: $name names no 'Killed by:' test" >&2
        exit 1
    fi
    if ! git -C "$work/tree" apply "$patch"; then
        echo "mutants: $name no longer applies to HEAD" >&2
        exit 1
    fi
    if ! (cd "$work/tree" && eval "$cmd --no-run") >"$work/$name.log" 2>&1; then
        cat "$work/$name.log" >&2
        echo "mutants: $name does not compile under \`$cmd\`" >&2
        exit 1
    fi
    if (cd "$work/tree" && eval "$cmd") >>"$work/$name.log" 2>&1; then
        echo "mutants: $name SURVIVED \`$cmd\`"
    else
        killed=$((killed + 1))
        echo "mutants: $name killed"
    fi
    git -C "$work/tree" apply -R "$patch"
done
echo "mutants: $killed/${#patches[@]} killed"
[ "$killed" -eq "${#patches[@]}" ]
