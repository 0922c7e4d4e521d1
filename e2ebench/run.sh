#!/usr/bin/env bash
# Builds the e2ebench binary from this checkout and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload daemon-steady --seed 1 --seconds 25 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and the
# traced runs' artifacts (CPU profiles, spans) go under $CARGO_TARGET_DIR,
# default .bench_build, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# The benchmark is its own module that imports the repository's packages
# through a replace directive; outside a checkout the build fails here.
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2

# The source revision the result is stamped with: the git commit (marked
# -dirty with local changes) when the checkout is a git work tree,
# otherwise a digest of the Go sources.
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	rev=$(git -C "$root" describe --always --dirty --abbrev=12)
else
	rev="src-$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -type f -print \
		| LC_ALL=C sort | xargs cat | sha256sum | cut -c1-12)"
fi
export E2EBENCH_REVISION="$rev"

exec "$out/e2ebench" --artifacts "$out/e2ebench-artifacts" "$@"
