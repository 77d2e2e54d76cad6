#!/usr/bin/env bash
# The project's whole static gate in one command: gofmt, go vet, and poivet
# over every package. CI's lint job runs this verbatim; run it locally
# before pushing. Exits nonzero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== gofmt"
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "unformatted files:" >&2
  echo "$out" >&2
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== poivet"
# poivet loads the whole module at once, so the lockorder call-graph walk
# descends across packages.
go run ./cmd/poivet ./...

echo "lint OK"
