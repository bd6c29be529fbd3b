#!/usr/bin/env bash
# Runs the untraced set twice on the current build and compares every
# (end-to-end metric, workload) pair to its bound; see `-agree` in main.go.
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" -agree "$@"
