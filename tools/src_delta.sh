#!/usr/bin/env bash
# Prints how many lines a change adds to and removes from src/, and the
# net, from `git diff --numstat` between <base> and the working tree.
#
# Usage: tools/src_delta.sh <base>   (e.g. origin/main or a commit id)
# Output: src/: +ADDED -REMOVED net +/-N

set -euo pipefail
cd "$(dirname "$0")/.."

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base>" >&2
  exit 2
fi

git diff --numstat "$1" -- src/ | awk '
  $1 != "-" { added += $1; removed += $2 }
  END { printf "src/: +%d -%d net %+d\n", added, removed, added - removed }'
