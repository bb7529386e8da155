#!/usr/bin/env bash
# Prints the tracked size of the library: the lines of src/**/*.{cc,h}
# that are neither blank nor a `//` comment (leading whitespace ignored).
#
#   scripts/count_src_lines.sh [repo-root]
#
# The root defaults to the repository this script lives in.
set -euo pipefail

root="${1:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"
find "$root/src" -type f \( -name '*.cc' -o -name '*.h' \) -print0 |
  xargs -0 cat |
  grep -Ev '^[[:space:]]*(//|$)' |
  wc -l |
  tr -d ' '
