#!/bin/sh
# lib_loc.sh — the net line delta of lib/ that every change reports.
#
#   scripts/lib_loc.sh [BASE]
#
# Prints, as a Markdown table, the .ml/.mli line count (wc -l) of each
# lib/* library at the commit BASE (default HEAD~1) and in the work
# tree, with the per-library and total deltas. Read-only: it extracts
# BASE's lib/ into a temporary directory and never touches the index.
set -eu

base=${1:-HEAD~1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git -C "$root" rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
  echo "lib_loc.sh: unknown commit $base" >&2
  exit 2
}
git -C "$root" archive "$base" lib | tar -x -C "$tmp"

# "<lib> <lines>" for every library directory under $1/lib
counts() {
  for d in "$1"/lib/*/; do
    [ -d "$d" ] || continue
    n=$(find "$d" -name '*.ml' -o -name '*.mli' | sort | xargs cat 2>/dev/null | wc -l)
    echo "$(basename "$d") $n"
  done
}

counts "$tmp" >"$tmp/base.txt"
counts "$root" >"$tmp/tree.txt"

echo "### lib/ line count: $(git -C "$root" rev-parse --short "$base") -> work tree"
echo
awk '
  FNR == NR { b[$1] = $2; seen[$1] = 1; next }
  { t[$1] = $2; seen[$1] = 1 }
  END {
    print "| library | base | work tree | delta |"
    print "|---|---:|---:|---:|"
    n = 0
    for (k in seen) names[++n] = k
    for (i = 2; i <= n; i++) {
      v = names[i]
      for (j = i - 1; j >= 1 && names[j] > v; j--) names[j + 1] = names[j]
      names[j + 1] = v
    }
    for (i = 1; i <= n; i++) {
      k = names[i]; d = t[k] - b[k]; tb += b[k]; tt += t[k]
      printf "| %s | %d | %d | %+d |\n", k, b[k], t[k], d
    }
    printf "| **lib/ total** | %d | %d | %+d |\n", tb, tt, tt - tb
  }
' "$tmp/base.txt" "$tmp/tree.txt"
