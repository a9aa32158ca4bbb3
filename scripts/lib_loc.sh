#!/bin/sh
# lib_loc.sh — the net line delta of lib/ that every change reports.
#
#   scripts/lib_loc.sh [BASE]
#
# Prints, as a Markdown table, the .ml/.mli line count (wc -l) of each
# lib/* library at the commit BASE (default HEAD~1) and in the work
# tree, with the per-library and total deltas. Under the lib/ total it
# prints one row per bin/ source file, the CLI's bin/chrun.ml among
# them, and under those one examples/ total row; the lib/ total
# includes neither. Read-only: it extracts BASE's lib/, bin/ and
# examples/ into a temporary directory and never touches the index.
set -eu

base=${1:-HEAD~1}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git -C "$root" rev-parse --verify --quiet "$base^{commit}" >/dev/null || {
  echo "lib_loc.sh: unknown commit $base" >&2
  exit 2
}
git -C "$root" archive "$base" lib bin examples | tar -x -C "$tmp"

# "<lib> <lines>" for every library directory under $1/lib
counts() {
  for d in "$1"/lib/*/; do
    [ -d "$d" ] || continue
    n=$(find "$d" -name '*.ml' -o -name '*.mli' | sort | xargs cat 2>/dev/null | wc -l)
    echo "$(basename "$d") $n"
  done
}

# "bin/<file> <lines>" for every .ml/.mli file under $1/bin
bin_counts() {
  for f in "$1"/bin/*.ml "$1"/bin/*.mli; do
    [ -f "$f" ] || continue
    echo "bin/$(basename "$f") $(wc -l <"$f")"
  done
}

# the .ml/.mli line count of $1/examples
examples_count() {
  find "$1/examples" -name '*.ml' -o -name '*.mli' | sort | xargs cat 2>/dev/null | wc -l
}

counts "$tmp" >"$tmp/base.txt"
counts "$root" >"$tmp/tree.txt"
bin_counts "$tmp" >"$tmp/bin_base.txt"
bin_counts "$root" >"$tmp/bin_tree.txt"

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
# the bin/ rows, not part of the lib/ total
awk '
  FNR == NR { b[$1] = $2; seen[$1] = 1; next }
  { t[$1] = $2; seen[$1] = 1 }
  END {
    for (k in seen) printf "| %s | %d | %d | %+d |\n", k, b[k], t[k], t[k] - b[k]
  }
' "$tmp/bin_base.txt" "$tmp/bin_tree.txt" | sort
# the examples/ total, not part of the lib/ total either
eb=$(examples_count "$tmp")
et=$(examples_count "$root")
printf "| **examples/ total** | %d | %d | %+d |\n" "$eb" "$et" $((et - eb))
