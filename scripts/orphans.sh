#!/bin/sh
# orphans.sh — exported values that nothing outside their module uses.
#
#   scripts/orphans.sh
#
# Scans every `val` in lib/*/*.mli and prints, as a Markdown list, each
# one with no user outside its own module (its .ml and .mli). A file
# counts as a user when it names the value qualified (`Module.name`), or
# names the module anywhere (an `open`, an alias) and the value as a
# bare word. Users are searched in the .ml/.mli/.md files under lib,
# bin, examples, bench, perfbench, test and doc. Values whose only
# users are under test/ are listed separately. Operators (`val ( >>= )`)
# are skipped. Read-only; the exit status is 0 whatever it finds.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find lib bin examples bench perfbench test doc -type d -name _build -prune \
  -o -type f \( -name '*.ml' -o -name '*.mli' -o -name '*.md' \) -print \
  2>/dev/null | sort >"$tmp/files"

# Does any file in the list on stdin use value $1 of module $2?
used_in() {
  xargs grep -lw -- "$1" 2>/dev/null | xargs -r grep -lE -- "(^|[^A-Za-z0-9_'])$2([^A-Za-z0-9_']|$)" 2>/dev/null | grep -q .
}

for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  own_ml=${mli%.mli}.ml
  grep -v -x -e "$mli" -e "$own_ml" "$tmp/files" >"$tmp/others"
  grep -v '^test/' "$tmp/others" >"$tmp/others_non_test"
  grep -nE "^[[:space:]]*val[[:space:]]+[a-z_][A-Za-z0-9_']*" "$mli" |
    sed -E "s/^([0-9]+):[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1 \2/" |
    while read -r line name; do
      echo "$mod.$name" >>"$tmp/all"
      if used_in "$name" "$mod" <"$tmp/others_non_test"; then
        :
      elif used_in "$name" "$mod" <"$tmp/others"; then
        echo "- \`$mod.$name\` ($mli:$line)" >>"$tmp/test_only"
      else
        echo "- \`$mod.$name\` ($mli:$line)" >>"$tmp/orphans"
      fi
    done
done

count() { if [ -f "$1" ]; then wc -l <"$1" | tr -d ' '; else echo 0; fi; }

echo "### Exported values without an outside user"
echo
echo "$(count "$tmp/orphans") orphaned and $(count "$tmp/test_only") test-only of $(count "$tmp/all") \`val\`s in lib/*/*.mli."
echo
echo "**No user outside their own module:**"
echo
if [ -f "$tmp/orphans" ]; then cat "$tmp/orphans"; else echo "- none"; fi
echo
echo "**Used only by tests:**"
echo
if [ -f "$tmp/test_only" ]; then cat "$tmp/test_only"; else echo "- none"; fi
