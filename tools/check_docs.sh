#!/bin/sh
# Docs consistency check, run by the CI docs job (and locally from the
# repo root):
#   1. every relative markdown link in README.md / docs/*.md resolves to
#      an existing file or directory;
#   2. every CLI flag the hmem_* tools (and the resumable fig4 sweep
#      bench) accept appears in docs/TOOLS.md, so the reference cannot
#      silently drift from the argv parsers;
#   3. every backticked src/, tools/, tests/ or bench/ path cited in
#      README.md / docs/*.md exists, and a `:N` line suffix lies within
#      the file.
# Plain grep/sed — no dependencies beyond POSIX sh.
set -u

repo_root=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo_root" || exit 1
fail=0

# ---- 1. markdown links ----------------------------------------------------
for md in README.md docs/*.md; do
  dir=$(dirname "$md")
  # Extract (target) of every [text](target); one per line.
  for target in $(grep -oE '\]\([^)]+\)' "$md" | sed -e 's/^](//' -e 's/)$//'); do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    path=${target%%#*}   # strip in-page anchors
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "BROKEN LINK: $md -> $target"
      fail=1
    fi
  done
done

# ---- 2. CLI flags documented ----------------------------------------------
# The tools test argv with string literals ("--machine", "--per-phase",
# ...); every such literal must be mentioned in docs/TOOLS.md.
flags=$(grep -ohE '"--[a-z-]+"' tools/hmem_profile.cpp tools/hmem_advise.cpp \
          tools/hmem_run.cpp tools/hmem_sweep.cpp tools/hmem_workload.cpp \
          bench/fig4_placement_dynamic.cpp | tr -d '"' | sort -u)
for flag in $flags; do
  if ! grep -q -- "$flag" docs/TOOLS.md; then
    echo "UNDOCUMENTED FLAG: $flag (from tools/hmem_*.cpp) missing in docs/TOOLS.md"
    fail=1
  fi
done

# ---- 3. cited source paths ------------------------------------------------
for md in README.md docs/*.md; do
  for cite in $(grep -oE '`(src|tools|tests|bench)/[A-Za-z0-9_./-]*(:[0-9]+)?`' \
                  "$md" | tr -d '`'); do
    path=${cite%%:*}
    line=${cite#"$path"}
    line=${line#:}
    if [ ! -e "$path" ]; then
      echo "MISSING CITED PATH: $md -> $cite"
      fail=1
    elif [ -n "$line" ] &&
         { [ "$line" -lt 1 ] || [ "$line" -gt "$(wc -l < "$path")" ]; }; then
      echo "CITED LINE OUT OF RANGE: $md -> $cite"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK (links resolve, all CLI flags documented, cited paths exist)"
