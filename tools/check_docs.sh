#!/bin/sh
# Docs consistency check, run by the CI docs job (and locally from the
# repo root):
#   1. every relative markdown link in README.md / docs/*.md resolves to
#      an existing file or directory;
#   2. each hmem_* tool's docs/TOOLS.md section lists exactly the flags of
#      its table in tools/flags.hpp, in the usage block and the flag table
#      (and the resumable fig4 sweep bench's flags appear in TOOLS.md), so
#      the reference cannot drift from the parsers;
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
# tools/flags.hpp holds each tool's flag table, HMEM_<TOOL>_FLAGS: rows
# X(field, "--name", ...) plus shared HMEM_FLAG_* rows. The tool's section
# of docs/TOOLS.md must list exactly those flags, in its usage block and in
# its flag table alike: none missing, none stale.
table_flags() {  # $1: PROFILE | ADVISE | RUN | SWEEP
  rows=$(sed -n "/^#define HMEM_$1_FLAGS(/,/[^\\\\]\$/p" tools/flags.hpp)
  for shared in $(printf '%s\n' "$rows" | grep -oE 'HMEM_FLAG_[A-Z_]+'); do
    rows="$rows $(sed -n "/^#define $shared(/,/[^\\\\]\$/p" tools/flags.hpp)"
  done
  printf '%s\n' "$rows" | grep -oE 'X\([a-z_]+, "--[a-z-]+"' |
    grep -oE -- '--[a-z-]+' | sort -u
}
doc_section() {  # $1: tool name; its "## <tool>" section of docs/TOOLS.md
  awk -v head="## $1" '$0 == head { on = 1; next } /^## / { on = 0 } on' \
    docs/TOOLS.md
}
usage_flags() {  # flags in the section's first code block
  doc_section "$1" | awk '/^```/ { n++; next } n == 1' |
    grep -oE -- '--[a-z-]+' | sort -u
}
row_flags() {  # flags in the first column of the section's flag table
  doc_section "$1" | grep -E '^\| `--' | cut -d'|' -f2 |
    grep -oE -- '--[a-z-]+' | sort -u
}
for tool in PROFILE ADVISE RUN SWEEP; do
  name=hmem_$(echo "$tool" | tr A-Z a-z)
  want=$(table_flags "$tool")
  for part in usage row; do
    have=$("${part}_flags" "$name")
    if [ -z "$want" ] || [ "$have" != "$want" ]; then
      echo "FLAG DRIFT: $name's docs/TOOLS.md $part list vs" \
           "HMEM_${tool}_FLAGS in tools/flags.hpp: missing [" \
           $(echo "$want" | grep -vxF -e "$have") "] stale [" \
           $(echo "$have" | grep -vxF -e "$want") "]"
      fail=1
    fi
  done
done
# hmem_workload (subcommands) and the resumable fig4 sweep bench keep their
# own parsers; every "--x" literal there must appear in docs/TOOLS.md.
for flag in $(grep -ohE '"--[a-z-]+"' tools/hmem_workload.cpp \
                bench/fig4_placement_dynamic.cpp | tr -d '"' | sort -u); do
  if ! grep -q -- "$flag" docs/TOOLS.md; then
    echo "UNDOCUMENTED FLAG: $flag missing in docs/TOOLS.md"
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
echo "check_docs: OK (links resolve, CLI flags match their tables, cited paths exist)"
