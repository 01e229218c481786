#!/usr/bin/env bash
# One-shot developer gate: run before pushing. Covers the repo's
# compiler-free and compiler-cheap checks:
#
#   1. clang-format --dry-run over the C++ file set (advisory: prints
#      drift as warnings; formatting is style, not correctness).
#   2. Static analysis (tools/analyze.py = layering lint + the PrivShape
#      Analyzer): self-test, then the whole src/ tree (fatal), whatever
#      the file set below.
#   3. clang-tidy over the changed .cc files under src/ (fatal), using
#      a compile database configured on demand.
#
# Usage:
#   tools/check.sh              # changed files vs the merge base
#   tools/check.sh --all        # whole tree (what the CI lint job runs)
#   tools/check.sh --base REF   # changed files vs REF
#
# Tools that are not installed are reported as SKIPPED rather than
# failing, so the gate is useful on minimal machines; the CI lint job
# installs everything, so nothing is skipped there.
set -euo pipefail

cd "$(dirname "$0")/.."

mode=changed
base=""
for arg in "$@"; do
  case "$arg" in
    --all) mode=all ;;
    --base) base=__next__ ;;
    *)
      if [ "$base" = "__next__" ]; then base="$arg"; else
        echo "usage: tools/check.sh [--all] [--base REF]" >&2
        exit 2
      fi
      ;;
  esac
done
if [ "$base" = "__next__" ]; then
  echo "error: --base requires an argument" >&2
  exit 2
fi

# --- File set -------------------------------------------------------------
cxx_files=()
if [ "$mode" = "all" ]; then
  while IFS= read -r f; do
    cxx_files+=("$f")
  done < <(git ls-files 'src/*.cc' 'src/*.h' 'tests/*.cc' 'fuzz/*.cc' \
                        'bench/*.cc' 'examples/*.cpp')
else
  if [ -z "$base" ]; then
    base=$(git merge-base HEAD origin/main 2>/dev/null ||
           git rev-parse 'HEAD~1' 2>/dev/null || echo HEAD)
  fi
  while IFS= read -r f; do
    case "$f" in
      src/*.cc | src/*.h | tests/*.cc | fuzz/*.cc | bench/*.cc | \
          examples/*.cpp)
        [ -f "$f" ] && cxx_files+=("$f")
        ;;
    esac
  done < <(git diff --name-only --diff-filter=d "$base" -- .)
fi

failed=0
note() { printf '== %s\n' "$*"; }

# --- 1. clang-format (advisory) ------------------------------------------
if command -v clang-format >/dev/null 2>&1; then
  if [ "${#cxx_files[@]}" -eq 0 ]; then
    note "clang-format: no C++ files in the change set"
  elif clang-format --dry-run "${cxx_files[@]}" 2>&1 | grep -q .; then
    note "clang-format: drift found (advisory, not fatal):"
    clang-format --dry-run "${cxx_files[@]}" 2>&1 |
      grep -E '^[^ ]+:[0-9]+:' | cut -d: -f1 | sort -u | sed 's/^/   /'
  else
    note "clang-format: clean (${#cxx_files[@]} files)"
  fi
else
  note "clang-format: SKIPPED (not installed)"
fi

# --- 2. Static analysis: layering + PrivShape Analyzer (fatal) ------------
if command -v python3 >/dev/null 2>&1; then
  if python3 tools/analyze.py --self-test >/dev/null &&
      python3 tools/analyze.py --root .; then
    :
  else
    note "static analysis: FAILED"
    failed=1
  fi
else
  note "static analysis: SKIPPED (python3 not installed)"
fi

# --- 3. clang-tidy on changed src/ sources (fatal) ------------------------
tidy_files=()
for f in "${cxx_files[@]}"; do
  case "$f" in src/*.cc) tidy_files+=("$f") ;; esac
done
if ! command -v clang-tidy >/dev/null 2>&1; then
  note "clang-tidy: SKIPPED (not installed)"
elif [ "${#tidy_files[@]}" -eq 0 ]; then
  note "clang-tidy: no src/ sources in the change set"
else
  # clang-tidy needs a compile database; configure a dedicated dir so
  # the developer's main build settings are left alone. Tests, bench,
  # examples, and fuzzers are off — the database only has to cover src/.
  db=build-tidy
  if [ ! -f "$db/compile_commands.json" ]; then
    note "clang-tidy: configuring $db for compile_commands.json"
    cmake -B "$db" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
      -DPRIVSHAPE_BUILD_TESTS=OFF -DPRIVSHAPE_BUILD_BENCH=OFF \
      -DPRIVSHAPE_BUILD_EXAMPLES=OFF -DPRIVSHAPE_BUILD_FUZZERS=OFF \
      >/dev/null
  fi
  note "clang-tidy: ${#tidy_files[@]} files"
  if printf '%s\n' "${tidy_files[@]}" |
      xargs -P "$(nproc)" -n 4 clang-tidy -p "$db" --quiet \
        --warnings-as-errors='*'; then
    note "clang-tidy: clean"
  else
    note "clang-tidy: FAILED"
    failed=1
  fi
fi

if [ "$failed" -ne 0 ]; then
  note "check.sh: FAILED"
  exit 1
fi
note "check.sh: OK"
