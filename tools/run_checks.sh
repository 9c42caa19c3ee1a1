#!/bin/sh
# Unified pre-merge gate: chain every static and dynamic check the
# repo ships, in cheapest-first order, and stop at the first failure.
#
#   1. check     soc_lint on the clean reference case and both paper
#                presets (composition contract BTH0xx, then the
#                elaborated graph's wake/sleep contract BTH1xx)
#   2. tidy      tools/run_tidy.sh --diff (new clang-tidy warnings in
#                changed files only; skips when LLVM is absent)
#   3. fixtures  every tools/testdata file a ctest names in
#                tools/CMakeLists.txt is tracked by git, so a clean
#                checkout has it (a broad .gitignore rule once kept a
#                fixture out of the repo)
#   4. sanitize  ASan+UBSan smoke in the sanitize preset's build tree
#                when it exists (configure with `cmake --preset
#                sanitize` to opt in; skipped otherwise): the kernel,
#                host-profiler, runtime-server and checker suites (the
#                checker runs in every AcceleratorSoc constructor) plus
#                a tick-vs-event soc_fuzz differential
#
# Usage: tools/run_checks.sh [BUILD_DIR]
#   BUILD_DIR  build tree holding the tools (default: build)
set -eu

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
tools_dir="$build_dir/tools"
testdata="$repo_root/tools/testdata"

fail() {
    echo "run_checks: FAILED at stage '$1'" >&2
    exit 1
}

echo "== run_checks: 1/4 check =="
"$tools_dir/soc_lint" "$testdata/lint_clean.json" || fail check
"$tools_dir/soc_lint" --preset=fig4 || fail check
"$tools_dir/soc_lint" --preset=fig6 || fail check

echo "== run_checks: 2/4 tidy (diff) =="
"$repo_root/tools/run_tidy.sh" --diff "$build_dir" || fail tidy

echo "== run_checks: 3/4 fixtures (tracked by git) =="
if git -C "$repo_root" rev-parse --is-inside-work-tree >/dev/null 2>&1
then
    tracked=$(git -C "$repo_root" ls-files tools/testdata)
    missing=0
    # no_such_file.json is absent on purpose (the missing-file tests).
    for f in $(grep -o '\${TESTDATA}/[A-Za-z0-9_.-]*' \
                   "$repo_root/tools/CMakeLists.txt" |
               sed 's|^\${TESTDATA}/||' | sort -u); do
        [ "$f" = no_such_file.json ] && continue
        if ! printf '%s\n' "$tracked" | grep -qx "tools/testdata/$f"
        then
            echo "run_checks: tools/testdata/$f is named by a ctest" \
                 "but not tracked by git" >&2
            missing=1
        fi
    done
    [ "$missing" -eq 0 ] || fail fixtures
else
    echo "run_checks: $repo_root is not a git work tree;" \
         "skipping the fixture check"
fi

echo "== run_checks: 4/4 sanitize (ASan+UBSan smoke) =="
san_dir="$repo_root/build-sanitize"
if [ -f "$san_dir/CTestTestfile.cmake" ]; then
    (cd "$san_dir" &&
        ctest -R 'EventKernel|WakeWheel|Simulator|CrossKernel|HostProfiler|RuntimeServer|Lint|GraphRules|SocAnalysis' \
        --output-on-failure -j "$(nproc)") || fail sanitize
    "$san_dir/tools/soc_fuzz" --differential --seed=1 --iterations=3 ||
        fail sanitize
else
    echo "run_checks: $san_dir not configured; skipping sanitize smoke" \
         "(run 'cmake --preset sanitize && cmake --build --preset" \
         "sanitize')"
fi

echo "run_checks: all stages passed"
