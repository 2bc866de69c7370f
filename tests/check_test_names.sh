#!/usr/bin/env bash
# Fail when a gtest binary's test names are not stable.
#
# Usage: tests/check_test_names.sh <dir holding the test_* binaries>
#
# ctest names parameterized tests after what gtest prints for the
# parameter, so a name must come out the same in every process and
# every build. Two ways it does not:
#  - the printed value differs between processes (a pointer, which
#    ASLR moves): caught by listing each binary twice and diffing;
#  - gtest falls back to a raw "N-byte object <..>" dump for a type
#    with no PrintTo, which includes any uninitialized padding and so
#    differs between builds: caught by rejecting every such dump.
set -u

dir=${1:?usage: $0 <test binary dir>}
status=0
count=0
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for bin in "$dir"/test_*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    count=$((count + 1))
    if ! "$bin" --gtest_list_tests > "$tmp/a" 2>&1 ||
       ! "$bin" --gtest_list_tests > "$tmp/b" 2>&1; then
        echo "$name: --gtest_list_tests failed" >&2
        status=1
        continue
    fi
    if ! diff -u "$tmp/a" "$tmp/b" > "$tmp/diff"; then
        echo "$name: test names differ between two processes:" >&2
        cat "$tmp/diff" >&2
        status=1
    fi
    if grep -E '[0-9]+-byte object <' "$tmp/a" > "$tmp/raw"; then
        echo "$name: parameters printed as raw bytes (give the" \
             "parameter type a PrintTo):" >&2
        cat "$tmp/raw" >&2
        status=1
    fi
done

if [ "$count" -eq 0 ]; then
    echo "no test_* binaries in $dir" >&2
    exit 1
fi
[ "$status" -eq 0 ] && echo "test names stable across $count binaries"
exit "$status"
