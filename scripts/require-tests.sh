#!/bin/sh
# Usage: sh scripts/require-tests.sh PKG NAME...
#
# Fails unless package PKG has a test, benchmark or fuzz target named
# exactly NAME, for every NAME. The stages of scripts/verify.sh and the
# CI workflow that run a set of tests by -run pattern call it first: a
# pattern still matches when one of its tests is renamed or deleted, so
# without the exact names a test could drop out of its stage silently.
set -eu
pkg=$1
shift
for name in "$@"; do
	if ! go test -list "^$name\$" "$pkg" | grep -qx "$name"; then
		echo "no $name test in $pkg" >&2
		exit 1
	fi
done
