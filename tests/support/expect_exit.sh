#!/bin/sh
# usage: expect_exit.sh CODE PATTERN COMMAND [ARGS...]
# Passes when COMMAND exits with status CODE and its stderr matches the
# grep pattern PATTERN (a usage error must be a diagnosed exit, never a
# crash or a silent run on defaults).
code=$1
pattern=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
rc=$?
printf '%s\n' "$err"
if [ "$rc" -ne "$code" ]; then
  echo "expect_exit: exit status $rc, expected $code"
  exit 1
fi
if ! printf '%s\n' "$err" | grep -q -- "$pattern"; then
  echo "expect_exit: stderr does not match '$pattern'"
  exit 1
fi
