#!/bin/sh
# check.sh — the repo's verification gate, under its other name: every step
# lives in the Makefile's `check` target, which is also what CI runs.
set -eu

cd "$(dirname "$0")/.."
exec make check
