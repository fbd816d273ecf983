#!/bin/sh
# tfr_mcheck --replay: a saved counterexample replays against the one
# check it was saved from (exit 0); with no check or with two checks
# selected the CLI prints usage and exits 2.
#
#   usage: mcheck_replay_cli_test.sh TFR_MCHECK RUN_FILE
set -u
mcheck=$1
run=$2

"$mcheck" --fischer-rt --save "$run" > /dev/null || exit 1
"$mcheck" --fischer-rt --replay "$run" || exit 1

"$mcheck" --replay "$run"
status=$?
[ "$status" -eq 2 ] || { echo "no check selected: exit $status, want 2"; exit 1; }

"$mcheck" --fischer --consensus --replay "$run"
status=$?
[ "$status" -eq 2 ] || { echo "two checks selected: exit $status, want 2"; exit 1; }
