#!/usr/bin/env bash
# The ledger's one command. Builds `hoga-bench` (release, offline, against
# the stand-in crates under ledger/stubs) and hands it the arguments:
#
#   bash ledger/run.sh                      every workload, untraced: the end-to-end table
#   bash ledger/run.sh trace                every workload, traced: the per-layer table
#   bash ledger/run.sh run --seeds 10 --out A.json --twin B.json   two interleaved ten-seed sets
#   bash ledger/run.sh diff A.json B.json   compare two run sets
#   bash ledger/run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# `target` is the one build-directory name the repository's analyzer skips.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-ledger/target}"
# Build chatter goes to stderr; stdout belongs to the result.
cargo build --release --offline --locked --quiet --manifest-path ledger/Cargo.toml 1>&2
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec "$CARGO_TARGET_DIR/release/hoga-bench" "$@"
