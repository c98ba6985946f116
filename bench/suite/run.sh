#!/bin/sh
# Builds the benchmark and the serve daemon from the checkout this script
# sits in, then runs the benchmark with the given arguments, e.g.
#
#   sh bench/suite/run.sh --workload plan-cold --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's result. The dune cache is off: the build reads and writes
# only inside the checkout.
set -eu
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ] || [ ! -d data ]; then
  echo "run.sh: $(pwd) holds no msoc sources (dune-project, lib/, bin/, data/)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . bench/suite/msoc_bench.exe bin/msoc_plan.exe 1>&2
exec ./_build/default/bench/suite/msoc_bench.exe "$@"
