#!/bin/sh
# Regenerate the paper's table and figure files from one build of `figures`:
#
#   results/figures.sh [--paper] [DIR]
#
# Without --paper: fig4.txt, table1.txt, fig{5,6,7}_n32.txt and sweep_n32.txt
# (reduced inputs, 32 nodes), the set CI gates with results/figures_gate.py.
# With --paper: fig{5,6,7}_paper.txt (Table 1's data sets). DIR defaults to
# results/. Each file's first line names the commit (`-dirty` when the
# source outside results/ differs from it) and the exact command.
set -eu
cd "$(dirname "$0")/.."
paper=
if [ "${1:-}" = --paper ]; then paper=1; shift; fi
dir=${1:-results}
mkdir -p "$dir"
cargo build --release -q -p prescient-bench --bin figures
rev=$(git rev-parse --short HEAD 2>/dev/null) || rev=unknown
git diff --quiet HEAD -- . ':!results' 2>/dev/null || rev="$rev-dirty"
bin=${CARGO_TARGET_DIR:-target}/release/figures

# run FILE ARGS...: `figures ARGS` into DIR/FILE, under its header line.
run() {
  file=$1; shift
  { echo "# $rev: figures $*"; "$bin" "$@"; } > "$dir/$file"
}

if [ -n "$paper" ]; then
  for f in 5 6 7; do run "fig${f}_paper.txt" "fig$f" --paper; done
else
  run fig4.txt fig4
  run table1.txt table1 --nodes 32
  for f in 5 6 7; do run "fig${f}_n32.txt" "fig$f" --nodes 32; done
  run sweep_n32.txt sweep --nodes 32
fi
