#!/usr/bin/env bash
# Check that the installed prodhls console script prints the committed
# output on the four reference configs, and that each demo does too.
#
# Usage: configs/check_expected.sh <dir>
#
# The runs write under <dir>: <dir>/<run> holds the output files of each
# reference config (pointwise, necessity-balanced, necessity-unbalanced,
# normcheck) and <dir>/<name>.txt its stdout, so later checks can read them.
set -euo pipefail
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."

# configs/expected/<name>.txt is the stdout of the run on configs/<name>.json
prodhls pointwise --config configs/pointwise.json --out "$out/pointwise" > "$out/pointwise.txt"
prodhls necessity --config configs/necessity_balanced.json --out "$out/necessity-balanced" > "$out/necessity_balanced.txt"
prodhls necessity --config configs/necessity_unbalanced.json --out "$out/necessity-unbalanced" > "$out/necessity_unbalanced.txt"
prodhls normcheck --config configs/normcheck.json --out "$out/normcheck" > "$out/normcheck.txt"
for name in pointwise necessity_balanced necessity_unbalanced normcheck; do
  cmp "$out/$name.txt" "configs/expected/$name.txt"
done

# demos/expected/<name>.txt is the stdout of demos/<name>.py
for demo in demos/*.py; do
  python "$demo" | cmp - "demos/expected/$(basename "$demo" .py).txt"
done
