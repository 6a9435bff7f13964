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

# each certificates.json is strict JSON (a NaN or an Infinity is an error),
# and every record reads back as a certificate
python - "$out"/*/certificates.json <<'PY'
import json
import sys

from prodhls import HedbergCertificate


def reject(constant):
    raise ValueError(f"{constant} is not JSON")


for path in sys.argv[1:]:
    with open(path) as fh:
        document = json.load(fh, parse_constant=reject)
    for instance in document["instances"]:
        for record in instance["certificates"]:
            HedbergCertificate.from_json_dict(record)
PY

# demos/expected/<name>.txt is the stdout of demos/<name>.py
for demo in demos/*.py; do
  python "$demo" | cmp - "demos/expected/$(basename "$demo" .py).txt"
done
