"""Check that the benchmark's outputs are byte-identical to its baseline.

Reads the stdout of ``perfbench/run.py`` and compares every line
``digest <workload> seed <seed> sha256 <hex>`` with
``digests[<workload>][<seed>]`` in ``perfbench/BASELINE.json``::

    python3 perfbench/run.py --workload all --seed 0 --seconds 1 > run.txt
    python3 .github/check_digests.py run.txt

Exits 1 when a digest differs from the baseline or has none, or when a
workload of the baseline printed no digest at all.
"""

import json
import re
import sys
from pathlib import Path

BASELINE = Path(__file__).resolve().parent.parent / "perfbench" / "BASELINE.json"
DIGEST = re.compile(r"digest (\S+) seed (\d+) sha256 ([0-9a-f]{64})")


def main(path: str) -> int:
    baseline = json.loads(BASELINE.read_text())["digests"]
    seen = set()
    faults = []
    for line in Path(path).read_text().splitlines():
        match = DIGEST.fullmatch(line)
        if not match:
            continue
        name, seed, digest = match.groups()
        seen.add(name)
        expected = baseline.get(name, {}).get(seed)
        if digest != expected:
            faults.append(f"{name} seed {seed}: {digest}, baseline {expected}")
    faults += [f"{name}: no digest printed" for name in sorted(set(baseline) - seen)]
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(seen)} workload digests checked, {len(faults)} faults")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
