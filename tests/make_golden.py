"""Rewrite the named blocks of tests/golden_records.json.

    PYTHONPATH=src python tests/make_golden.py SCENARIO [SCENARIO ...]

Each SCENARIO names a manifest tests/scenarios/<SCENARIO>.txt; it is run
exactly as its session fixture runs it, and its block is replaced by t, L,
A, kosc and ks2 at the record indices the block already has (10, 100 and
1000 for a new block).  Every other block is written back as it was read,
so its bytes do not change, and the tolerances in test_golden.py are not
touched.  The runs are deterministic: a second call rewrites the same bytes.
"""

import json
import sys

from conftest import scenario, scenario_names
from test_golden import FIELDS, GOLDEN

NEW_BLOCK_INDICES = ("10", "100", "1000")


def block(name, indices):
    """Golden records of scenario name at the given record indices."""
    records = scenario(name).result.records
    out = {}
    for index in indices:
        record = records[int(index)]
        out[index] = {"t": record.time}
        out[index].update({key: getattr(record.metrics, attr)
                           for key, attr in FIELDS.items()})
    return out


def main(argv):
    names = scenario_names()
    unknown = [name for name in argv if name not in names]
    if not argv or unknown:
        print(f"usage: make_golden.py SCENARIO...; scenarios: {', '.join(names)}"
              + (f"; unknown: {', '.join(unknown)}" if unknown else ""),
              file=sys.stderr)
        return 2
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name in argv:
        golden[name] = block(name, golden.get(name, NEW_BLOCK_INDICES))
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({name: golden[name] for name in sorted(golden)},
                            indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
