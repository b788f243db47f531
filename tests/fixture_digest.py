"""Print a digest of every reference run, so two trees compare bitwise.

    PYTHONPATH=src python tests/fixture_digest.py [SCENARIO ...]

For each manifest tests/scenarios/<SCENARIO>.txt (all of them when none is
named), run exactly as its session fixture runs it, one line gives the name,
the record count, the sha256 over the record_to_json lines of its records
and the sha256 of the final vertex bytes.  A change that claims to leave every
trajectory bitwise the same prints the same lines as its parent:

    diff <(cd parent && PYTHONPATH=src python tests/fixture_digest.py) \\
         <(cd change && PYTHONPATH=src python tests/fixture_digest.py)
"""

import hashlib
import sys

from conftest import scenario, scenario_names
from curvediffusion.flow import record_to_json


def digest(name):
    """The record count and the two sha256 digests of scenario name."""
    result = scenario(name).result
    records = hashlib.sha256()
    for record in result.records:
        records.update((record_to_json(record) + "\n").encode("utf-8"))
    vertices = hashlib.sha256(result.final_state.curve.vertices.tobytes())
    return len(result.records), records.hexdigest(), vertices.hexdigest()


def main(argv):
    names = scenario_names()
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"usage: fixture_digest.py [SCENARIO...]; scenarios: "
              f"{', '.join(names)}; unknown: {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    for name in argv or names:
        count, records, vertices = digest(name)
        print(f"{name} records={count} records_sha256={records} "
              f"vertices_sha256={vertices}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
