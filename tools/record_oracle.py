"""Regenerate the acceptance suite's record oracle.

    python3 tools/record_oracle.py

runs the experiment runs of ``tests/test_acceptance.py`` (criteria 2, 3,
7, 8 and 9; about three minutes on two cores) with the goalfem of this
checkout's ``src/`` and writes their records, without ``wall_ms``, to
``tests/acceptance_records.json``, which
``test_records_match_the_oracle`` compares every suite run against.  A
change that means to move records regenerates the file and states the
drift (``tools/compare_records.py``) where it is described.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_acceptance

    records = test_acceptance.oracle_records()
    test_acceptance.ORACLE.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {sum(map(len, records.values()))} records of "
          f"{len(records)} runs to {test_acceptance.ORACLE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
