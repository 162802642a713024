#!/usr/bin/env python3
"""Regenerate ``tests/golden/`` and report how far the numbers moved.

A change to the order or the kernel of a floating-point reduction moves the
last bits of the golden runs, and ``test_spec_golden.py::TestGoldenBitwise``
compares bytes.  This script re-runs every golden spec exactly as that test
does (same CLI, same overrides), and then::

    python tests/regenerate_golden.py            # rewrite records + hashes
    python tests/regenerate_golden.py --check    # write nothing; exit 1 on any difference
    python tests/regenerate_golden.py --force    # rewrite whatever the deviation

Per spec it prints the largest relative deviation of any recorded number
from the file it replaces and how many checkpoint hashes changed.  Without
``--force`` nothing is written when a deviation exceeds ``TOLERANCE`` (or a
record changed shape): that is a change of results, not of rounding.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from test_spec_golden import GOLDEN, GOLDEN_DIR, run_golden  # noqa: E402

#: Largest relative deviation accepted as rounding.
TOLERANCE = 1e-12


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def deviation(old, new) -> float:
    """Largest relative deviation between the numbers of two JSON values;
    ``inf`` when anything but a finite number differs."""
    if is_number(old) and is_number(new):
        if old == new:
            return 0.0
        finite = old and math.isfinite(old) and math.isfinite(new)
        return abs(new - old) / abs(old) if finite else math.inf
    if type(old) is not type(new):
        return math.inf
    if isinstance(old, dict) and old.keys() == new.keys():
        return max((deviation(old[key], new[key]) for key in old), default=0.0)
    if isinstance(old, list) and len(old) == len(new):
        return max(map(deviation, old, new), default=0.0)
    return 0.0 if old == new else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true",
                      help="write nothing; exit 1 if any record or hash differs")
    mode.add_argument("--force", action="store_true",
                      help=f"rewrite even when a deviation exceeds {TOLERANCE:g}")
    args = parser.parse_args(argv)

    manifest_path = GOLDEN_DIR / "checkpoint_hashes.json"
    manifest = json.loads(manifest_path.read_text())
    fresh, worst, differs = {}, 0.0, False
    for key, entry in GOLDEN.items():
        with tempfile.TemporaryDirectory(prefix=f"golden-{key}-") as workdir:
            records, digests = run_golden(Path(workdir), entry)
        old_records = (GOLDEN_DIR / f"{key}_records.jsonl").read_text()
        moved = deviation(
            [json.loads(line) for line in old_records.splitlines()],
            [json.loads(line) for line in records.splitlines()],
        )
        changed = sum(digests[name] != entry["checkpoints"][name] for name in digests)
        print(
            f"{key}: {len(records.splitlines())} records, "
            f"{'bitwise identical' if records == old_records else f'max relative deviation {moved:.2e}'}; "
            f"{changed} of {len(digests)} checkpoint hashes changed"
        )
        fresh[key] = (records, digests)
        worst = max(worst, moved)
        differs = differs or records != old_records or changed > 0

    if args.check:
        print("golden files are " + ("STALE" if differs else "up to date"))
        return 1 if differs else 0
    if worst > TOLERANCE and not args.force:
        print(f"refusing to write: deviation {worst:.2e} exceeds {TOLERANCE:g} (--force overrides)")
        return 2
    for key, (records, digests) in fresh.items():
        (GOLDEN_DIR / f"{key}_records.jsonl").write_text(records)
        manifest[key]["checkpoints"] = digests
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(fresh)} record files and {manifest_path.name}" if differs else "nothing to write")
    return 0


if __name__ == "__main__":
    sys.exit(main())
