"""Regenerate tests/golden/grid.json from the current code.

    python tests/golden/regen.py

Run it only for a change that means to move results, and say in the change
what moved; for any other change the golden test is the proof that nothing
did. Before it overwrites the file it prints every field that moved against
the committed file: record fields and summary columns by the estimator of
their row, and `labelshift estimate` fields by estimator, each with the
number of values that changed and the largest absolute change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden import GOLDEN_PATH, build_info, compute_outputs  # noqa: E402


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _walk(field: str, position: tuple, value):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _walk(f"{field}.{key}", position, item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _walk(field, position + (i,), item)
    else:
        yield (field, position), value


def leaves(outputs: dict) -> dict:
    """Every leaf value by (field, position). A field names a record field or
    summary column with its row's estimator ("-" for none), or an estimate
    field with its estimator; the position tells its rows apart."""
    found = {}
    for name, out in outputs.items():
        if name == "estimate":
            for key, estimate in out.items():
                found.update(_walk(f"estimate[{key.split('/')[1]}]", (key,), estimate))
            continue
        for i, record in enumerate(out["records"]):
            found.update(_walk(f"records[{record.get('estimator') or '-'}]", (name, i), record))
        header, *lines = out["summary"]
        for i, line in enumerate(lines):
            row = {col: _number(text) for col, text in zip(header.split(","), line.split(","))}
            found.update(_walk(f"summary[{row['estimator'] or '-'}]", (name, i), row))
    return found


def changed_fields(golden: dict, actual: dict) -> dict:
    """field -> (values changed, max |delta| or None when a changed value is
    not a number or is present on one side only)."""
    old, new = leaves(golden), leaves(actual)
    changed: dict = {}
    for key in old.keys() | new.keys():
        a, b = old.get(key), new.get(key)
        if key in old and key in new and repr(a) == repr(b):
            continue
        count, delta = changed.get(key[0], (0, 0.0))
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
        if key in old and key in new and numeric and delta is not None:
            delta = max(delta, abs(b - a))
        else:
            delta = None
        changed[key[0]] = (count + 1, delta)
    return changed


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        outputs = compute_outputs(Path(work))
    if GOLDEN_PATH.exists():
        changed = changed_fields(json.loads(GOLDEN_PATH.read_text())["outputs"], outputs)
        if changed:
            print(f"{'field':<44} {'changed':>7}  max |delta|")
            for field, (count, delta) in sorted(changed.items()):
                print(f"{field:<44} {count:>7}  {'-' if delta is None else f'{delta:.2e}'}")
        else:
            print("no field changed")
    GOLDEN_PATH.write_text(json.dumps({"made_with": build_info(), "outputs": outputs},
                                      indent=1) + "\n")
    cells = sum(len(out["records"]) for name, out in outputs.items() if name != "estimate")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}: {cells} records, "
          f"{len(outputs['estimate'])} estimates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
