"""Regenerate tests/golden/grid.json from the current code.

    python tests/golden/regen.py

Run it only for a change that means to move results, and say in the change
what moved; for any other change the golden test is the proof that nothing
did.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests.test_golden import GOLDEN_PATH, build_info, compute_outputs  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        outputs = compute_outputs(Path(work))
    GOLDEN_PATH.write_text(json.dumps({"made_with": build_info(), "outputs": outputs},
                                      indent=1) + "\n")
    cells = sum(len(out["records"]) for name, out in outputs.items() if name != "estimate")
    print(f"wrote {GOLDEN_PATH.relative_to(ROOT)}: {cells} records, "
          f"{len(outputs['estimate'])} estimates")
    return 0


if __name__ == "__main__":
    sys.exit(main())
