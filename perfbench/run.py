"""Run one workload of the nukc benchmark and print its result as JSON.

    python3 perfbench/run.py --workload default_config --seed 1 --seconds 50 --trace 0

Run from the repository root.  The last line of standard output is the result
object; the line before it carries the ungated detail (verdict mix, failures,
line count).  The solver is imported from ``src/`` of the same checkout.
"""

import os
import sys
from pathlib import Path

# One BLAS thread: the benchmark runs on a small shared machine, and threads
# racing for its cores make timings wander.  Must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "nukc" / "__init__.py").is_file():
        sys.exit(f"nukc sources not found under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from bench import main

    sys.exit(main())
