"""The command-line pipeline end to end: gen, solve, check.

Everything the library does is reachable from the `nukc` entry point with
JSON files as the interchange format, so a full experiment fits in a shell
script.  This demo drives the same main() in process and shows the files it
leaves behind.

Run:  python3 demos/cli_walkthrough.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path


def nukc(*argv: str) -> str:
    """Run the CLI as a subprocess and echo the invocation like a shell."""
    print(f"$ nukc {' '.join(argv)}")
    proc = subprocess.run([sys.executable, "-m", "nukc.cli", *argv],
                          capture_output=True, text=True)
    out = proc.stdout.rstrip("\n")
    if out:
        print(out)
    if proc.returncode != 0:
        print(f"  (exit {proc.returncode})")
    print()
    return proc.stdout


with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    inst = work / "instance.json"
    sol = work / "solution.json"

    # 1. Generate a planted instance: clustered points plus outliers, with
    #    budgets and target chosen so the clusters are the answer.
    nukc("gen", "planted", "--seed", "7", "--clusters", "3",
         "--points-per-cluster", "5", "--outliers", "2", "-o", str(inst))
    data = json.loads(inst.read_text())
    print(f"instance.json: n={len(data['points'])}, r1={data['r1']}, "
          f"r2={data['r2']}, k1={data['k1']}, k2={data['k2']}, m={data['m']}\n")

    # 2. Solve it.  The record carries the verdict, the centers, and the
    #    dilation the checker should use.
    nukc("solve", str(inst), "-o", str(sol))
    record = json.loads(sol.read_text())
    print(f"solution.json: {json.dumps(record)}\n")

    # 3. Check the solution file against the instance it came from.  The
    #    checker recomputes coverage from scratch; exit 0 means valid.
    nukc("check", str(inst), str(sol))

    # A tampered radius makes the same centers invalid and flips the exit
    # code to 2, which is also what solve uses for INFEASIBLE verdicts.
    bad = work / "tampered.json"
    record["dilation"] = 0.01
    bad.write_text(json.dumps(record))
    nukc("check", str(inst), str(bad))

    # 4. Shrink the radii until the verdict flips.  --rho scales both radii
    #    before solving while the report stays in original units, and
    #    --optimize searches for the smallest scale that is not refuted.
    nukc("solve", str(inst), "--rho", "0.05")
    nukc("solve", str(inst), "--optimize")

print("workspace cleaned up; every artifact above was plain JSON")
