"""Smoke test of the benchmark at tiny size (about two minutes).

    python3 perfbench/smoke.py

Checks, for every workload, that each metric ``BENCHMARK.json`` names
is emitted with its unit, that the traced layer table adds up to the
traced wall time, and that a corrupted artifact counts as a failure.
Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT,
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_emitted(workload: str) -> None:
    import layers

    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
        assert result["correct"] and result["failed"] == 0, (workload, result)
        declared = {m["name"]: m["unit"] for m in SPEC[kind]}
        emitted = result["metrics"]
        assert set(emitted) == set(declared), (workload, kind, set(emitted) ^ set(declared))
        for name, unit in declared.items():
            assert emitted[name]["unit"] == unit, (workload, name)
            assert math.isfinite(emitted[name]["value"]), (workload, name)
        if trace:
            value = {name: emitted[name]["value"] for name in emitted}
            parts = sum(value[name] for name in layers.TABLE) + value["unattributed_s"]
            assert math.isclose(parts, value["trace.wall_s"], rel_tol=1e-9), (
                workload, parts, value["trace.wall_s"]
            )
        print(f"ok  {workload} trace={trace}: {len(emitted)} metrics")


def check_corruption_counts() -> None:
    """Tamper with a real artifact; the checks must flag it."""
    from run import Tally
    from workloads import SIZES, WORKLOADS, check, entry_call, summarize

    workload, size = WORKLOADS["fig12-serial"], SIZES["tiny"]
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench" / "tmp") as root:
        result = entry_call(workload, 3, size, Path(root), "smoke", 1)()
    clean = summarize(workload, result)
    tally = Tally()
    tally.add("clean", clean, check(workload, size, clean, {"sha256": clean["sha256"]}))
    assert tally.failed == 0, tally.failed_checks

    result.points[0]["result"]["ber"] = float("nan")
    corrupt = summarize(workload, result)
    tally.add("corrupt", corrupt, check(workload, size, corrupt, {"sha256": clean["sha256"]}))
    assert set(tally.failed_checks) == {
        "corrupt:ber_finite_in_range",
        "corrupt:bytes_equal_earlier_runs",
    }, tally.failed_checks
    print(f"ok  corrupted artifact: failed {tally.failed} of {tally.attempted}")


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    (ROOT / ".perfbench" / "tmp").mkdir(parents=True, exist_ok=True)
    for workload in (w["name"] for w in SPEC["workloads"]):
        check_emitted(workload)
    check_corruption_counts()
    return 0


if __name__ == "__main__":
    sys.exit(main())
