"""End-to-end benchmark of the SplitBeam reproduction, with a traced run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig12-serial --seed 0 --seconds 20 --trace 0

Workloads (``perfbench/workloads.py``; every store is a fresh directory
under ``.perfbench/tmp`` in the checkout):

- ``fig12-serial``: cold ``fig12-ber`` (8 points, 4 trainings) on one
  worker;
- ``campaign-cold``: ``network-scale`` (200 STAs x 20 rounds) on two
  workers, ladders preloaded into the checkpoint store during set-up,
  result cache empty.  Each run is followed by an untimed warm replay
  from its cache, which must execute nothing and give the same bytes.

``--trace 0`` repeats the workload for ``--seconds`` (at least once)
and prints the end-to-end metrics: times as medians over the
repetitions, peak memory of the first.
``--trace 1`` runs it once untraced (the reference), once traced with
the layer wrappers of ``perfbench/layers.py`` and once more, traced, at
the other worker count, and prints the per-layer metrics.  The last
stdout line is the JSON result; the line before it is the record (host
fingerprint, seeds, set-up detail, checks, layer table).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: Import-only interpreter launches per run (setup_s takes the median).
IMPORT_RUNS = 3


def _units(kind: str) -> dict:
    """``{metric: unit}`` for ``end_to_end`` or ``per_layer``, as declared."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    # Internal: run only the workload set-up, in a fresh interpreter.
    parser.add_argument("--setup-root", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


class Tally:
    """Operations attempted / failed across every run of one invocation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failed_checks: "list[str]" = []

    def add(self, label: str, out: dict, checks: "dict[str, bool]") -> None:
        self.attempted += out["items"] + out["retries"] + len(checks)
        self.failed += out["retries"] + out["task_failures"]
        for name, ok in checks.items():
            if not ok:
                self.failed += 1
                self.failed_checks.append(f"{label}:{name}")


def _setup(workload, args, size, run_root: Path) -> dict:
    """Set-up cost: median fresh-interpreter import + the workload's prep."""
    import host
    from workloads import prepare

    imports = host.import_times(SRC, IMPORT_RUNS, importtime=bool(args.trace))
    if workload.kind == "campaign":
        # A fresh interpreter, so the set-up's heap, pools and memos
        # never reach the measured process (peak_rss_mb, cpu_s).
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload.name,
                "--seed", str(args.seed),
                "--size", args.size,
                "--setup-root", str(run_root),
            ],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
        )
        prep = json.loads(proc.stdout.strip().splitlines()[-1])
    else:
        start = time.perf_counter()
        prep = prepare(workload, args.seed, size, run_root)
        prep["prep_s"] = time.perf_counter() - start
    prep["setup_s"] = statistics.median(imports["wall_s"]) + prep["prep_s"]
    prep["import"] = imports
    return prep


def _measure(workload, args, size, run_root, tag, n_workers, traced=False):
    """One timed call into the entry point; returns its summary."""
    import host
    import layers
    from workloads import entry_call, summarize

    call = entry_call(workload, args.seed, size, run_root, tag, n_workers)
    host.reap_workers()
    meter = host.ResourceMeter().start()
    if traced:
        result, wall = layers.run_traced(call)
    else:
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
    host.reap_workers()
    cpu, rss = meter.stop()
    out = summarize(workload, result)
    out.update(wall_s=wall, cpu_s=cpu, peak_rss_mb=rss)
    if workload.kind == "campaign":
        # Untimed warm replay from the cache this run just filled.
        out["replay"] = summarize(
            workload,
            entry_call(workload, args.seed, size, run_root, tag, n_workers)(),
        )
        host.reap_workers()
    shutil.rmtree(run_root / f"cache-{tag}", ignore_errors=True)
    return out


def _state_key(workload, args, code_version: str) -> str:
    """What fixes the artifact bytes: workload, size, seed and both codes."""
    bench = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        bench.update(path.read_bytes())
    return (
        f"{workload.name}|{args.size}|seed={args.seed}|{code_version}"
        f"|bench={bench.hexdigest()[:16]}"
    )


def _load_state() -> dict:
    path = WORK / "state.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def _save_state(state: dict) -> None:
    path = WORK / "state.json"
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(state, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _traced_metrics(workload, args, size, run_root, tally, expect, reference):
    import layers
    from workloads import check

    (run_root / "spans").mkdir()
    missing = layers.install(str(run_root / "spans"))
    try:
        runs = {}
        for n_workers in (workload.n_workers, workload.compare_workers):
            tag = f"t{n_workers}"
            out = _measure(workload, args, size, run_root, tag, n_workers, traced=True)
            workers = layers.collect()
            out["table"] = layers.layer_table(out["wall_s"], n_workers, workers)
            tally.add(f"traced-{n_workers}w", out, check(workload, size, out, expect))
            runs[n_workers] = out
    finally:
        layers.uninstall()
    main, other = runs[workload.n_workers], runs[workload.compare_workers]
    metrics = dict(main["table"])
    two = runs[2]["table"]
    metrics.update(
        {
            "trace.overhead_s": main["wall_s"] - reference["wall_s"],
            "executor.retries": main["retries"],
            "executor.speedup_vs_serial": runs[1]["wall_s"] / runs[2]["wall_s"],
            "training.fits_2w": two["training.fits"],
            "training.useful_ratio_2w": two["training.useful_ratio"],
        }
    )
    same = main["sha256"] == other["sha256"]
    tally.attempted += 1
    if not same:
        tally.failed += 1
        tally.failed_checks.append("traced:bytes_equal_across_workers")
    detail = {
        "missing_targets": missing,
        "other_workers_wall_s": other["wall_s"],
        "table": main["table"],
    }
    return metrics, detail


def _print_table(table: dict, wall: float) -> None:
    import layers

    rows = list(layers.TABLE) + ["unattributed_s"]
    print(f"# layer table (traced wall {wall:.3f} s)", file=sys.stderr)
    for name in sorted(rows, key=lambda n: -table[n]):
        share = table[name] / wall if wall else 0.0
        print(f"#   {name:<22} {table[name]:9.3f} s  {share:6.1%}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library sources under {SRC}", file=sys.stderr)
        return 2
    tmp_root = WORK / "tmp"
    tmp_root.mkdir(parents=True, exist_ok=True)
    # Keep every scratch file (payload spools included) in the checkout.
    os.environ["TMPDIR"] = str(tmp_root)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from workloads import SIZES, WORKLOADS, check, prepare, seed_map

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = SIZES[args.size]

    if args.setup_root is not None:
        start = time.perf_counter()
        out = prepare(workload, args.seed, size, Path(args.setup_root))
        out["prep_s"] = time.perf_counter() - start
        print(json.dumps(out))
        return 0

    import host

    run_root = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=tmp_root))
    try:
        setup = _setup(workload, args, size, run_root)
        fingerprint = host.fingerprint()
        state = _load_state()
        key = _state_key(workload, args, fingerprint["code_version"])
        expect = {"sha256": state.get(key)}
        tally = Tally()

        reps = []
        start = time.perf_counter()
        while not reps or (
            not args.trace and time.perf_counter() - start < args.seconds
        ):
            out = _measure(
                workload, args, size, run_root, f"u{len(reps)}", workload.n_workers
            )
            tally.add(f"rep{len(reps)}", out, check(workload, size, out, expect))
            if expect["sha256"] is None:
                expect["sha256"] = out["sha256"]
            reps.append(out)

        record = {
            "workload": workload.name,
            "size": args.size,
            "trace": args.trace,
            "seeds": seed_map(args.seed, size),
            "fingerprint": fingerprint,
            "setup": setup,
            "reps": [
                {k: r[k] for k in ("wall_s", "cpu_s", "peak_rss_mb", "sha256")}
                for r in reps
            ],
        }
        if args.trace:
            values, detail = _traced_metrics(
                workload, args, size, run_root, tally, expect, reps[0]
            )
            values["import.total_s"] = setup["import"]["total_s"]
            values["import.scipy_s"] = setup["import"]["scipy_s"]
            record["trace_detail"] = detail
            _print_table(detail["table"], detail["table"]["trace.wall_s"])
            units = _units("per_layer")
        else:
            bers = reps[0]["bers"]
            values = {
                key: statistics.median(r[key] for r in reps)
                for key in ("wall_s", "cpu_s")
            }
            values.update(
                setup_s=setup["setup_s"],
                # The process keeps heap (and its high-water mark) from
                # one repetition to the next: only the first is a fresh
                # run's footprint.
                peak_rss_mb=reps[0]["peak_rss_mb"],
                items_per_s=statistics.median(r["items"] / r["wall_s"] for r in reps),
                ber_mean=sum(bers) / len(bers),
                ok_frac=1.0 - tally.failed / tally.attempted,
            )
            units = _units("end_to_end")
        if not tally.failed and key not in state:
            state[key] = reps[0]["sha256"]
            _save_state(state)
        record["failed_checks"] = tally.failed_checks
        print(json.dumps({"record": record}, sort_keys=True, default=str))
        result = {
            "correct": not tally.failed_checks,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_root, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
