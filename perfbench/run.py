"""End-to-end and per-layer benchmark of the sortweaver CLI.

    python3 perfbench/run.py --workload system|frontend-chains --seed N \\
        --seconds S --trace 0|1

Run from the root of a source checkout.  The seed alone determines every
input (``gen.py``); the program sees only the generated files.  Each pass
runs the workload script once in a fresh interpreter (``worker.py``): a
closed loop with one client, no threads.  A new pass starts while less than
``--seconds`` have passed.  Then, untimed: ``setup_s`` is measured in
fresh interpreters, the outputs are checked (``check.py``, digests against
other passes and against ``golden.json``); with ``--trace 1`` the probes
of known defects run too.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics (``spans.py``)
and the tracing overhead.  A human-readable report comes first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

WHY = {
    "system": "whole-system use as in the paper: mining, name resolution and scans over "
              "every call dominate; the REPL serves many small reads after one load",
    "frontend-chains": "MiniLang front end, then deep closures and long or dense chains: "
                       "the layers no mining technique touches",
}
END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def per_layer_names() -> list[str]:
    """Every metric the traced run reports, in report order."""
    return ([f"{layer}_s" for layer, *_ in spans.LAYERS]
            + ["cli.self_s", "script.self_s"] + list(spans.COUNTS)
            + ["mining.fanin_yield", "trace.spans", "trace.accounted_ratio",
               "trace.total_s", "trace.overhead_s"])


def _child(argv: list[str], cwd: Path | None = None) -> dict:
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-800:]}")
    return json.loads(lines[-1])


def _write(directory: Path, files: dict[str, str]):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def generate(workload: str, seed: int):
    if workload == "system":
        return gen.system_inputs(seed)
    return gen.frontend_chains_inputs(seed, ROOT / "corpus")


def run_pass(work: Path, index: int, files: dict, script: list, trace: bool) -> dict:
    pass_dir = work / f"pass{index}"
    _write(pass_dir, files)
    (pass_dir / "script.json").write_text(json.dumps(script), encoding="utf-8")
    return _child([str(HERE / "worker.py"), "pass", str(pass_dir), "1" if trace else "0"])


def command_times(result: dict) -> dict[str, float]:
    """Scaled seconds per command kind (``query_s``, ``plan_s``, ...), summed."""
    out: dict[str, float] = {}
    for op in result["ops"]:
        key = f"{op['kind']}_s"
        out[key] = out.get(key, 0.0) + op["seconds"]
    return out


def count_ops(passes: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes): one operation per CLI command or REPL line.

    An operation fails on a non-zero exit, an error line, or output whose
    digest differs from the first pass or from the recorded golden digest."""
    reference = passes[0]
    attempted = failed = 0
    notes: list[str] = []
    for n, result in enumerate(passes):
        for i, op in enumerate(result["ops"]):
            lines = len(result["repl"]["latencies_ms"]) if op["kind"] == "repl" else 1
            attempted += lines
            reasons = []
            if op["rc"] != 0:
                reasons.append(f"exit {op['rc']}")
            if op["errors"] and op["kind"] != "repl":
                reasons.append(f"error line {op['errors'][0]!r}")
            if op["digest"] != reference["ops"][i]["digest"]:
                reasons.append("output differs from pass 0")
            if golden and op["digest"] != golden["ops"][i]:
                reasons.append("output differs from golden digest")
            if reasons:
                failed += lines
                notes.append(f"pass {n} op {i} ({op['kind']}): {'; '.join(reasons)}")
            elif op["kind"] == "repl" and result["repl"]["failed_lines"]:
                failed += result["repl"]["failed_lines"]
                notes.append(f"pass {n} repl: {result['repl']['failed_lines']} lines failed: "
                             f"{op['errors'][:1]}")
        expected = golden["files"] if golden else reference["files"]
        differing = sorted(name for name in expected if result["files"].get(name) != expected[name])
        if differing:
            failed += len(differing)
            notes.append(f"pass {n}: written files differ: {', '.join(differing)}")
    return attempted, failed, notes


def run_probes(work: Path) -> list[str]:
    """One report line per probe: exit codes, last stderr line, and for the
    hash-seed probe how many distinct outputs the hash seeds gave."""
    lines = []
    for name, files, argv, hash_seeds in gen.probe_inputs():
        directory = work / "probes" / name
        _write(directory, files)
        codes, outputs, last = [], set(), ""
        for hash_seed in hash_seeds or (None,):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
            if hash_seed is not None:
                env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run([sys.executable, "-m", "sortweaver", *argv], cwd=directory,
                                  env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
            codes.append(proc.returncode)
            outputs.add(proc.stdout)
            last = (proc.stderr.strip().splitlines() or [""])[-1][:120]
        line = f"probe {name}: exit {'/'.join(map(str, codes))}"
        if hash_seeds:
            line += (f", {len(outputs)} distinct outputs under PYTHONHASHSEED "
                     f"{','.join(hash_seeds)}")
        lines.append(line + (f" ({last})" if last else ""))
    return lines


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def _percentile(values: list[float], p: float) -> float:
    """Nearest rank: with 1000 samples, p99 leaves ten samples above it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [ROOT / "src" / "sortweaver" / "cli.py", ROOT / "tests" / "oracles.py",
              ROOT / "corpus" / "command.mini"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: run from a sortweaver checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def run(args, work: Path) -> int:
    files, script = generate(args.workload, args.seed)
    identical = (files, script) == generate(args.workload, args.seed)

    # Timed passes, each in a fresh interpreter, started while less than
    # --seconds have passed.  With --trace 1 untraced and traced passes
    # alternate, so both see the same machine state.
    passes: list[dict] = []
    traced: list[dict] = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(work, len(passes) + len(traced), files, script, False))
        if args.trace:
            traced.append(run_pass(work, len(passes) + len(traced), files, script, True))
    measured_s = time.perf_counter() - started

    # Untimed from here on.
    first = work / "pass0"
    setup = [str(HERE / "worker.py"), "setup", str(first)]
    setup_runs = [_child(setup + ["sizes"])] + [_child(setup) for _ in range(SETUP_REPEATS - 1)]
    sizes = setup_runs[0]["sizes"]
    check = _child([str(HERE / "check.py"), args.workload, str(args.seed), str(work / "check"),
                    str(first)])
    probes = run_probes(work) if args.trace else []
    golden_all = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    golden = golden_all.get(f"{args.workload}/{args.seed}")
    attempted, failed, notes = count_ops(passes + traced, golden)
    attempted += check["attempted"]
    failed += check["failed"]
    notes += check["failures"]
    if not identical:
        notes.append("the same seed generated different inputs")

    metrics: dict[str, tuple[float, str, list[float]]] = {}
    for name, unit, values in (
        ("setup_s", "s", [r["setup_s"] for r in setup_runs]),
        ("setup_wall_s", "s", [r["setup_wall_s"] for r in setup_runs]),
        ("total_s", "s", [p["total_s"] for p in passes]),
        ("total_wall_s", "s", [p["total_wall_s"] for p in passes]),
        ("peak_rss_mb", "MB", [p["peak_rss_mb"] for p in passes]),
    ):
        metrics[name] = (statistics.median(values), unit, values)
    per_pass = [command_times(p) for p in passes]
    for key in sorted({k for times in per_pass for k in times}):
        values = [times[key] for times in per_pass]
        metrics[key] = (statistics.median(values), "s", values)
    latencies = [ms for p in passes if "repl" in p for ms in p["repl"]["latencies_ms"]]

    out = sys.stdout
    out.write(f"workload {args.workload} seed {args.seed}: {WHY[args.workload]}\n")
    out.write(f"environment: python {platform.python_version()}, nproc {os.cpu_count()}, "
              f"{len(passes)} passes in {measured_s:.1f} s"
              f"{f' (+{len(traced)} traced)' if traced else ''}, "
              f"{SETUP_REPEATS} set-up repeats, closed loop with 1 client\n")
    out.write("inputs: " + ", ".join(f"{k} {v}" for k, v in sizes.items())
              + f"; byte-identical on regeneration: {identical}\n")
    for name, (value, unit, values) in metrics.items():
        out.write(f"  {name:<16} {value:12.4f} {unit:<5} {_quartiles(values)}\n")
    if latencies:
        out.write(f"  {'repl_p50_ms':<16} {statistics.median(latencies):12.4f} ms    "
                  f"samples={len(latencies)}\n")
        out.write(f"  {'repl_p99_ms':<16} {_percentile(latencies, 99):12.4f} ms    "
                  f"samples={len(latencies)}\n")
    out.write(f"  {'ops_failed_ratio':<16} {failed / attempted:12.4f} ratio "
              f"failed={failed} attempted={attempted}\n")
    out.write(f"correctness: oracle check {check['attempted'] - check['failed']}/"
              f"{check['attempted']} commands, golden digests "
              f"{'compared' if golden else 'not recorded for this seed'}\n")
    for note in notes[:10]:
        out.write(f"  FAILED {note}\n")
    for line in probes:
        out.write(line + "\n")

    if args.trace:
        layers = {name: statistics.median(t["trace"].get(name, 0.0) for t in traced)
                  for name in per_layer_names()[:-2]}
        layers["trace.total_s"] = statistics.median(t["total_wall_s"] for t in traced)
        layers["trace.overhead_s"] = (statistics.median(t["total_s"] for t in traced)
                                      - metrics["total_s"][0])
        for name, value in layers.items():
            out.write(f"  {name:<36} {value:14.6f} {_unit(name)}\n")
        result_metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        result_metrics = {name: {"value": metrics[name][0], "unit": unit}
                          for name, unit in END_TO_END}
    out.write(json.dumps({"correct": failed == 0 and identical, "attempted": attempted,
                          "failed": failed, "metrics": result_metrics}) + "\n")
    return 0


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_yield", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
