"""One fresh interpreter of the benchmark: a set-up measurement or one pass.

    python3 perfbench/worker.py setup <workdir> [sizes]
    python3 perfbench/worker.py pass <workdir> <trace 0|1>

``setup`` times ``import sortweaver.cli`` plus the first ``load_facts_path``
of ``<workdir>/facts.jsonl``; with ``sizes`` it then counts the inputs,
untimed.  Every timing is bracketed by the reference loop (see ``REF_S``).  ``pass`` runs the workload script ``<workdir>/script.json`` once
through ``sortweaver.cli.main(argv, stdin, stdout)``, one command after the
other (a closed loop with one client), from inside ``<workdir>``.  Both
print one JSON object as the last line of standard output.

Nothing from sortweaver is imported before the timed region of ``setup``.
The interpreter's recursion limit and garbage-collector settings are left
at their defaults.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


#: Seconds the reference loop is taken to need at reference speed.  Every
#: timing is reported as measured (wall) and scaled by REF_S / (the loop's
#: time measured right before and after it), which cancels the machine's
#: speed changes: on a shared 2-core host the same command's wall time moves
#: by 30-50% between minutes, its scaled time by about 4%.
REF_S = 0.010


def reference_loop() -> float:
    """Wall seconds of one fixed pure-Python loop of dict and str work."""
    start = time.perf_counter()
    table: dict[str, int] = {}
    acc = 0
    for i in range(30000):
        table[str(i)] = i
        acc += len(table) ^ i
    for key in list(table)[::3]:
        del table[key]
    return time.perf_counter() - start


def _use_checkout_sources():
    src = ROOT / "src"
    if not (src / "sortweaver" / "cli.py").is_file():
        sys.exit(f"perfbench: no sortweaver sources under {src}")
    sys.path.insert(0, str(src))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TimedStdin:
    """REPL input that timestamps every ``readline``: the gap between two
    reads is the latency of the command read first, taken from outside."""

    def __init__(self, text: str, stdout: io.StringIO):
        self._lines = text.splitlines(keepends=True)
        self._next = 0
        self._stdout = stdout
        self.stamps: list[float] = []
        self.offsets: list[int] = []

    def readline(self) -> str:
        self.stamps.append(time.perf_counter())
        self.offsets.append(self._stdout.tell())
        if self._next >= len(self._lines):
            return ""
        line = self._lines[self._next]
        self._next += 1
        return line


def _error_lines(text: str) -> list[str]:
    """Lines that report a failure: CLI errors and ``model run`` instance errors."""
    return [line for line in text.splitlines()
            if line.startswith(("error:", "internal error:")) or ": error: " in line]


def _closure_check(model_file: str, instance_path: str, facts: str, stdout) -> None:
    """Plan an EP instance, rebuild the model with its edits applied, and
    re-run the EP query: no edited method may remain in a chain."""
    from sortweaver import concerns, queries
    from sortweaver.model import load_facts_path
    from sortweaver.refactoring import plans

    instance = dict(concerns.iter_instances(concerns.load_model(model_file)))[instance_path]
    source = load_facts_path(facts)
    result = queries.execute_binding(source, instance.binding)
    plan = plans.plan_for(source, result, instance_path=instance_path)
    edited = {edit.target for edit in plan.edits}
    rebuilt = plans.apply_edits(source, plan.edits)
    again = queries.query_ep(rebuilt, instance.binding.param("exception"))
    leaked = sorted({m for hit in again.hits for m in hit.methods} & edited)
    stdout.write(f"{instance_path}: {len(result.hits)} chains, {len(edited)} edits, "
                 f"{len(again.hits)} chains after the edits\n")
    if not edited or leaked:
        stdout.write(f"error: edited methods still in a chain: {leaked}\n")


def run_pass(workdir: Path, trace: bool) -> dict:
    from sortweaver.cli import main

    script = json.loads((workdir / "script.json").read_text(encoding="utf-8"))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    root = tracer.root if tracer else (lambda name: contextlib.nullcontext())

    ops = []
    repl = None
    for kind, argv, *stdin_file in script:
        out, err = io.StringIO(), io.StringIO()
        stdin = None
        if stdin_file:
            stdin = TimedStdin((workdir / stdin_file[0]).read_text(encoding="utf-8"), out)
        ref_before = reference_loop()
        began = time.perf_counter()
        with contextlib.redirect_stderr(err):
            if kind == "closure":
                with root("script.closure"):
                    _closure_check(*argv, out)
                rc = 0
            else:
                with root(f"cli.{argv[0]}"):
                    rc = main(argv, stdin=stdin, stdout=out)
        seconds = time.perf_counter() - began
        scale = REF_S / ((ref_before + reference_loop()) / 2)
        ops.append({"kind": kind, "wall_s": seconds, "seconds": seconds * scale, "rc": rc,
                    "out": out, "err": err})
        if stdin is not None:
            repl = stdin
    total_s = sum(op["wall_s"] for op in ops)
    if tracer:
        tracer.uninstall()

    # Untimed: digests and error lines.
    result_ops = []
    for op in ops:
        text = op["out"].getvalue()
        errors = _error_lines(text) + _error_lines(op["err"].getvalue())
        result_ops.append({"kind": op["kind"], "seconds": op["seconds"], "wall_s": op["wall_s"],
                           "rc": op["rc"], "digest": _digest(text), "errors": errors[:3]})
    result = {
        "total_s": sum(op["seconds"] for op in ops),
        "total_wall_s": total_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": result_ops,
        "files": {p.name: _digest(p.read_text(encoding="utf-8"))
                  for p in sorted(workdir.iterdir())
                  if p.suffix in (".json", ".jsonl", ".aj") and p.name != "script.json"},
    }
    if repl is not None:
        text = next(op["out"] for op in ops if op["kind"] == "repl").getvalue()
        bounds = repl.offsets
        result["repl"] = {
            "latencies_ms": [(b - a) * 1000.0 for a, b in zip(repl.stamps, repl.stamps[1:])],
            "failed_lines": sum(bool(_error_lines(text[a:b])) for a, b in zip(bounds, bounds[1:])),
        }
    if tracer:
        result["trace"] = tracer.summary(total_s)
    return result


def input_sizes(workdir: Path) -> dict:
    """Counts of the inputs a pass read or wrote, for the report."""
    from sortweaver.concerns import iter_instances, load_model
    from sortweaver.model import DispatchPolicy, load_facts_path

    sizes = {}
    for facts in sorted(workdir.glob("*.jsonl")):
        model = load_facts_path(facts)
        prefix = "" if facts.name == "facts.jsonl" else f"{facts.stem}."
        sizes.update({f"{prefix}types": len(model.types), f"{prefix}methods": len(model.methods),
                      f"{prefix}calls": len(model.calls)})
        for policy in DispatchPolicy:
            sizes[f"{prefix}lifted_edges.{policy.value}"] = len(model.lifted_edges(policy))
    sources = sorted(workdir.glob("*.mini"))
    if sources:
        sizes["source_files"] = len(sources)
        sizes["source_lines"] = sum(p.read_text(encoding="utf-8").count("\n") for p in sources)
    sizes["concern_instances"] = sum(
        len(list(iter_instances(load_model(p)))) for p in sorted(workdir.glob("*.json"))
        if p.name != "script.json" and not p.name.endswith("edits.json"))
    if (workdir / "repl.txt").exists():
        sizes["repl_lines"] = (workdir / "repl.txt").read_text(encoding="utf-8").count("\n")
    return sizes


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        ref_before = reference_loop()
        start = time.perf_counter()
        _use_checkout_sources()
        import sortweaver.cli  # noqa: F401  (import time is part of set-up)
        from sortweaver.model import load_facts_path

        load_facts_path(argv[1] + "/facts.jsonl")
        wall_s = time.perf_counter() - start
        scale = REF_S / ((ref_before + reference_loop()) / 2)
        sizes = input_sizes(Path(argv[1])) if argv[2:] == ["sizes"] else {}
        print(json.dumps({"setup_s": wall_s * scale, "setup_wall_s": wall_s, "sizes": sizes}))
        return 0
    if mode == "pass":
        _use_checkout_sources()
        workdir = Path(argv[1]).resolve()
        os.chdir(workdir)
        print(json.dumps(run_pass(workdir, argv[2] == "1")))
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
