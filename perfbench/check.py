"""Untimed correctness check against the brute-force references in tests/oracles.py.

    python3 perfbench/check.py <workload> <seed> <workdir> [<full-size pass dir>]

The oracles are polynomial of high degree (grouped mining is exponential),
so they run on the same generator at a reduced size: every query binding of
the reduced concern model is executed through the CLI and compared with the
oracle, as are fan-in mining (``system``) and grouped mining (``system``, at
a tiny size).  On ``frontend-chains`` the oracle's invocation count of every
full-size source file among copies 0-9 is compared with the call records
extracted from it.
Each CLI command run here is one operation.  Prints one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
POLICY = "lift_to_ancestors"
FLAGS = {
    "CB": ("target", "scope"), "RL": ("redirector", "receiver"), "EC": ("context", "scope"),
    "RSI": ("role", "scope"), "SC": ("scope", "role"), "EP": ("exception", "root"),
}


class Check:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def cli(self, argv: list[str]):
        """Run one command; returns its stdout, or None after recording a failure."""
        from sortweaver.cli import main

        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(argv, stdout=out)
        if rc != 0:
            self.failures.append(f"{' '.join(argv)}: exit {rc}: {err.getvalue().strip()[:200]}")
            return None
        return out.getvalue()

    def expect(self, label: str, got, want):
        if got != want:
            self.failures.append(f"{label}: {len(got)} results, oracle {len(want)}; "
                                 f"first differences {sorted(got ^ want)[:3]}")

    def query(self, facts: str, model, sort: str, params: dict):
        import oracles

        argv = ["query", sort.lower(), facts, "--json"]
        for key in FLAGS[sort]:
            if params.get(key) is not None:
                argv += [f"--{key}", params[key]]
        text = self.cli(argv)
        if text is None:
            return
        hits = json.loads(text)["hits"]
        sig = model.method_sig
        qname = lambda tid: model.types[tid].qualified_name  # noqa: E731
        scope = params.get("scope", "*")
        if sort == "CB":
            target = model.resolve_method(params["target"]).id
            got = {h["call"] for h in hits}
            want = oracles.cb_hits(model, target, scope, POLICY)
        elif sort == "RL":
            got = {h["call"] for h in hits}
            want = {c for _, _, c in oracles.rl_triples(
                model, model.require_type(params["redirector"]).id,
                model.require_type(params["receiver"]).id)}
        elif sort in ("EC", "EP"):
            got = {tuple(h["methods"]) for h in hits}
            if sort == "EC":
                chains = oracles.ec_chains(model, params["context"], scope)
            else:
                chains = oracles.ep_chains(model, params["exception"])
                if params.get("root"):
                    root = model.resolve_method(params["root"]).id
                    chains = {c for c in chains if root in c}
            want = {tuple(sig(m) for m in chain) for chain in chains}
        elif sort == "RSI":
            got = {(h["type"], h["kind"], h.get("role") or h.get("member")) for h in hits}
            want = {(qname(t), kind, qname(m) if kind == "declares_role" else sig(m))
                    for t, m, kind in oracles.rsi_hits(
                        model, model.require_type(params["role"]).id, scope)}
        else:
            role = model.require_type(params["role"]).id if params.get("role") else None
            got = {(h["enclosing"], h["nested"]) for h in hits}
            want = {(qname(e), qname(n)) for e, n in oracles.sc_hits(model, scope, role)}
        self.expect(" ".join(argv), got, want)

    def concern_model(self, facts: str, model_file: str):
        """Every instance of a concern model, one query command each."""
        from sortweaver.concerns import iter_instances, load_model
        from sortweaver.model import load_facts_path

        model = load_facts_path(facts)
        for _, instance in iter_instances(load_model(model_file)):
            self.query(facts, model, instance.binding.sort.value, dict(instance.binding.params))

    def fan_in(self, facts: str, threshold: int):
        import oracles
        from sortweaver.mining import is_accessor
        from sortweaver.model import load_facts_path

        text = self.cli(["mine", "fanin", facts, "--threshold", str(threshold), "--json"])
        if text is None:
            return
        model = load_facts_path(facts)
        got = {s["evidence"]["method"]: s["evidence"]["fan_in"] for s in json.loads(text)}
        edges = oracles.lifted(model, POLICY)
        fan = Counter(callee for caller, callee in edges if caller != callee)
        candidates = {mid for mid, n in fan.items()
                      if n >= threshold and not is_accessor(model.methods[mid])} | set(got)
        want = {mid: oracles.fan_in(model, mid, POLICY) for mid in candidates}
        want = {mid: n for mid, n in want.items() if n >= threshold}
        self.expect("mine fanin", set(got.items()), set(want.items()))

    def grouped(self, facts: str):
        import oracles
        from sortweaver.mining import MiningConfig
        from sortweaver.model import load_facts_path

        text = self.cli(["mine", "grouped", facts, "--json"])
        if text is None:
            return
        model = load_facts_path(facts)
        got = {(frozenset(s["evidence"]["group"]), frozenset(s["evidence"]["callers"]))
               for s in json.loads(text)}
        want = oracles.grouped(model, MiningConfig(), POLICY)
        self.expect("mine grouped", got, want)

    def invocations(self, pass_dir: Path, files: list[str]):
        """Oracle invocation count of each source file vs its call records."""
        import oracles

        calls = Counter()
        methods_src = {}
        with open(pass_dir / "facts.jsonl", encoding="utf-8") as handle:
            for line in handle:
                rec = json.loads(line)
                if rec["k"] == "method":
                    methods_src[rec["id"]] = rec.get("src", "")
                elif rec["k"] == "call":
                    calls[rec["caller"]] += 1
        per_file = Counter()
        for mid, n in calls.items():
            per_file[methods_src[mid]] += n
        self.attempted += 1
        got = {(name, per_file[name]) for name in files}
        want = {(name, oracles.invocation_count((pass_dir / name).read_text(encoding="utf-8")))
                for name in files}
        self.expect("extract: call records per file vs invocation count", got, want)


def _write(workdir: Path, files: dict[str, str]):
    workdir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2]).resolve()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    check = Check()
    if workload == "system":
        _write(workdir / "reduced", gen.system_inputs(seed, gen.SYSTEM_REDUCED)[0])
        _write(workdir / "tiny", gen.system_inputs(seed, gen.SYSTEM_TINY)[0])
        os.chdir(workdir / "reduced")
        check.fan_in("facts.jsonl", threshold=2)
        check.concern_model("facts.jsonl", "concerns.json")
        os.chdir(workdir / "tiny")
        check.grouped("facts.jsonl")
    else:
        _write(workdir / "chains", gen.chains_inputs(seed, gen.CHAINS_REDUCED)[0])
        os.chdir(workdir / "chains")
        check.concern_model("facts.jsonl", "concerns.json")
        files, _ = gen.frontend_inputs(seed, ROOT / "corpus", copies=1)
        _write(workdir / "frontend", files)
        os.chdir(workdir / "frontend")
        sources = [name for name in files if name.endswith(".mini")]
        if check.cli(["extract", *sources, "-o", "facts.jsonl"]) is not None:
            for model_file in ("command-model.json", "undo-model.json"):
                check.concern_model("facts.jsonl", model_file)
        pass_dir = Path(argv[3]).resolve()
        check.invocations(pass_dir, sorted(p.name for p in pass_dir.glob("*_00[0-9].mini")))
    print(json.dumps({"attempted": check.attempted, "failed": len(check.failures),
                      "failures": check.failures[:10]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
