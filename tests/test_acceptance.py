"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria are exact unless stated otherwise; the timed criteria pin
their budgets here (1 s for the fixture replication, 60 s for the oracle
sweep).
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import oracles
from conftest import CORPUS, CORPUS_FILES, REPO, corpus_model
from randmodels import random_model
from warning_scenarios import SCENARIOS

from sortweaver.mining import MiningConfig, grouped_calls_analysis
from sortweaver.minilang import MiniLangSyntaxError, extract_facts, parse
from sortweaver.model import load_records, records_of
from sortweaver.queries import (
    query_cb,
    query_ec,
    query_ep,
    query_rl,
    query_rsi,
    query_sc,
)
from sortweaver.refactoring import (
    apply_edits,
    combine_plans,
    plan_for,
)


def report(number: int, ok: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_f1_replicates_the_mining_numbers():
    started = time.perf_counter()
    model = corpus_model("command")
    target = model.resolve_method("DrawingView.checkDamage")
    fanin = len(model.callers_of(target.id))
    scoped = len(query_cb(model, "DrawingView.checkDamage", "Command").hits)
    elapsed = time.perf_counter() - started
    ok = fanin == 28 and scoped == 19 and elapsed < 1.0
    report(1, ok, f"fan_in={fanin} (want 28), scoped hits={scoped} (want 19), "
                  f"runtime={elapsed:.3f}s (budget 1s)")


def test_criterion_2_consistency_check_advice_replication():
    model = corpus_model("command")
    result = query_cb(model, "AbstractCommand.execute", "AbstractCommand")
    plan = plan_for(model, result)
    text = plan.aspect_text
    checks = {
        "before advice": "before(AbstractCommand abstractCommand)" in text,
        "execution with subtype +": "execution(void AbstractCommand+.execute())" in text,
        "this binding": "this(abstractCommand)" in text,
        "one negated within": text.count("!within(") == 1
        and "!within(*..DrawApplication.*)" in text,
    }
    ok = all(checks.values())
    report(2, ok, "; ".join(f"{name}: {'ok' if good else 'MISSING'}"
                            for name, good in checks.items()))


def test_criterion_3_composite_undo_aspect_replication():
    model = corpus_model("undo")
    composite = combine_plans(
        "PasteCommandUndo",
        [
            plan_for(model, query_sc(model, "PasteCommand")),
            plan_for(model, query_rsi(model, "Undoable", "PasteCommand")),
            plan_for(
                model,
                query_cb(model, "AbstractCommand.setUndoActivity", "PasteCommand"),
                advice="after",
            ),
        ],
    )
    text = composite.aspect_text
    factory = model.resolve_method("PasteCommand.createUndoActivity")
    visibility_warned = any(
        w.code == "VISIBILITY_CHANGE" and factory.id in w.evidence
        for w in composite.warnings
    )
    checks = {
        "aspect named PasteCommandUndo": text.startswith("public aspect PasteCommandUndo {"),
        "relocated nested class": "public static class UndoActivity extends UndoableAdapter" in text,
        "inter-type factory member": "public UndoableAdapter PasteCommand.createUndoActivity()" in text,
        "visibility caution on protected factory": visibility_warned,
        "after advice on execute": "after(PasteCommand pasteCommand) : "
        "executePasteCommand(pasteCommand)" in text,
    }
    ok = all(checks.values())
    report(3, ok, "; ".join(f"{name}: {'ok' if good else 'MISSING'}"
                            for name, good in checks.items()))


def test_criterion_4_oracle_equivalence_sweep():
    started = time.perf_counter()
    rng = random.Random(20240613)
    mismatches = 0
    models = 0
    for round_index in range(200):
        big = round_index % 2 == 0
        model = random_model(
            rng,
            max_types=14 if big else 6,
            max_methods_per_type=5 if big else 3,
            max_fields_per_type=3,
            max_calls=110 if big else 30,
        )
        entities = (len(model.types) + len(model.methods)
                    + len(model.fields) + len(model.calls))
        assert entities <= 200
        models += 1
        methods = sorted(model.methods)
        types = sorted(model.types)
        scopes = ["*"] + [model.types[t].qualified_name for t in types[:2]]
        for target in methods[:3]:
            for scope in scopes:
                got = {h.call for h in query_cb(model, target, scope).hits}
                if got != oracles.cb_hits(model, target, scope, "lift_to_ancestors"):
                    mismatches += 1
        for red in types[:2]:
            for rec in types[:2]:
                got = {
                    (h.redirector_method, h.receiver_method, h.call)
                    for h in query_rl(
                        model,
                        model.types[red].qualified_name,
                        model.types[rec].qualified_name,
                    ).hits
                }
                if got != oracles.rl_triples(model, red, rec):
                    mismatches += 1
        for context in ("Ctx", "int"):
            got = {h.methods for h in query_ec(model, context, "*").hits}
            if got != oracles.ec_chains(model, context, "*"):
                mismatches += 1
        for exception in ("IOErr", "NetErr"):
            got = {h.methods for h in query_ep(model, exception).hits}
            if got != oracles.ep_chains(model, exception):
                mismatches += 1
        for role in types[:2]:
            got = {
                (h.type_id, h.member, h.kind)
                for h in query_rsi(model, model.types[role].qualified_name, "*").hits
            }
            if got != oracles.rsi_hits(model, role, "*"):
                mismatches += 1
        got = {(h.enclosing, h.nested) for h in query_sc(model, "*").hits}
        if got != oracles.sc_hits(model, "*", None):
            mismatches += 1

    config = MiningConfig(grouped_min_callers=2, grouped_min_group=2)
    grouped_models = 0
    for _ in range(60):
        small = random_model(rng, max_types=4, max_methods_per_type=3,
                             max_calls=20, callee_pool=6)
        if len(small.methods) > 12:
            continue
        grouped_models += 1
        got = {
            (frozenset(s.evidence["group"]), frozenset(s.evidence["callers"]))
            for s in grouped_calls_analysis(small, config)
        }
        if got != oracles.grouped(small, config, "lift_to_ancestors"):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and models >= 200 and grouped_models >= 20 and elapsed < 60.0
    report(4, ok, f"{models} models + {grouped_models} grouped models, "
                  f"mismatches={mismatches} (want 0), runtime={elapsed:.1f}s (budget 60s)")


def test_criterion_5_closure_properties():
    failures = []

    command = corpus_model("command")
    for target, scope in [
        ("DrawingView.checkDamage", "Command"),
        ("AbstractCommand.execute", "AbstractCommand"),
    ]:
        plan = plan_for(command, query_cb(command, target, scope))
        after = query_cb(apply_edits(command, plan.edits), target, scope)
        if after.hits != ():
            failures.append(f"CB {target}@{scope}: {len(after.hits)} hits remain")

    undo = corpus_model("undo")
    plan = plan_for(
        undo, query_cb(undo, "AbstractCommand.setUndoActivity", "PasteCommand")
    )
    after = query_cb(
        apply_edits(undo, plan.edits), "AbstractCommand.setUndoActivity", "PasteCommand"
    )
    if after.hits != ():
        failures.append("CB undo setup: hits remain")

    exceptions = corpus_model("exceptions")
    ep_plan = plan_for(exceptions, query_ep(exceptions, "IOErr"))
    edited = apply_edits(exceptions, ep_plan.edits)
    edited_ids = {e.target for e in ep_plan.edits}
    for chain in query_ep(edited, "IOErr").hits:
        if set(chain.methods) & edited_ids:
            failures.append(f"EP: chain {chain.methods} still contains edited methods")

    ok = not failures
    report(5, ok, "all CB and EP closures hold" if ok else "; ".join(failures))


def test_criterion_6_risk_catalog_coverage():
    failures = []
    checks = 0
    for code, trigger, absent in SCENARIOS:
        checks += 1
        if code not in trigger():
            failures.append(f"{code} did not trigger")
        checks += 1
        if code in absent():
            failures.append(f"{code} triggered on its near-twin")
    ok = not failures and checks == 30
    report(6, ok, f"{checks} checks over 15 codes"
                  + ("" if ok else "; " + "; ".join(failures)))


def _pipeline_outputs(tmp: Path) -> bytes:
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")

    def run(*argv: str) -> bytes:
        proc = subprocess.run(
            [sys.executable, "-m", "sortweaver", *argv],
            capture_output=True,
            env=env,
            cwd=REPO,
            check=True,
        )
        return proc.stdout

    chunks = []
    facts = {}
    for name in CORPUS_FILES:
        stem = Path(name).stem
        out = tmp / f"{stem}.jsonl"
        run("extract", str(CORPUS / name), "-o", str(out))
        facts[stem] = out
        chunks.append(out.read_bytes())
    for technique in ("fanin", "grouped", "redirect"):
        chunks.append(run("mine", technique, str(facts["command"]), "--json"))
    chunks.append(run("query", "cb", str(facts["command"]),
                      "--target", "DrawingView.checkDamage", "--scope", "Command", "--json"))
    chunks.append(run("query", "rl", str(facts["decorator"]),
                      "--redirector", "BorderDecorator", "--receiver", "Figure", "--json"))
    chunks.append(run("query", "ec", str(facts["monitor"]),
                      "--context", "ProgressMonitor", "--json"))
    chunks.append(run("query", "rsi", str(facts["undo"]),
                      "--role", "Undoable", "--scope", "PasteCommand", "--json"))
    chunks.append(run("query", "sc", str(facts["undo"]), "--scope", "PasteCommand", "--json"))
    chunks.append(run("query", "ep", str(facts["exceptions"]),
                      "--exception", "IOErr", "--json"))
    chunks.append(run("plan", str(CORPUS / "command-model.json"), "Command support",
                      str(facts["command"]), "--json"))
    chunks.append(run("plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo",
                      str(facts["undo"]), "--json"))
    return b"\n".join(chunks)


#: sha256 and length of the criterion-7 pipeline output.  A change that
#: alters the output on purpose updates both and says so in CHANGES.md.
PIPELINE_SHA256 = "6c681e1111eab340b759a6af7ceeb114e1c7662cd8e1ad8edcd5b544d6549f08"
PIPELINE_BYTES = 68296


def test_criterion_7_pipeline_determinism(tmp_path):
    first = _pipeline_outputs(tmp_path / "run1")
    second = _pipeline_outputs(tmp_path / "run2")
    digest = hashlib.sha256(first).hexdigest()
    ok = first == second and digest == PIPELINE_SHA256 and len(first) == PIPELINE_BYTES
    report(7, ok, f"two pipeline runs produced {'identical' if first == second else 'DIFFERENT'} "
                  f"bytes ({len(first)} bytes of output, sha256 {digest}, "
                  f"pinned {PIPELINE_SHA256} / {PIPELINE_BYTES} bytes)")


def test_criterion_8_frontend_round_trip():
    failures = []
    for name in CORPUS_FILES:
        text = (CORPUS / name).read_text()
        try:
            unit = parse(text, name)
        except MiniLangSyntaxError:
            failures.append(f"{name}: parse failed")
            continue
        extraction = extract_facts([unit])
        try:
            load_records(records_of(extraction.records))
        except Exception as exc:  # noqa: BLE001 - the criterion is "never fails"
            failures.append(f"{name}: load failed: {exc}")
            continue
        calls = sum(1 for r in records_of(extraction.records) if r["k"] == "call")
        expected = oracles.invocation_count(text)
        if calls != expected:
            failures.append(f"{name}: {calls} call records vs {expected} call statements")
    ok = not failures
    report(8, ok, f"{len(CORPUS_FILES)} corpus files round-trip"
                  + ("" if ok else "; " + "; ".join(failures)))
