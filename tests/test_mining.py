import json
import os
import random
import subprocess
import sys

import pytest

import oracles
from conftest import REPO, model_from_source
from randmodels import random_model

from sortweaver.mining import (
    TECHNIQUES,
    MiningConfig,
    fan_in_analysis,
    find_redirectors,
    grouped_calls_analysis,
    is_accessor,
    mine,
)
from sortweaver.model import DispatchPolicy, FactError


def test_fan_in_of_check_damage_is_28(command_model):
    target = command_model.resolve_method("DrawingView.checkDamage")
    assert len(command_model.callers_of(target.id, DispatchPolicy.STATIC_ONLY)) == 28


def test_fan_in_of_uncalled_method_is_zero(command_model):
    target = command_model.resolve_method("DrawApplication.shutdown")
    # called once, by the anonymous exit command
    assert len(command_model.callers_of(target.id)) == 1
    lonely = model_from_source("class A { public void f() { } }")
    assert len(lonely.callers_of(lonely.resolve_method("A.f").id)) == 0


def test_fan_in_unknown_method_raises(command_model):
    with pytest.raises(FactError):
        command_model.callers_of("M999")


def test_interface_declaration_gains_fan_in_under_lifting(command_model):
    target = command_model.resolve_method("Command.execute")
    static = len(command_model.callers_of(target.id, DispatchPolicy.STATIC_ONLY))
    lifted = len(command_model.callers_of(target.id, DispatchPolicy.LIFT_TO_ANCESTORS))
    assert lifted > static


def test_fanin_analysis_keeps_check_damage_drops_view_accessor(command_model):
    config = MiningConfig(fanin_threshold=10, utility_names=("view",))
    seeds = fan_in_analysis(command_model, config)
    sigs = [s.evidence["method_sig"] for s in seeds]
    assert "DrawingView.checkDamage()" in sigs
    assert all("view" not in sig for sig in sigs)
    # the oracle: unfiltered list minus the filter predicate
    unfiltered = fan_in_analysis(command_model, MiningConfig(fanin_threshold=10))
    dropped = {s.evidence["method_sig"] for s in unfiltered} - set(sigs)
    assert dropped == {"AbstractCommand.view()"}


def test_threshold_above_maximum_gives_empty_list(command_model):
    assert fan_in_analysis(command_model, MiningConfig(fanin_threshold=29)) == []


def test_equal_fan_in_breaks_ties_by_name():
    text = """
    class Zeta { public void act() { } }
    class Alpha { public void act() { } }
    class U1 { public void f(Zeta z, Alpha a) { z.act(); a.act(); } }
    class U2 { public void f(Zeta z, Alpha a) { z.act(); a.act(); } }
    """
    model = model_from_source(text)
    seeds = fan_in_analysis(model, MiningConfig(fanin_threshold=2))
    assert [s.evidence["method_sig"] for s in seeds] == ["Alpha.act()", "Zeta.act()"]


def test_seed_score_equals_caller_set_size(command_model):
    for seed in fan_in_analysis(command_model, MiningConfig(fanin_threshold=1)):
        assert seed.score == len(seed.evidence["callers"])
        assert seed.score == seed.evidence["fan_in"]


def test_accessor_predicate():
    class FakeMethod:
        def __init__(self, name, stmts):
            self.name = name
            self.body_stmt_count = stmts

    assert is_accessor(FakeMethod("getValue", 1))
    assert is_accessor(FakeMethod("setValue", 0))
    assert is_accessor(FakeMethod("isReady", 1))
    assert not is_accessor(FakeMethod("getValue", 2))
    assert not is_accessor(FakeMethod("insertFigures", 1))  # "is" needs a word break
    assert not is_accessor(FakeMethod("view", 1))


def test_fan_in_policy_monotone_on_random_models():
    rng = random.Random(31)
    for _ in range(30):
        model = random_model(rng)
        for mid in model.methods:
            counts = [
                len(model.callers_of(mid, policy))
                for policy in (
                    DispatchPolicy.STATIC_ONLY,
                    DispatchPolicy.LIFT_TO_ANCESTORS,
                    DispatchPolicy.LIFT_BOTH,
                )
            ]
            assert counts[0] <= counts[1] <= counts[2]
            assert counts[1] == oracles.fan_in(model, mid, "lift_to_ancestors")


# -- grouped calls ------------------------------------------------------------------


def test_undo_setup_group_found_with_all_undoable_commands(undo_model):
    seeds = grouped_calls_analysis(undo_model)
    expected = {
        "AbstractCommand.setUndoActivity(UndoableAdapter)",
        "UndoableAdapter.setAffectedFigures(FigureEnumeration)",
    }
    match = [s for s in seeds if set(s.evidence["group_sigs"]) == expected]
    assert len(match) == 1
    callers = {undo_model.method_sig(c) for c in match[0].evidence["callers"]}
    assert callers == {
        "PasteCommand.execute()",
        "DuplicateCommand.execute()",
        "CutCommand.execute()",
        "InsertImageCommand.execute()",
    }
    assert match[0].score == 4
    assert undo_model.types[match[0].evidence["ancestor"]].qualified_name == "AbstractCommand"


def test_no_shared_callees_means_no_groups():
    text = """
    class A { public void a() { } public void b() { } }
    class U1 { public void f(A x) { x.a(); } }
    class U2 { public void f(A x) { x.b(); } }
    class U3 { public void f(A x) { x.a(); } }
    """
    model = model_from_source(text)
    assert grouped_calls_analysis(model, MiningConfig(grouped_min_callers=2)) == []


def test_grouped_matches_exponential_oracle_on_small_models():
    rng = random.Random(404)
    config = MiningConfig(grouped_min_callers=2, grouped_min_group=2)
    for policy in DispatchPolicy:
        for _ in range(40):
            model = random_model(rng, max_types=4, max_methods_per_type=3,
                                 max_calls=20, callee_pool=6, policy=policy)
            got = {
                (frozenset(s.evidence["group"]), frozenset(s.evidence["callers"]))
                for s in grouped_calls_analysis(model, config)
            }
            assert got == oracles.grouped(model, config, policy.value)


def test_grouped_matches_pairwise_closure_on_random_models():
    rng = random.Random(4004)
    nonempty = 0
    for i in range(300):
        policy = list(DispatchPolicy)[i % 3]
        config = MiningConfig(
            grouped_min_callers=rng.randint(1, 3),
            grouped_min_group=rng.randint(1, 3),
            accessor_filter=rng.random() < 0.5,
        )
        model = random_model(rng, policy=policy)
        got = [s.to_json() for s in grouped_calls_analysis(model, config)]
        assert got == oracles.grouped_pairwise(model, config), (i, config)
        nonempty += bool(got)
    assert nonempty >= 100


def test_grouped_seed_order_ignores_hash_seed(tmp_path):
    # T1 and T2 share a qualified name, so the groups {M1, M2} and
    # {M3, M4} have equal scores and equal signatures.
    records = [{"k": "type", "id": f"T{i}", "name": name, "kind": "class",
                "abstract": False, "anon": False, "encl": None, "super": []}
               for i, name in enumerate(["p.S", "p.S", "p.U"], 1)]
    owners = ["T1", "T1", "T2", "T2"] + ["T3"] * 6
    names = ["a", "b", "a", "b"] + [f"u{i}" for i in range(6)]
    records += [{"k": "method", "id": f"M{i}", "owner": owner, "name": name,
                 "params": [], "ret": "void", "vis": "public", "static": False,
                 "abstract": False, "ctor": False, "throws": [], "stmts": 2}
                for i, (owner, name) in enumerate(zip(owners, names), 1)]
    calls = [(caller, target) for caller in ("M5", "M6", "M7") for target in ("M1", "M2")]
    calls += [(caller, target) for caller in ("M8", "M9", "M10") for target in ("M3", "M4")]
    records += [{"k": "call", "id": f"C{i}", "caller": caller, "target": target,
                 "recv": {"kind": "local"}, "ord": 1, "pass": []}
                for i, (caller, target) in enumerate(calls, 1)]
    facts = tmp_path / "facts.jsonl"
    facts.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    outputs = set()
    for hash_seed in range(1, 9):
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "sortweaver", "mine", "grouped", str(facts), "--json"],
            capture_output=True, env=env, check=True, text=True,
        )
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    seeds = json.loads(outputs.pop())
    assert [s["evidence"]["group"] for s in seeds] == [["M1", "M2"], ["M3", "M4"]]
    assert seeds[0]["evidence"]["group_sigs"] == seeds[1]["evidence"]["group_sigs"]


def test_grouped_maximality_no_subset_with_same_callers(undo_model):
    seeds = grouped_calls_analysis(undo_model, MiningConfig(grouped_min_callers=2))
    for one in seeds:
        for other in seeds:
            if one is other:
                continue
            g1, g2 = set(one.evidence["group"]), set(other.evidence["group"])
            if g1 < g2:
                assert set(one.evidence["callers"]) != set(other.evidence["callers"])


# -- redirection layers ----------------------------------------------------------------


def test_border_decorator_found_with_full_coverage(decorator_model):
    seeds = find_redirectors(decorator_model)
    assert len(seeds) == 1
    seed = seeds[0]
    assert seed.evidence["redirector_name"] == "BorderDecorator"
    assert seed.evidence["receiver_type_name"] == "Figure"
    assert seed.evidence["coverage"] == 1.0
    assert len(seed.evidence["pairs"]) == 2


def test_methods_calling_different_fields_are_not_redirectors():
    text = """
    interface Figure { void draw(); void moveBy(int dx, int dy); }
    class Impl implements Figure { public void draw() { } public void moveBy(int dx, int dy) { } }
    class Split implements Figure {
        private Figure fOne;
        private Figure fTwo;
        public void draw() { fOne.draw(); }
        public void moveBy(int dx, int dy) { fTwo.moveBy(dx, dy); }
    }
    """
    model = model_from_source(text)
    assert find_redirectors(model) == []


DECORATOR_WITH_EXTRA = """
interface Figure { void draw(); void moveBy(int dx, int dy); }
class RectangleFigure implements Figure {
    public void draw() { }
    public void moveBy(int dx, int dy) { }
}
class BorderDecorator implements Figure {
    private Figure fInner;
    public void draw() { fInner.draw(); }
    public void moveBy(int dx, int dy) { fInner.moveBy(dx, dy); }
    public void refreshBorder() { }
}
"""


def test_coverage_threshold_arithmetic():
    model = model_from_source(DECORATOR_WITH_EXTRA)
    at_half = find_redirectors(model, MiningConfig(redirect_coverage=0.5))
    assert len(at_half) == 1 and abs(at_half[0].evidence["coverage"] - 2 / 3) < 1e-9
    at_eighty = find_redirectors(model, MiningConfig(redirect_coverage=0.8))
    assert at_eighty == []


def test_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(fanin_threshold=0)
    with pytest.raises(ValueError):
        MiningConfig(redirect_coverage=0.0)
    with pytest.raises(ValueError):
        MiningConfig(redirect_coverage=1.5)


class _RecordingConfig:
    """A MiningConfig stand-in that notes every field a technique reads."""

    def __init__(self):
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(MiningConfig(), name)


@pytest.mark.parametrize("technique", list(TECHNIQUES))
def test_techniques_table_lists_the_fields_each_technique_reads(
        command_model, decorator_model, undo_model, technique):
    config = _RecordingConfig()
    seeds = 0
    for model in (command_model, decorator_model, undo_model):
        seeds += len(mine(model, technique, config))
    assert seeds > 0
    _, fields = TECHNIQUES[technique]
    assert config.read == set(fields)


def test_mining_is_deterministic(command_model, undo_model):
    first = [s.to_json() for s in fan_in_analysis(command_model)]
    second = [s.to_json() for s in fan_in_analysis(command_model)]
    assert first == second
    assert [s.to_json() for s in grouped_calls_analysis(undo_model)] == [
        s.to_json() for s in grouped_calls_analysis(undo_model)
    ]
