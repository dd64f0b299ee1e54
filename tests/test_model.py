import gc
import hashlib
import importlib.util
import json
import os
import random
import re
import sys
import threading
import time
import tracemalloc
from itertools import chain, combinations
from json.scanner import c_make_scanner, py_make_scanner

import pytest

import oracles
from conftest import CORPUS, CORPUS_FILES, REPO, corpus_model, young_objects
from randmodels import dense_hierarchy, random_model
from sortweaver import model as model_module
from sortweaver._util import _split_key, natural_key
from sortweaver.minilang import extract_facts, parse
from sortweaver.model import (
    CallSite,
    DispatchPolicy,
    FactError,
    FieldDecl,
    MethodDecl,
    Receiver,
    ReceiverKind,
    SourceModel,
    TypeDecl,
    TypeKind,
    Visibility,
    _sidecar_path,
    dumps_facts,
    load_facts,
    load_facts_path,
    load_records,
    records_of,
)
from sortweaver.queries import scope_test


def lines(*records):
    return [json.dumps(r) for r in records]


TYPE = {"k": "type", "id": "T1", "name": "A", "kind": "class",
        "abstract": False, "anon": False, "encl": None, "super": []}
METHOD = {"k": "method", "id": "M1", "owner": "T1", "name": "f", "params": [],
          "ret": "void", "vis": "public", "static": False, "abstract": False,
          "ctor": False, "throws": [], "stmts": 2}


def test_empty_stream_yields_empty_model():
    model = load_facts([])
    assert not model.types and not model.methods and not model.fields and not model.calls
    assert model.lifted_edges() == frozenset()


def test_f1_has_28_call_sites_on_check_damage(command_model):
    target = command_model.resolve_method("DrawingView.checkDamage")
    calls = [c for c in command_model.calls.values() if c.static_target == target.id]
    assert len(calls) == 28


def test_unknown_owner_reference_names_id_and_line():
    with pytest.raises(FactError) as err:
        load_facts(lines(dict(METHOD, owner="T9")))
    assert "T9" in str(err.value)
    assert "line 1" in str(err.value)


def test_duplicate_id_rejected():
    with pytest.raises(FactError, match="duplicate id"):
        load_facts(lines(TYPE, TYPE))


def test_unknown_record_kind_rejected():
    with pytest.raises(FactError, match="unknown record kind"):
        load_facts(lines({"k": "mystery", "id": "X"}))


def test_unknown_keys_ignored():
    model = load_facts(lines(dict(TYPE, zzz=1), dict(METHOD, extra="x")))
    assert "T1" in model.types and "M1" in model.methods


def test_malformed_json_reports_line():
    with pytest.raises(FactError) as err:
        load_facts([json.dumps(TYPE), "{nope"])
    assert "line 2" in str(err.value)


def test_unresolved_supertype_becomes_external_opaque_type():
    model = load_facts(lines(dict(TYPE, super=["LibBase"])))
    assert model.types["LibBase"].is_external
    assert model.ancestors("T1") == {"T1", "LibBase"}


def test_supertype_cycle_reported_with_cycle():
    t1 = dict(TYPE, super=["T2"])
    t2 = dict(TYPE, id="T2", name="B", super=["T1"])
    with pytest.raises(FactError, match=r"^cycle in supertype hierarchy: A -> B -> A$"):
        load_facts(lines(t1, t2))
    with pytest.raises(FactError, match=r"^cycle in supertype hierarchy: C -> C$"):
        load_facts(lines(dict(TYPE, id="T3", name="C", super=["T3"])))


def test_deep_hierarchy_declared_child_first_closes_without_recursion():
    # T0 extends T1 extends ... T1199: deeper than the interpreter's default
    # recursion limit, and ids put the deepest subtype first.
    depth = 1200
    types = [dict(TYPE, id=f"T{i}", name=f"L{i}", super=[f"T{i + 1}"] if i + 1 < depth else [])
             for i in range(depth)]
    closed = []
    close = SourceModel._closed
    with pytest.MonkeyPatch.context() as patch:  # each type is closed once
        patch.setattr(SourceModel, "_closed",
                      lambda model, tid, resolved: closed.append(tid) or close(model, tid, resolved))
        model = load_records(types)
    assert sorted(closed) == sorted(model.types)
    assert len(model.ancestors("T0")) == depth
    in_root = scope_test(model, f"L{depth - 1}")
    assert [tid for tid in model.types if in_root(tid)] == list(model.types)
    assert model.common_ancestor(["T0", "T600", "T900"]) == "T900"
    assert model.ancestors("T600") == {f"T{i}" for i in range(600, depth)}


def test_a_deep_enclosing_chain_is_checked_in_linear_time():
    """T1 encloses T2 encloses ... T20000: each type's enclosing walk stops
    at a type already known to reach the top, where walking each whole
    chain would take minutes."""
    depth = 20_000
    types = [TypeDecl(f"T{i}", f"L{i}", TypeKind.CLASS, enclosing_type=f"T{i - 1}" if i > 1
                      else None) for i in range(1, depth + 1)]
    started = time.process_time()
    model = SourceModel(types, [], [], [])
    assert time.process_time() - started < 1.0
    assert len(model.types) == depth


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("stream, error", [
    (lines(TYPE, METHOD), None),
    (lines(TYPE, dict(METHOD, owner="T9")), "line 2: method M1: unknown owner id 'T9'"),
    (lines(TYPE) + ["[" * 100_000 + "]" * 100_000], "line 2: input nests too deeply"),
], ids=["loads", "fact-error", "nests-too-deeply"])
def test_load_facts_restores_the_collector_state(enabled, stream, error):
    """The collector's state and its frozen objects are as they were, and with
    the collector on and nothing frozen the loaded declarations are no longer
    young."""
    def load(moved: bool):
        if error is None:
            model = load_facts(stream)
            assert list(model.methods) == ["M1"]
            if moved:
                assert not young_objects(model.methods.values())
        else:
            with pytest.raises(FactError) as err:
                load_facts(stream)
            assert str(err.value) == error
        assert gc.isenabled() is enabled

    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        load(moved=enabled and not gc.get_freeze_count())
        gc.freeze()  # then nothing moves, and nothing frozen is thawed
        try:
            count = gc.get_freeze_count()
            load(moved=False)
            assert gc.get_freeze_count() == count
        finally:
            gc.unfreeze()
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_abstract_method_with_body_rejected():
    with pytest.raises(FactError, match="abstract method with a body"):
        load_facts(lines(TYPE, dict(METHOD, abstract=True)))


def test_duplicate_signature_rejected():
    with pytest.raises(FactError, match="line 3: method M2: duplicate signature"):
        load_facts(lines(TYPE, METHOD, dict(METHOD, id="M2")))


def test_first_duplicate_signature_in_owner_order_is_reported():
    # T1 and T2 each declare f() twice.  Owners are visited in the natural
    # order of their first method id (T2 before T1, though T1 is declared
    # first), and methods in natural id order (M9 before M10).
    other = dict(TYPE, id="T2", name="B")
    records = [TYPE, other,
               dict(METHOD, id="M9", owner="T1"), dict(METHOD, id="M10", owner="T1"),
               dict(METHOD, id="M3", owner="T2"), dict(METHOD, id="M4", owner="T2")]
    with pytest.raises(FactError) as info:
        load_facts(lines(*records))
    assert str(info.value) == (
        "line 6: method M4: duplicate signature f() in type T2 (already declared by M3)"
    )
    del records[5]
    with pytest.raises(FactError) as info:
        load_facts(lines(*records))
    assert str(info.value) == (
        "line 4: method M10: duplicate signature f() in type T1 (already declared by M9)"
    )


_A, _B = TypeDecl("T1", "A", TypeKind.CLASS), TypeDecl("T2", "B", TypeKind.CLASS)
_F = MethodDecl("M1", "T1", "f", body_stmt_count=1)


def _this_call(target: str, ordinal: int = 1) -> CallSite:
    return CallSite("C1", "M1", target, Receiver(ReceiverKind.THIS), ordinal)


@pytest.mark.parametrize("decls, line, error", [
    # Fields are walked owner by owner, owners in the order of their first
    # field: T1's F5 repeats F1's name before T2's F3 repeats F2's.
    ([_A, _B, FieldDecl("F1", "T1", "x", "int"), FieldDecl("F2", "T2", "y", "int"),
      FieldDecl("F3", "T2", "y", "int"), FieldDecl("F5", "T1", "x", "int")],
     6, "field F5: duplicate field name 'x' in type T1"),
    # References come before structure, whatever the ids.
    ([_A, _F, MethodDecl("M9", "T9", "g"), _this_call("M1", ordinal=0)],
     3, "method M9: unknown owner id 'T9'"),
    ([_A._replace(is_anonymous=True), _F, _this_call("M7")],
     3, "call C1: unknown target id 'M7'"),
], ids=["field-names-by-owner", "owner-before-ordinal", "target-before-anonymous"])
def test_the_first_fault_follows_the_check_order(decls, line, error):
    """The same fault, built as tables and loaded as numbered records."""
    tables = [[decl for decl in decls if type(decl) is kind]
              for kind in (TypeDecl, MethodDecl, FieldDecl, CallSite)]
    with pytest.raises(FactError) as built:
        SourceModel(*tables)
    assert str(built.value) == error
    with pytest.raises(FactError) as loaded:
        load_records(enumerate(records_of(decls), start=1))
    assert (str(loaded.value), loaded.value.line) == (f"line {line}: {error}", line)


def test_call_ordinal_must_fit_caller_body():
    call = {"k": "call", "id": "C1", "caller": "M1", "target": "M1",
            "recv": {"kind": "this"}, "ord": 3, "pass": []}
    with pytest.raises(FactError, match="line 3: call C1: ordinal"):
        load_facts(lines(TYPE, METHOD, call))


def test_caller_without_body_rejected():
    sig = dict(METHOD, id="M2", name="g", abstract=True, stmts=0)
    call = {"k": "call", "id": "C1", "caller": "M2", "target": "M1",
            "recv": {"kind": "this"}, "ord": 1, "pass": []}
    with pytest.raises(FactError, match="ordinal"):
        load_facts(lines(TYPE, METHOD, sig, call))


def test_passthrough_indices_validated():
    callee = dict(METHOD, id="M2", name="g", params=["int"], stmts=1)
    call = {"k": "call", "id": "C1", "caller": "M1", "target": "M2",
            "recv": {"kind": "this"}, "ord": 1, "pass": [[1, 0]]}
    with pytest.raises(FactError, match="pass-through argument"):
        load_facts(lines(TYPE, METHOD, callee, call))
    with pytest.raises(FactError) as err:  # the caller M1 takes no parameter
        load_facts(lines(TYPE, METHOD, callee, {**call, "pass": [[0, 0]]}))
    assert str(err.value) == (
        "line 4: call C1: pass-through parameter index 0 outside caller arity 0")
    assert err.value.line == 4


def test_anonymous_type_requires_enclosing():
    with pytest.raises(FactError, match="anonymous"):
        load_facts(lines(dict(TYPE, anon=True)))


@pytest.mark.parametrize("records, error", [
    ([dict(TYPE, encl="T1")], "line 1: type T1: cyclic enclosing-type chain"),
    ([TYPE, dict(TYPE, id="T2", name="B", encl="T3"), dict(TYPE, id="T3", name="C", encl="T2")],
     "line 2: type T2: cyclic enclosing-type chain"),
], ids=["self", "two-types"])
def test_cyclic_enclosing_type_chain_rejected(records, error):
    with pytest.raises(FactError) as err:
        load_facts(lines(*records))
    assert str(err.value) == error


def test_duplicate_field_name_in_a_type_rejected():
    field = {"k": "field", "id": "F1", "owner": "T1", "name": "x", "type": "int",
             "vis": "private"}
    with pytest.raises(FactError) as err:
        load_facts(lines(TYPE, field, dict(field, id="F2", type="String")))
    assert str(err.value) == "line 3: field F2: duplicate field name 'x' in type T1"
    assert err.value.line == 3


def test_dangling_receiver_field_rejected():
    call = {"k": "call", "id": "C1", "caller": "M1", "target": "M1",
            "recv": {"kind": "field", "field": "F9"}, "ord": 1, "pass": []}
    with pytest.raises(FactError) as err:
        load_facts(lines(TYPE, METHOD, call))
    assert "F9" in str(err.value) and "line 3" in str(err.value)


# -- overrides --------------------------------------------------------------------


def test_paste_execute_overrides_abstract_command_execute(command_model):
    paste = command_model.resolve_method("PasteCommand.execute")
    base = command_model.resolve_method("AbstractCommand.execute")
    assert base.id in command_model.overrides_all(paste.id)
    assert paste.id in command_model.overridden_by(base.id)


def test_same_signature_without_subtype_edge_is_not_override():
    t2 = dict(TYPE, id="T2", name="B")
    m2 = dict(METHOD, id="M2", owner="T2")
    model = load_facts(lines(TYPE, t2, METHOD, m2))
    for mid in ("M1", "M2"):
        assert model.overrides_all(mid) == frozenset() == model.overridden_by(mid)


def test_interface_implementation_is_an_override(command_model):
    impl = command_model.resolve_method("AbstractCommand.execute")
    iface = command_model.resolve_method("Command.execute")
    assert iface.id in command_model.overrides_all(impl.id)
    assert impl.id in command_model.overridden_by(iface.id)


def test_overrides_matches_oracle_on_random_models():
    rng = random.Random(1234)
    for _ in range(40):
        model = random_model(rng)
        full = oracles.overrides_full(model)
        for mid in model.methods:
            assert model.overrides_all(mid) == {b for a, b in full if a == mid}
            assert model.overridden_by(mid) == {a for a, b in full if b == mid}


@pytest.mark.parametrize("first", ["overrides_all", "overridden_by"])
def test_lazy_relations_match_oracles_in_either_read_order(first):
    rng = random.Random(5150)
    transitive = 0
    for i in range(120):
        records = dense_hierarchy(rng) if i % 2 else random_model(rng).to_records()
        model = load_records(records)
        full = oracles.overrides_full(model)
        order = ["overrides_all", "overridden_by"]
        if first == "overridden_by":
            order.reverse()
        got = {name: {mid: getattr(model, name)(mid) for mid in model.methods}
               for name in order}
        for mid in model.methods:
            assert got["overrides_all"][mid] == {b for a, b in full if a == mid}
            assert got["overridden_by"][mid] == {a for a, b in full if b == mid}
        pairs = oracles.subtype_pairs(model)
        for tid in model.types:
            in_scope = scope_test(model, tid)
            assert model.type_by_name(tid).id == tid
            assert {t for t in model.types if in_scope(t)} == {a for a, b in pairs if b == tid}
        for group in combinations(model.types, 2):
            assert model.common_ancestor(group) == oracles.common_ancestor(model, group, pairs)
        transitive += any(len(above) > 1 for above in got["overrides_all"].values())
    assert transitive > 30


def _one_closure(model) -> bool:
    """The model keeps the ancestor closure only: no inverted copy of it and
    no per-method table of the override relation."""
    return not any(hasattr(model, name) for name in
                   ("subtree", "_descendants", "_overrides_all", "_overridden_by"))


def test_overridden_by_matches_oracle_without_inverting_the_closure():
    rng = random.Random(4321)
    for _ in range(40):
        records = random_model(rng).to_records()
        for policy in DispatchPolicy:
            model = load_records(records, policy=policy)
            full = oracles.overrides_full(model)
            for mid in model.methods:
                assert model.overridden_by(mid) == {a for a, b in full if b == mid}
            model.lifted_edges()
            assert _one_closure(model)
    # T0 extends T1 extends ... T1199, with f() declared on every third
    # level and an overload f(int) on every fifth.  The fixpoint oracle is
    # too slow at this depth; on a chain its pairs are (f at i, f at j) for
    # every declaring i < j.
    depth = 1200
    types = [dict(TYPE, id=f"T{i}", name=f"L{i}", super=[f"T{i + 1}"] if i + 1 < depth else [])
             for i in range(depth)]
    methods = [dict(METHOD, id=f"M{i}", owner=f"T{i}") for i in range(0, depth, 3)]
    overloads = [dict(METHOD, id=f"N{i}", owner=f"T{i}", params=["int"])
                 for i in range(0, depth, 5)]
    model = load_records(types + methods + overloads)
    for i in (0, 3, 300, 597, 1197):
        assert model.overridden_by(f"M{i}") == {f"M{j}" for j in range(0, i, 3)}
    for i in (0, 5, 1195):
        assert model.overridden_by(f"N{i}") == {f"N{j}" for j in range(0, i, 5)}
    assert _one_closure(model)


def test_overrides_irreflexive_and_acyclic():
    rng = random.Random(77)
    for _ in range(30):
        model = random_model(rng)
        full = {(a, b) for a in model.methods for b in model.overrides_all(a)}
        assert all(a != b for a, b in full)
        assert not any((b, a) in full for a, b in full)


# -- the hierarchy relations against the oracles -------------------------------------


def _relations_match_oracles(model):
    """Assert that ``is_subtype``, ``subtype_test``, ``ancestors``,
    ``overrides_all``, ``overridden_by`` and ``common_ancestor`` (of every
    group of one to three types, and of none) equal the oracles'."""
    pairs = oracles.subtype_pairs(model)
    full = oracles.overrides_full(model)
    unknown = model.subtype_test("no such type")
    for a in model.types:
        assert model.ancestors(a) == {b for x, b in pairs if x == a}
        assert [model.is_subtype(a, b) for b in model.types] == [(a, b) in pairs
                                                                 for b in model.types]
        assert [model.subtype_test(b)(a) for b in model.types] == [(a, b) in pairs
                                                                   for b in model.types]
        assert not model.is_subtype(a, "no such type") and not unknown(a)
    for mid in model.methods:
        assert model.overrides_all(mid) == {b for a, b in full if a == mid}
        assert model.overridden_by(mid) == {a for a, b in full if b == mid}
    for size in (1, 2, 3):
        for group in combinations(model.types, size):
            assert model.common_ancestor(group) == oracles.common_ancestor(model, group, pairs)
    assert model.common_ancestor([]) is None


@pytest.mark.parametrize("policy", list(DispatchPolicy))
def test_hierarchy_relations_match_oracles_on_random_models(policy):
    """Random models (supertypes declared first) and dense hierarchies (ids
    shuffled against hierarchy order), under each policy."""
    rng = random.Random(2718)
    for i in range(40):
        if i % 2:
            model = load_records(dense_hierarchy(rng), policy=policy)
        else:
            model = random_model(rng, policy=policy)
        _relations_match_oracles(model)
        assert model.lifted_edges() == oracles.lifted(model, policy.value)


def _type(tid, name, *supers, kind="class"):
    return dict(TYPE, id=tid, name=name, kind=kind, abstract=kind == "interface",
                super=list(supers))


def _method(mid, owner, name="f", params=()):
    return dict(METHOD, id=mid, owner=owner, name=name, params=list(params))


def test_hierarchy_relations_match_oracles_on_diamonds_and_multiple_interfaces():
    """Interfaces I1 and I2 both extend I0; C1 implements both, C2 extends
    C1 and implements I3 and I2 again, and D extends C2.  Ids put each
    subtype before its supertypes, and nine unrelated types declare
    ``h()`` too."""
    records = [
        _type("T1", "D", "T2"),
        _type("T2", "C2", "T3", "T4", "T5"),
        _type("T3", "C1", "T6", "T5"),
        _type("T4", "I3", kind="interface"),
        _type("T5", "I2", "T7", kind="interface"),
        _type("T6", "I1", "T7", kind="interface"),
        _type("T7", "I0", kind="interface"),
        _method("M1", "T7"), _method("M2", "T7", "g"), _method("M3", "T6"),
        _method("M4", "T5", params=["int"]), _method("M5", "T4", "h"),
        _method("M6", "T3"), _method("M7", "T3", params=["int"]),
        _method("M8", "T2", "g"), _method("M9", "T2", "h"),
        _method("M10", "T1"), _method("M11", "T1", "g"), _method("M12", "T1", "h"),
    ]
    records += [_type(f"U{i}", f"other.U{i}") for i in range(9)]
    records += [_method(f"N{i}", f"U{i}", "h") for i in range(9)]
    model = load_records(records)
    _relations_match_oracles(model)
    assert model.overrides_all("M10") == {"M6", "M3", "M1"}
    assert model.overrides_all("M12") == {"M9", "M5"}
    assert model.common_ancestor(["T1", "T3"]) == "T3"
    assert model.common_ancestor(["T4", "T5"]) is None
    assert model.common_ancestor(["T5", "T6"]) == "T7"


def test_hierarchy_relations_match_oracles_over_external_supertypes():
    """Supertypes no record declares become external types, whose closure
    and overrides are read as any other type's."""
    records = [
        _type("T1", "app.Shape", "lib.Base", "lib.Drawable"),
        _type("T2", "app.Box", "T1", "lib.Drawable"),
        _type("T3", "app.Other", "lib.Other"),
        _method("M1", "T1", "draw"), _method("M2", "T2", "draw"), _method("M3", "T3", "draw"),
    ]
    model = load_records(records)
    assert [tid for tid, t in model.types.items() if t.is_external] == [
        "lib.Base", "lib.Drawable", "lib.Other"]
    _relations_match_oracles(model)
    assert model.ancestors("T2") == {"T2", "T1", "lib.Base", "lib.Drawable"}
    assert model.is_subtype("T2", "lib.Base") and not model.is_subtype("lib.Base", "T2")
    assert model.common_ancestor(["T2", "T1"]) == "T1"
    assert model.common_ancestor(["T1", "T3"]) is None


def test_hierarchy_relations_on_a_3000_level_chain_declared_child_first():
    """T0 extends T1 extends ... T2999, with f() declared on every third
    level and f(int) on every fifth.  The fixpoint oracles are too slow at
    this depth; on a chain their subtype pairs are (Ti, Tj) for every
    i <= j, their override pairs those of declaring levels i < j, and the
    common ancestor of some levels is the highest of them."""
    depth = 3000
    types = [_type(f"T{i}", f"L{i}", *([f"T{i + 1}"] if i + 1 < depth else []))
             for i in range(depth)]
    methods = [_method(f"M{i}", f"T{i}") for i in range(0, depth, 3)]
    overloads = [_method(f"N{i}", f"T{i}", params=["int"]) for i in range(0, depth, 5)]
    model = load_records(types + methods + overloads)
    sample = [*range(0, depth, 97), 1998, 1999, 2000, depth - 1]
    for i in sample:
        assert model.ancestors(f"T{i}") == {f"T{j}" for j in range(i, depth)}
        assert [model.is_subtype(f"T{i}", f"T{j}") for j in sample] == [j >= i for j in sample]
    for i in [i for i in sample if i % 3 == 0] + [0, 3, 1995, 1998, 2001, 2967, 2970, 2997]:
        # 2999 - i proper ancestors: more than the 1,000 methods of f()
        # below level 1999, fewer from there on, and fewer than 32 from
        # level 2968 on
        assert model.overrides_all(f"M{i}") == {f"M{j}" for j in range(i + 3, depth, 3)}
        assert model.overridden_by(f"M{i}") == {f"M{j}" for j in range(0, i, 3)}
    for i in (0, 5, 1995, 2000, 2995):
        assert model.overrides_all(f"N{i}") == {f"N{j}" for j in range(i + 5, depth, 5)}
        assert model.overridden_by(f"N{i}") == {f"N{j}" for j in range(0, i, 5)}
    for group in ([0], [0, 600, 900], [2999, 5], [1, 2, 3], [depth - 1]):
        assert model.common_ancestor(f"T{i}" for i in group) == f"T{max(group)}"


# -- lifted calls ------------------------------------------------------------------


def test_super_call_maps_to_static_target_only(command_model):
    paste = command_model.resolve_method("PasteCommand.execute")
    base = command_model.resolve_method("AbstractCommand.execute")
    iface = command_model.resolve_method("Command.execute")
    static = command_model.lifted_edges(DispatchPolicy.STATIC_ONLY)
    assert (paste.id, base.id) in static
    assert (paste.id, iface.id) not in static


def test_lift_to_ancestors_adds_interface_declaration(command_model):
    paste = command_model.resolve_method("PasteCommand.execute")
    iface = command_model.resolve_method("Command.execute")
    lifted = command_model.lifted_edges(DispatchPolicy.LIFT_TO_ANCESTORS)
    assert (paste.id, iface.id) in lifted


def test_policy_monotonicity_on_random_models():
    rng = random.Random(999)
    for _ in range(40):
        model = random_model(rng)
        static = model.lifted_edges(DispatchPolicy.STATIC_ONLY)
        up = model.lifted_edges(DispatchPolicy.LIFT_TO_ANCESTORS)
        both = model.lifted_edges(DispatchPolicy.LIFT_BOTH)
        assert static <= up <= both
        for policy in DispatchPolicy:
            want = oracles.lifted(model, policy.value)
            assert model.lifted_edges(policy) == want
            assert {
                (c.caller, m) for m in model.methods for c in model.calls_to(m, policy)
            } == want


def test_record_order_does_not_change_the_model(command_model, tmp_path):
    records = command_model.to_records()
    shuffled = list(records)
    random.Random(5).shuffle(shuffled)
    reloaded = load_records(shuffled)
    assert reloaded.to_records() == records
    assert reloaded.lifted_edges() == command_model.lifted_edges()
    # The same from a file of those records, decoded and then from its sidecar.
    path = tmp_path / "shuffled.jsonl"
    path.write_text(dumps_facts(shuffled))
    assert load_facts_path(path).to_records() == records
    with pytest.MonkeyPatch.context() as patch:
        _no_cold_loads(patch)
        hit = load_facts_path(path)
    assert hit.to_records() == records
    assert hit.lifted_edges() == command_model.lifted_edges()


def _corpus_records() -> list[dict]:
    units = [parse((CORPUS / name).read_text(), name) for name in CORPUS_FILES]
    return list(records_of(extract_facts(units).records))


def test_to_records_round_trip(undo_model):
    again = load_records(undo_model.to_records())
    assert again.to_records() == undo_model.to_records()
    # Every key the frontend writes, the optional ones included, comes back.
    extracted = _corpus_records()
    assert {json.dumps(r, sort_keys=True) for r in load_records(extracted).to_records()} \
        == {json.dumps(r, sort_keys=True) for r in extracted}


def _declarations(model) -> list:
    return [*model.types.values(), *model.methods.values(), *model.fields.values(),
            *model.calls.values()]


def test_the_writer_agrees_with_the_reader():
    """Each record ``records_of`` writes holds its kind's required ``_RECORDS``
    keys, plus each optional key exactly when its value is truthy, and
    ``load_records`` of the records gives back equal declarations.  The
    inputs: each corpus file's extraction, one with unresolved names (which
    makes ``ext`` entities), and 300 random models under each policy."""
    sources = [((CORPUS / name).read_text(), name) for name in CORPUS_FILES]
    sources.append(("class A extends Gone { void f() { g(); new Lost().h(); } }", "ext.mini"))
    cases = [(extract_facts([parse(text, name)]).records, DispatchPolicy.LIFT_TO_ANCESTORS)
             for text, name in sources]
    rng = random.Random(2020)
    for policy in DispatchPolicy:
        cases += [(_declarations(random_model(rng, policy=policy)), policy) for _ in range(300)]
    written = set()
    for decls, policy in cases:
        records = list(records_of(decls))
        assert len(records) == len(decls)
        for decl, rec in zip(decls, records):
            decl_class, keys = model_module._RECORDS[rec["k"]]
            assert type(decl) is decl_class, rec
            assert rec.keys() == {"k"} | {key.name for key in keys
                                          if not key.optional or getattr(decl, key.attr)}, rec
            written |= {(rec["k"], key) for key in rec}
        model = load_records(records, policy=policy)
        assert {d.id: d for d in _declarations(model)} == {d.id: d for d in decls}
    assert {("type", "ext"), ("method", "ext"), ("method", "raises")} <= written


def test_resolve_method_forms(command_model):
    by_both = command_model.resolve_method("DrawingView.checkDamage")
    assert command_model.resolve_method("checkDamage").id == by_both.id
    assert command_model.resolve_method("DrawingView.checkDamage/0").id == by_both.id
    with pytest.raises(FactError, match="ambiguous"):
        command_model.resolve_method("execute")
    with pytest.raises(FactError, match="unknown method"):
        command_model.resolve_method("DrawingView.nope")
    # The form a query binding, seedexpand and callers print.
    assert command_model.resolve_method("DrawingView.checkDamage()").id == by_both.id
    assert command_model.resolve_method("checkDamage()").id == by_both.id
    ref = "DrawingView.checkDamage(int)"
    with pytest.raises(FactError, match=re.escape(f"unknown method: {ref!r}")):
        command_model.resolve_method(ref)


def _scan_type(model, name):
    for t in model.types.values():
        if t.qualified_name == name:
            return t
    hits = [t for t in model.types.values() if t.qualified_name.rsplit(".", 1)[-1] == name]
    return hits[0] if len(hits) == 1 else model.types.get(name)


def _scan_method(model, ref):
    """resolve_method restated as a linear scan; returns an id or the error text."""
    if ref in model.methods:
        return ref
    arity = None
    if "/" in ref:
        ref, suffix = ref.rsplit("/", 1)
        if not suffix.isdigit():
            return f"bad arity suffix in method reference: {ref}/{suffix}"
        arity = int(suffix)
    listed = re.fullmatch(r"([^(]*)\((.*)\)", ref)
    head = listed[1] if listed else ref
    if "." in head:
        type_name, name = head.rsplit(".", 1)
        owner = _scan_type(model, type_name)
        if owner is None:
            return f"unknown type: {type_name!r}"
        pool = [m for m in model.methods.values() if m.owner == owner.id and m.name == name]
    else:
        pool = [m for m in model.methods.values() if m.name == head]
    pool = [m for m in pool if arity is None or len(m.param_types) == arity]
    if listed:
        wanted = listed[2].split(",") if listed[2] else []
        pool = [m for m in pool if list(m.param_types) == wanted]
    if not pool:
        return f"unknown method: {ref!r}"
    if len(pool) > 1:
        options = ", ".join(sorted(model.method_sig(m.id) for m in pool))
        return f"ambiguous method reference {ref!r}: {options}"
    return pool[0].id


def test_name_indexes_match_linear_scans_on_random_models():
    rng = random.Random(77)
    for _ in range(60):
        records = random_model(rng).to_records()
        types = [r for r in records if r["k"] == "type"]
        for rec in types:  # shared qualified and simple names
            if rng.random() < 0.3:
                other = rng.choice(types)["name"]
                rec["name"] = rng.choice([other, "z." + other.rsplit(".", 1)[-1]])
        model = load_records(records)
        names = {t.qualified_name for t in model.types.values()} | set(model.types)
        names |= {n.rsplit(".", 1)[-1] for n in names} | {"nope", "p1"}
        for name in sorted(names):
            assert model.type_by_name(name) == _scan_type(model, name)
        refs = set(model.methods) | {"nope", "run/x"}
        for m in model.methods.values():
            for type_name in (model.types[m.owner].qualified_name, m.owner, "nope"):
                params = ",".join(m.param_types)
                refs |= {m.name, f"{m.name}/{m.arity}", f"{type_name}.{m.name}",
                         f"{type_name}.{m.name}/{m.arity}", f"{type_name}.{m.name}/9",
                         f"{m.name}({params})", f"{type_name}.{m.name}({params})",
                         f"{type_name}.{m.name}({params})/{m.arity}",
                         f"{type_name}.{m.name}(nope)", f"{type_name}.{m.name}()"}
        for ref in sorted(refs):
            try:
                got = model.resolve_method(ref).id
            except FactError as exc:
                got = str(exc)
            assert got == _scan_method(model, ref), ref


# -- the record decoder against the hand-written one it replaced --------------------

_MUTANT_VALUES = (None, "x", 1, -1, True, 1.5, [], {}, ["x"], [1])
_BROKEN_PAIRS = ([[0]], [[0, 0, 0]], [[0, "x"]], [[True, 0]], [[0, None]], [[1.5, 0]],
                 [0], [None], [{}], [[0, 0], [1]])


def _mutants(rec):
    """Each key (and each receiver sub-key) dropped, nulled and retyped,
    every two keys dropped or retyped together (the first fault in check
    order is reported), and the pass-through pairs broken."""
    def each(parent, key):
        yield {k: v for k, v in parent.items() if k != key}
        for value in _MUTANT_VALUES:
            yield dict(parent, **{key: value})

    keys = sorted(set(rec) | {"src", "ext", "raises"})
    for key in keys:
        yield from each(rec, key)
    for first, second in combinations(keys, 2):
        yield {k: v for k, v in rec.items() if k not in (first, second)}
        yield dict(rec, **{first: 1.5, second: 1.5})
    if rec["k"] == "call":
        recv = rec["recv"]
        own = {"field": ["field"], "param": ["index"]}.get(recv["kind"], [])
        for sub_key in ["kind", *own]:
            for mutant in each(recv, sub_key):
                yield dict(rec, recv=mutant)
        for pairs in _BROKEN_PAIRS:
            yield dict(rec, **{"pass": pairs})


def _decoded(rec, line):
    """The declaration of one record, as ``load_records`` checks a chunk."""
    decls, _, _ = model_module._decode_chunk([(line, rec)], {})
    (decl,) = chain.from_iterable(decls.values())
    return decl


def test_decoder_matches_the_reference_decoder_under_mutation():
    records = _corpus_records()
    rng = random.Random(31)
    for _ in range(6):
        records += random_model(rng).to_records()
    kinds, divergent, errors = set(), set(), set()
    for rec in records:
        kinds.add(rec["k"] if rec["k"] != "call" else f"call/{rec['recv']['kind']}")
        for mutant in _mutants(rec):
            try:
                got = _decoded(mutant, 7)
            except FactError as exc:
                got = str(exc)
            try:
                want = oracles.decode_record(mutant, 7)
            except FactError as exc:
                want = str(exc)
            except TypeError:
                want = None
            case, added = oracles.refused_by_the_tables(mutant)
            if case is not None and not isinstance(want, str):
                assert got == f"line 7: {added}", mutant
                divergent.add(case)
                continue
            assert got == want, mutant
            if isinstance(got, str):
                errors.add(got)
    assert kinds == {"type", "method", "field", *(f"call/{kind.value}" for kind in ReceiverKind)}
    assert divergent == {"src", "ext", "receiver kind", "index"}
    assert len(errors) > 150


# -- the column-checked loader against the per-record one ------------------------------


def _outcome(load, records):
    try:
        return load(records).to_records()
    except FactError as exc:
        return str(exc)


def _shape(rec) -> str:
    return rec["k"] if rec["k"] != "call" else f"call/{rec['recv']['kind']}"


def _unit_records(name: str) -> list[dict]:
    return list(records_of(
        extract_facts([parse((CORPUS / name).read_text(), name)]).records))


def test_load_records_matches_the_per_record_loader_under_mutation():
    """Each ``_mutants`` case of one record per shape takes that record's
    place at a random position; the model, or the error and its line, is
    the reference loader's.  Half the cases carry line numbers."""
    rng = random.Random(47)
    bases = [_unit_records(name) for name in CORPUS_FILES]
    bases += [random_model(rng).to_records() for _ in range(6)]
    shapes, cases, errors = set(), 0, set()
    for base in bases:
        load_records(base)
        for index, rec in enumerate(base):
            if _shape(rec) in shapes:
                continue
            shapes.add(_shape(rec))
            rest = base[:index] + base[index + 1:]
            for mutant in _mutants(rec):
                records = list(rest)
                records.insert(rng.randrange(len(records) + 1), mutant)
                if cases % 2:
                    records = list(enumerate(records, start=1))
                got = _outcome(load_records, records)
                assert got == _outcome(oracles.load_records_per_record, records), mutant
                if isinstance(got, str):
                    errors.add(got.split(": ", 1)[1] if cases % 2 else got)
                cases += 1
    assert shapes == {"type", "method", "field", *(f"call/{kind.value}" for kind in ReceiverKind)}
    assert cases > 2000 and len(errors) > 250


_DEEP = b"[" * 100_000 + b"]" * 100_000

#: Ways to break or pad one line of a facts file.
_LINE_MUTANTS = {
    "trailing-data": lambda line: line + b" x",
    "two-objects": lambda line: line + b" " + line,
    "utf8-bom": lambda line: b"\xef\xbb\xbf" + line,
    "nbsp-padding": lambda line: "\xa0".encode() + line + "\xa0".encode(),
    "form-feed-padding": lambda line: b"\x0c" + line + b"\x0c",
    "crlf": lambda line: line + b"\r",
    "nan-in-unknown-key": lambda line: line[:-1] + b', "x": NaN}',
    "nan-as-src": lambda line: line[:-1] + b', "src": NaN}',
    "huge-int": lambda line: line[:-1] + b', "x": ' + b"1" * 5000 + b"}",
    "deep-nesting": lambda line: line[:-1] + b', "x": ' + _DEEP + b"}",
    "deep-array": lambda line: _DEEP,
    "invalid-utf8": lambda line: line[:-1] + b', "x": "\xff"}',
    "truncated": lambda line: line[:len(line) // 2],
    "array": lambda line: b"[" + line + b"]",
    "blank": lambda line: b" \t ",
    "repeated": lambda line: line + b"\n" + line,
}


@pytest.mark.parametrize("make_scanner", [c_make_scanner, py_make_scanner],
                         ids=["c-scanner", "py-scanner"])
@pytest.mark.parametrize("mutate", list(_LINE_MUTANTS.values()), ids=list(_LINE_MUTANTS))
def test_load_facts_path_matches_the_per_line_loader(tmp_path, monkeypatch, make_scanner,
                                                      mutate):
    if make_scanner is None:
        pytest.skip("the interpreter has no C JSON scanner")
    monkeypatch.setattr(model_module, "_scan_once", make_scanner(json.JSONDecoder()))
    lines = [json.dumps(rec, sort_keys=True).encode() for rec in _unit_records("command.mini")]
    path = tmp_path / "facts.jsonl"
    for index in (0, len(lines) // 2, len(lines) - 1):
        mutated = lines[:index] + [mutate(lines[index])] + lines[index + 1:]
        path.write_bytes(b"".join(line + b"\n" for line in mutated))
        with open(path, "rb") as handle:
            want = _outcome(oracles.load_facts_per_record, handle)
        assert _outcome(load_facts_path, path) == want


#: Chunk sizes small enough that every test file crosses chunk boundaries.
_SMALL_CHUNKS = pytest.mark.parametrize("size", [1, 3], ids=["chunk-1", "chunk-3"])


@_SMALL_CHUNKS
def test_load_records_matches_the_per_record_loader_in_small_chunks(monkeypatch, size):
    monkeypatch.setattr(model_module, "_CHUNK", size)
    test_load_records_matches_the_per_record_loader_under_mutation()


@_SMALL_CHUNKS
@pytest.mark.parametrize("make_scanner", [c_make_scanner, py_make_scanner],
                         ids=["c-scanner", "py-scanner"])
@pytest.mark.parametrize("mutate", list(_LINE_MUTANTS.values()), ids=list(_LINE_MUTANTS))
def test_load_facts_path_matches_the_per_line_loader_in_small_chunks(
        tmp_path, monkeypatch, make_scanner, mutate, size):
    monkeypatch.setattr(model_module, "_CHUNK", size)
    test_load_facts_path_matches_the_per_line_loader(tmp_path, monkeypatch, make_scanner, mutate)


def _types(count: int) -> list[dict]:
    return [dict(TYPE, id=f"T{i}", name=f"A{i}") for i in range(1, count + 1)]


def _type_line(number: int, **extra) -> bytes:
    return json.dumps(dict(TYPE, id=f"X{number}", name=f"X{number}", **extra)).encode()


def _split(line: bytes, after: bytes) -> list[bytes]:
    """The line broken in two after the first ``after``."""
    cut = line.index(after) + len(after)
    return [line[:cut], line[cut:]]


#: Lines that a decoder reading more than one line at a time could misread:
#: objects that span lines, lines that hold more or less than one object,
#: padding, and lines that the scanner refuses.  Each case's lines take the
#: place of no record.
_DECODE_CASES = {
    "spans-at-[": _split(_type_line(1, super=["T1"]), b'"super": ['),
    "spans-at-[-between-objects": _split(_type_line(1, x=[{}, {}]), b"[{}, "),
    "spans-at-{": _split(_type_line(1, x={"a": 1}), b'"x": {'),
    "spans-after-{": _split(_type_line(1), b"{"),
    "string-spans-lines": _split(_type_line(1, src="a b"), b'"a'),
    "two-objects-on-a-line": [_type_line(1) + b", " + _type_line(2)],
    "three-lines-the-join-parses": [  # [{X1, "x": [{}, {}]}, {X2}, {X3}] when joined
        _split(_type_line(1, x=[{}, {}]), b"[{}")[0],
        b"{}]}, " + _type_line(2), _type_line(3)],
    "join-in-a-string": [_type_line(1, src="a}, {b"), _type_line(2, src="}  ,\t{")],
    "blank-lines": [b"", _type_line(1), b" \t ", b"", _type_line(2)],
    "crlf": [_type_line(1) + b"\r", b"\r", _type_line(2) + b"\r"],
    "x1c-padding": [b"\x1c" + _type_line(1) + b"\x1c", b"\x1c"],
    "u2028-padding": ["\u2028".encode() + _type_line(1) + "\u2028".encode(), _type_line(2)],
    "not-utf-8": [_type_line(1), _type_line(2)[:-1] + b', "x": "\xff"}'],
    "nan": [_type_line(1)[:-1] + b', "x": NaN}', _type_line(2)[:-1] + b', "src": NaN}'],
    "huge-int": [_type_line(1)[:-1] + b', "x": ' + b"1" * 5000 + b"}"],
    # Joined into one array with other lines, it would close that array
    # after its first object.
    "array-ends-inside-a-line": [_type_line(1) + b'],[{"b": 2}'],
}

#: The error each start line gives for the cases the per-line reader refuses
#: on their first line, by case.
_DECODE_ERRORS = {"array-ends-inside-a-line": "invalid JSON: Extra data"}


def _nested_line(depth: int) -> bytes:
    return _type_line(1)[:-1] + b', "x": ' + b"[" * depth + b"]" * depth + b"}"


def _outcomes(stream) -> tuple:
    """The outcome of ``load_facts``, then that of the per-line reader."""
    return _outcome(load_facts, stream), _outcome(oracles.load_facts_per_record, stream)


@pytest.mark.parametrize("case", [*_DECODE_CASES, "nesting-at-the-limit"])
def test_load_facts_decodes_a_chunk_as_the_per_line_reader_does(case):
    """Each case's lines start at line 1, 1,024, 1,025 and after the last
    record of 1,100; the model, or the error and its line, is the one that
    decoding each line alone gives."""
    records = [json.dumps(rec).encode() + b"\n" for rec in _types(1100)]
    if case == "nesting-at-the-limit":
        # The deepest line the per-line reader takes, one level less and
        # one more.
        low, high = 1, sys.getrecursionlimit()
        while low < high:
            mid = (low + high + 1) // 2
            ok = not isinstance(_outcomes([_nested_line(mid)])[1], str)
            low, high = (mid, high) if ok else (low, mid - 1)
        variants = [[_nested_line(depth)] for depth in (low - 1, low, low + 1)]
    else:
        variants = [_DECODE_CASES[case]]
    for lines in variants:
        for start in (1, 1024, 1025, len(records) + 1):
            stream = records[:start - 1] + [line + b"\n" for line in lines] + records[start - 1:]
            got, want = _outcomes(stream)
            assert got == want, start
            if case in _DECODE_ERRORS:
                assert got == f"line {start}: {_DECODE_ERRORS[case]}"


@pytest.fixture(params=[1, 3, None], ids=["chunk-1", "chunk-3", "default"])
def chunk(request, monkeypatch) -> int:
    """The loader's chunk size for a test: 1, 3 or the default.  The inputs
    below span two chunks or more at each."""
    if request.param is not None:
        monkeypatch.setattr(model_module, "_CHUNK", request.param)
    return model_module._CHUNK


def test_a_later_line_that_is_not_json_outranks_an_earlier_bad_record(chunk):
    records = _types(2 * chunk + 2)
    stream = lines(dict(records[0], kind="struct"), *records[1:]) + ["{nope"]
    with pytest.raises(FactError) as err:
        load_facts(stream)
    assert err.value.line == len(stream)
    assert str(err.value) == _outcome(oracles.load_facts_per_record, stream)
    assert str(err.value).startswith(f"line {len(stream)}: invalid JSON: ")


def test_a_duplicate_of_an_id_from_an_earlier_chunk_names_the_later_line(chunk):
    records = _types(chunk + 2)
    stream = lines(*records, records[0])
    with pytest.raises(FactError) as err:
        load_facts(stream)
    assert str(err.value) == f"line {len(stream)}: duplicate id 'T1'"
    assert str(err.value) == _outcome(oracles.load_facts_per_record, stream)


def test_load_records_reads_a_plain_list_of_dicts_across_chunks(chunk):
    records = _types(chunk + 2)
    records += [dict(METHOD, id=f"M{i}", owner=f"T{i}") for i in range(1, len(records) + 1)]
    assert load_records(records).to_records() == oracles.load_records_per_record(
        records).to_records()
    records.append(dict(records[-1], stmts=-1, id="M0"))
    with pytest.raises(FactError) as err:
        load_records(records)
    assert str(err.value) == _outcome(oracles.load_records_per_record, records)
    assert err.value.line is None


def _faulty(records: list[dict], *faults: tuple[int, dict]) -> list[tuple[int, dict]]:
    """The records with each (index, record) fault in that place, numbered
    from line 1."""
    records = list(records)
    for index, rec in faults:
        records[index] = rec
    return list(enumerate(records, start=1))


def test_load_records_reports_the_first_of_several_faults(chunk):
    """Hand-made inputs with more than one fault, then 2-4 ``_mutants``
    cases and a repeat of a valid record's id at random positions in one
    base; the model, or the error and its line, is the reference loader's."""
    # Lines 1-6 are types, 7-12 methods and 13 a call.
    base = [*_types(6), *(dict(METHOD, id=f"M{i}", owner=f"T{i}") for i in range(1, 7)),
            {"k": "call", "id": "C1", "caller": "M1", "target": "M2",
             "recv": {"kind": "this"}, "ord": 1, "pass": []}]

    def fault(index: int, **change) -> tuple[int, dict]:
        return index, dict(base[index], **change)

    cases = {
        # A later record whose failing key comes earlier in table order.
        "line 8: bad value for 'owner': 1": _faulty(
            base, fault(7, owner=1), fault(9, vis="publik")),
        "line 8: bad visibility 'publik'": _faulty(
            base, fault(7, vis="publik"), fault(9, owner=1)),
        # Faults in two kinds, each one first.
        "line 2: bad type kind 'struct'": _faulty(base, fault(1, kind="struct"), fault(7, owner=1)),
        "line 8: negative statement count -1": _faulty(
            base, fault(12, ord=True), fault(7, stmts=-1)),
        "line 4: bad value for 'ord': True": _faulty(
            base, (3, dict(base[12], ord=True)), fault(7, stmts=-1)),
        # A duplicate id before a bad key, and after one.
        "line 4: duplicate id 'T1'": _faulty(base, (3, base[0]), fault(5, kind="struct")),
        "line 4: bad value for 'name': 1": _faulty(base, fault(3, name=1), (5, base[0])),
        "line 5: missing key 'stmts' in method record": _faulty(
            base, (4, {k: v for k, v in base[7].items() if k != "stmts"}), (9, base[0])),
    }
    for want, records in cases.items():
        assert _outcome(load_records, records) == want
        assert _outcome(oracles.load_records_per_record, records) == want

    rng = random.Random(53)
    bases = [_unit_records(name) for name in CORPUS_FILES]
    bases += [random_model(rng).to_records() for _ in range(6)]
    mutants: dict[str, list[dict]] = {}
    for rec in chain.from_iterable(bases):
        if _shape(rec) not in mutants:
            mutants[_shape(rec)] = list(_mutants(rec))
    shapes = sorted(mutants)
    errors = set()
    for case in range(1500):
        records = list(rng.choice(bases))
        faults = [rng.choice(mutants[rng.choice(shapes)]) for _ in range(rng.randint(2, 4))]
        faults.append(dict(rng.choice(records)))
        for fault in faults:
            records.insert(rng.randrange(len(records) + 1), fault)
        if case % 2:
            records = list(enumerate(records, start=1))
        got = _outcome(load_records, records)
        assert got == _outcome(oracles.load_records_per_record, records), case
        errors.add(got.split(": ", 1)[1] if case % 2 else got)
    assert len(errors) > 150


def test_a_record_that_is_not_a_dict_is_refused_and_a_str_subclass_loads(chunk):
    """``load_facts`` words the error for a line that is not an object.
    An ``str`` subclass passes a key whose type is ``str``."""
    for item in ([1, 2], (3, "x"), None, "{}"):
        with pytest.raises(FactError) as err:
            load_records([item])
        line = item[0] if isinstance(item, tuple) else None
        assert (str(err.value), err.value.line) == (
            str(FactError("record is not a JSON object", line)), line)
        # After the records of another chunk, and before a later fault.
        records = [*_types(chunk + 1), item, dict(TYPE, kind="struct")]
        with pytest.raises(FactError) as err:
            load_records(enumerate(records, start=1))
        assert str(err.value) == f"line {chunk + 2}: record is not a JSON object"

    records = [dict(TYPE, kind=TypeKind.CLASS), dict(METHOD, vis=Visibility.PUBLIC),
               {"k": "field", "id": "F1", "owner": "T1", "name": "f", "type": "A",
                "vis": Visibility.PRIVATE},
               {"k": "call", "id": "C1", "caller": "M1", "target": "M1",
                "recv": {"kind": ReceiverKind.FIELD, "field": "F1"}, "ord": 1, "pass": []},
               {"k": "call", "id": "C2", "caller": "M1", "target": "M1",
                "recv": {"kind": ReceiverKind.THIS}, "ord": 2, "pass": []}]
    model = load_records(records)
    assert model.types["T1"].kind is TypeKind.CLASS
    assert model.methods["M1"].visibility is Visibility.PUBLIC
    assert model.to_records() == oracles.load_records_per_record(records).to_records()

    # A record of a ``dict`` subclass whose kind is a ``str`` subclass passes
    # the column checks, as it passes the walk that words a later fault.
    class Record(dict):
        pass

    class Kind(str):
        pass

    records = [Record(rec, k=Kind(rec["k"])) for rec in records]
    assert load_records(records).to_records() == model.to_records()
    with pytest.raises(FactError, match=f"^line {len(records) + 1}: duplicate id 'T1'$"):
        load_records(enumerate([*records, Record(TYPE)], start=1))


def _synthetic_records(types: int) -> list[dict]:
    """24 records per type: the type, 2 fields, 8 methods and 13 calls."""
    records = []
    for t in range(types):
        tid = f"T{t}"
        records.append(dict(TYPE, id=tid, name=f"p.Shape{t}",
                            super=[f"T{t % 10}"] if t >= 10 else []))
        records += [{"k": "field", "id": f"F{t}_{f}", "owner": tid, "name": f"f{f}",
                     "type": "p.Shape0", "vis": "private"} for f in range(2)]
        records += [dict(METHOD, id=f"M{t}_{m}", owner=tid, name=f"m{m}", stmts=3)
                    for m in range(8)]
        records += [{"k": "call", "id": f"C{t}_{c}", "caller": f"M{t}_{c % 8}",
                     "target": f"M{(t * 7 + c) % types}_{c % 8}",
                     "recv": {"kind": "field", "field": f"F{t}_1"} if c % 2 else {"kind": "this"},
                     "ord": 1 + c % 3, "pass": []} for c in range(13)]
    return records


def test_a_load_peaks_at_no_more_than_twice_the_model_it_returns(tmp_path):
    """Records are decoded and dropped a chunk at a time, so the transient
    records never outweigh the declarations they become."""
    path = tmp_path / "facts.jsonl"
    path.write_text(dumps_facts(_synthetic_records(500)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        model = load_facts_path(path)
        retained, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(model.types) + len(model.methods) + len(model.fields) + len(model.calls) == 12_000
    assert peak <= 2 * retained, (peak, retained)


# -- the column sidecar ----------------------------------------------------------------


def _cold(path, policy=DispatchPolicy.LIFT_TO_ANCESTORS):
    """The outcome of loading the file's lines, with no sidecar."""
    with open(path, "rb") as handle:
        try:
            model = load_facts(handle, policy=policy)
        except FactError as exc:
            return str(exc)
    return model.to_records(), model.policy


def _cold_text(text: str):
    model = load_facts(text.splitlines())
    return model.to_records(), model.policy


def _loaded(path, policy=DispatchPolicy.LIFT_TO_ANCESTORS):
    try:
        model = load_facts_path(path, policy=policy)
    except FactError as exc:
        return str(exc)
    return model.to_records(), model.policy


def _no_cold_loads(monkeypatch):
    """Make a load of the lines fail the test: a sidecar hit makes none."""
    def refuse(*args, **kwargs):
        raise AssertionError("the lines were decoded")
    monkeypatch.setattr(model_module, "load_records", refuse)


def test_a_sidecar_hit_equals_the_cold_load(tmp_path):
    """On the corpus extracts and on random models under each policy, the
    first load writes the sidecar and the second builds the same model from
    it without decoding a line."""
    rng = random.Random(61)
    cases = [(name, _unit_records(name), DispatchPolicy.LIFT_TO_ANCESTORS)
             for name in CORPUS_FILES]
    cases += [(f"random{i}-{policy.value}", random_model(rng, policy=policy).to_records(), policy)
              for policy in DispatchPolicy for i in range(4)]
    paths = []
    for name, records, policy in cases:
        path = tmp_path / f"{name}.jsonl"
        path.write_text(dumps_facts(records))
        assert not _sidecar_path(path).exists()
        assert _loaded(path, policy) == _cold(path, policy)
        assert _sidecar_path(path).is_file()
        paths.append((path, policy, _cold(path, policy)))
    with pytest.MonkeyPatch.context() as patch:
        _no_cold_loads(patch)
        for path, policy, want in paths:
            assert _loaded(path, policy) == want, path.name


def test_a_rewrite_of_the_same_size_and_mtime_is_decoded_again(tmp_path):
    path = tmp_path / "facts.jsonl"
    text = dumps_facts(_unit_records("command.mini"))
    path.write_text(text)
    load_facts_path(path)
    stamp = path.stat()
    renamed = text.replace('"name": "execute"', '"name": "exekute"')
    assert renamed != text and len(renamed) == len(text)
    path.write_text(renamed)
    os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
    assert path.stat().st_size == stamp.st_size
    assert path.stat().st_mtime_ns == stamp.st_mtime_ns
    got = _loaded(path)
    assert got == _cold(path) != _cold_text(text)
    assert any(rec.get("name") == "exekute" for rec in got[0])


@pytest.mark.parametrize("block", [1, 7, 1 << 16])
@pytest.mark.parametrize("end", [b"", b"\n", b"\n\n", b"\r\n \n"])
def test_the_sidecar_names_the_digest_of_the_decoded_bytes(tmp_path, block, end):
    """The sidecar's header holds the file's SHA-256: a last line without
    ``\\n``, blank lines and ``\\r\\n`` endings count, and a hit that reads
    ``block`` bytes at a time gives the cold result."""
    path = tmp_path / "facts.jsonl"
    path.write_bytes(b"\n".join(json.dumps(rec).encode()
                                for rec in _unit_records("decorator.mini")) + end)
    want = _cold(path)
    assert _loaded(path) == want
    header = model_module._sidecar_header(hashlib.sha256(path.read_bytes()).hexdigest())
    assert _sidecar_path(path).read_text().startswith(header)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_HASH_BLOCK", block)
        _no_cold_loads(patch)
        assert _loaded(path) == want


def _sidecar_text(header: str, chunks: list[dict]) -> str:
    return header + "".join(json.dumps(chunk) + "\n" for chunk in chunks)


def _changed(change):
    """A sidecar fault that changes the first chunk's columns."""
    def fault(header: str, chunks: list[dict]) -> str:
        change(chunks[0])
        return _sidecar_text(header, chunks)
    return fault


def _renamed_method(chunk):
    chunk["method"]["name"][0] += "x"
    return chunk


#: Ways to break a sidecar: each takes the header that names the facts next
#: to it and its chunks' columns, and gives the sidecar's text.
_SIDECAR_FAULTS = {
    "truncated": lambda header, chunks: _sidecar_text(header, chunks)[:1000],
    "not-json": lambda header, chunks: header + "{nope\n",
    "empty": lambda header, chunks: "",
    # Columns that would load, for other bytes.
    "other-digest": lambda header, chunks: _sidecar_text(
        model_module._sidecar_header("0" * 64), [_renamed_method(chunks[0]), *chunks[1:]]),
    "unequal-lengths": _changed(lambda chunk: chunk["method"]["id"].pop()),
    "repeated-id": _changed(lambda chunk: chunk["field"]["id"].__setitem__(
        0, chunk["method"]["id"][0])),
    "bad-enum": _changed(lambda chunk: chunk["method"]["vis"].__setitem__(0, "publik")),
    "dangling-reference": _changed(lambda chunk: chunk["call"]["target"].__setitem__(
        0, "M999999")),
    "extra-key": _changed(lambda chunk: chunk["type"].__setitem__(
        "colour", ["red"] * len(chunk["type"]["id"]))),
    "column-not-a-list": _changed(lambda chunk: chunk["type"].__setitem__(
        "name", "x" * len(chunk["type"]["name"]))),
    "unknown-kind": _changed(lambda chunk: chunk.__setitem__("struct", {})),
    "chunk-not-an-object": lambda header, chunks: _sidecar_text(header, [[], *chunks]),
}


@pytest.mark.parametrize("facts", ["good", "bad"])
@pytest.mark.parametrize("fault", list(_SIDECAR_FAULTS))
def test_a_broken_sidecar_gives_the_cold_result(tmp_path, fault, facts):
    """A sidecar that names the facts' bytes but is broken, or that names
    other bytes, is not used: the load is the cold one, its model or its
    error and line, and a good file's sidecar is then written anew."""
    path = tmp_path / "facts.jsonl"
    lines = dumps_facts(_unit_records("undo.mini")).splitlines(keepends=True)
    path.write_text("".join(lines))
    load_facts_path(path)
    chunks = [json.loads(line) for line in _sidecar_path(path).read_text().splitlines()[1:]]
    assert {"type", "method", "field", "call"} <= chunks[0].keys()
    if facts == "bad":
        bad = next(i for i, line in enumerate(lines) if re.search(r'"stmts": [1-9]', line))
        lines[bad] = lines[bad].replace('"stmts": ', '"stmts": -')
        path.write_text("".join(lines))
    header = model_module._sidecar_header(hashlib.sha256(path.read_bytes()).hexdigest())
    _sidecar_path(path).write_text(_SIDECAR_FAULTS[fault](header, chunks))
    want = _cold(path)
    if facts == "bad":
        assert want.startswith(f"line {bad + 1}: negative statement count ")
    assert _loaded(path) == want
    if facts == "good":
        assert _sidecar_path(path).read_text().startswith(header)
        with pytest.MonkeyPatch.context() as patch:
            _no_cold_loads(patch)
            assert _loaded(path) == want


def test_check_columns_refuses_columns_that_do_not_line_up():
    columns = model_module._columns("method", [dict(METHOD, id=f"M{i}") for i in range(3)])
    assert len(model_module._check_columns("method", columns)) == 3
    refused = [{**columns, key: columns[key][:2]} for key in columns]
    refused += [{**columns, "x": [1, 2, 3]}, {k: v for k, v in columns.items() if k != "src"},
                {**columns, "id": "M0M1M2"}, [columns], None]
    for bad in refused:
        with pytest.raises(ValueError, match="^method columns are not one list per key"):
            model_module._check_columns("method", bad)


def test_a_failed_cold_load_leaves_no_sidecar(tmp_path, chunk):
    """The bad record is the last, after every earlier chunk passed its
    checks."""
    path = tmp_path / "facts.jsonl"
    records = _synthetic_records(100)
    assert len(records) > 2 * chunk
    records[-1] = dict(records[-1], ord="1")
    path.write_text(dumps_facts(records))
    assert _loaded(path) == _cold(path) == f"line {len(records)}: bad value for 'ord': '1'"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.jsonl"]


def test_a_pipe_is_streamed_and_gets_no_sidecar(tmp_path):
    path = tmp_path / "facts.fifo"
    text = dumps_facts(_unit_records("command.mini"))
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,))
    writer.start()
    try:
        model = load_facts_path(path)
    finally:
        writer.join()
    assert (model.to_records(), model.policy) == _cold_text(text)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["facts.fifo"]


def test_a_directory_at_the_sidecar_path_leaves_the_load_and_stderr_alone(tmp_path, capsys):
    path = tmp_path / "facts.jsonl"
    path.write_text(dumps_facts(_unit_records("command.mini")))
    _sidecar_path(path).mkdir()
    for _ in range(2):
        assert _loaded(path) == _cold(path)
    assert capsys.readouterr() == ("", "")
    assert _sidecar_path(path).is_dir() and not any(_sidecar_path(path).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == [_sidecar_path(path).name, "facts.jsonl"]


def test_a_name_with_no_room_for_the_sidecar_temporary_file_loads_without_one(tmp_path,
                                                                              capsys):
    """The sidecar's name just fits the file system's name limit, so its
    temporary file cannot be made, nor then unlinked."""
    path = tmp_path / ("f" * (os.pathconf(tmp_path, "PC_NAME_MAX") - len("..swcache")))
    path.write_text(dumps_facts(_unit_records("command.mini")))
    for _ in range(2):
        assert _loaded(path) == _cold(path)
    assert capsys.readouterr() == ("", "")
    assert list(tmp_path.iterdir()) == [path]


def test_a_pipe_at_the_sidecar_path_is_not_read_and_is_replaced(tmp_path):
    """Opening a pipe with no writer would block the load for good."""
    path = tmp_path / "facts.jsonl"
    path.write_text(dumps_facts(_unit_records("command.mini")))
    os.mkfifo(_sidecar_path(path))
    outcome = []
    loader = threading.Thread(target=lambda: outcome.append(_loaded(path)), daemon=True)
    loader.start()
    loader.join(timeout=30)
    assert not loader.is_alive()
    assert outcome == [_cold(path)]
    assert _sidecar_path(path).is_file()


def test_a_link_at_the_sidecar_path_is_replaced_not_written_through(tmp_path):
    path, victim = tmp_path / "facts.jsonl", tmp_path / "victim.txt"
    path.write_text(dumps_facts(_unit_records("command.mini")))
    victim.write_text("keep")
    _sidecar_path(path).symlink_to(victim)
    assert _loaded(path) == _cold(path)
    assert victim.read_text() == "keep"
    assert _sidecar_path(path).is_file() and not _sidecar_path(path).is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [_sidecar_path(path).name, "facts.jsonl", "victim.txt"])


@pytest.mark.parametrize("name", ["facts.jsonl", "chains.jsonl", "facts.json", "facts.aj",
                                  "facts"])
def test_the_sidecar_name_never_ends_as_facts_json_or_aspect_text_do(tmp_path, name):
    """The bench globs a work directory for ``*.jsonl`` and digests each
    file ending in ``.json``, ``.jsonl`` or ``.aj``."""
    path = tmp_path / name
    path.write_text(dumps_facts(_unit_records("decorator.mini")))
    load_facts_path(path)
    assert set(tmp_path.iterdir()) == {path, _sidecar_path(path)}
    assert not _sidecar_path(path).name.endswith((".json", ".jsonl", ".aj"))
    assert _sidecar_path(path).suffix not in (".json", ".jsonl", ".aj")


# -- the natural sort key --------------------------------------------------------------


def _chunk_keyed(text: str) -> bool:
    try:
        oracles.natural_key_chunks(text)
    except ValueError:  # "\u00b2", or a run longer than ``int()`` converts
        return False
    return True


def test_natural_key_keeps_the_order_of_every_id_the_chunk_key_sorted():
    rng = random.Random(5)
    alphabet = ["a", "Z", "_", ".", "0", "1", "2", "09", "10", "\u0661", "\u0660", "x9"]
    ids = ["".join(rng.choice(alphabet) for _ in range(rng.randrange(6))) for _ in range(600)]
    # Around the letters-then-ASCII-digits fast path, which must key as the split does.
    ids += [
        "\u00e97", "\u03a9mega12", "\u65e5\u672c3", "\u01c52", "C\u0663", "C\u06633", "\u0663", "\u0663C",
        "C\u00b2", "\u00b23", "C\u2177", "\u21777", "\u2177", "C007", "C7", "C0", "C00",
        "123", "0", "007", "", "C", "C" + "9" * 4300, "C" + "9" * 4301, "C" + "1" * 5000,
        "9" * 5000, "C" + "0" * 4999 + "2", "a_b3", "_3", "$x1", "x$2", "p.C4", ".5", "C4.",
    ]
    assert [natural_key(text) for text in ids] == [_split_key(text) for text in ids]
    ids = [text for text in ids if _chunk_keyed(text)]
    for first, second in zip(ids, reversed(ids)):
        old_first, old_second = oracles.natural_key_chunks(first), oracles.natural_key_chunks(second)
        new_first, new_second = natural_key(first), natural_key(second)
        assert (new_first < new_second, new_first == new_second) \
            == (old_first < old_second, old_first == old_second), (first, second)
    assert sorted(ids, key=natural_key) == sorted(ids, key=oracles.natural_key_chunks)


def test_natural_key_orders_ids_the_chunk_key_rejected():
    long_runs = ["C" + "9" * 5000, "C1" + "0" * 5000, "C" + "0" * 5000 + "3", "C" + "8" * 5001]
    ids = ["x\u00b2", "\u00b2", "C5", "C2", *long_runs, "C9" * 3000]
    with pytest.raises(ValueError):  # so does a long run where ``int()`` has a limit
        oracles.natural_key_chunks("\u00b2")
    assert sorted(ids, key=natural_key) == [
        "C2", long_runs[2], "C5", "C9" * 3000, long_runs[0], long_runs[1], long_runs[3],
        "x\u00b2", "\u00b2"]
    # Runs that differ only in leading zeros give equal keys, which hash alike.
    assert len({*map(natural_key, long_runs), natural_key("C0" + "9" * 5000)}) == len(long_runs)


def test_natural_key_does_not_depend_on_the_int_limit():
    """``int()`` refuses runs longer than the interpreter's limit and converts
    any run when it is off, so a key built from ``int()`` would change with
    the limit."""
    long_runs = ["C" + "9" * 5000, "C1" + "0" * 5000, "C" + "0" * 5000 + "3", "C" + "8" * 5001,
                 "C9" * 3000, "x\u0661" + "\u0662" * 5000]
    keys = [natural_key(text) for text in long_runs]
    limit = sys.get_int_max_str_digits()
    try:
        for other in (640, 0):
            sys.set_int_max_str_digits(other)
            assert [natural_key(text) for text in long_runs] == keys
            test_natural_key_orders_ids_the_chunk_key_rejected()
    finally:
        sys.set_int_max_str_digits(limit)


def test_keying_a_million_digit_run_takes_under_a_second_with_the_int_limit_off():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        start = time.perf_counter()
        key = natural_key("C" + "7" * 1_000_000)
        elapsed = time.perf_counter() - start
    finally:
        sys.set_int_max_str_digits(limit)
    assert key[:2] == ("C", 1_000_000) and elapsed < 1.0


# -- table order -------------------------------------------------------------------------


def _method_table(ids: list[str]) -> tuple[list, list]:
    """The method table of a model of one type with a method of each id,
    and the methods as given."""
    methods = [MethodDecl(id_, "T1", f"m{i}") for i, id_ in enumerate(ids)]
    model = SourceModel([TypeDecl("T1", "A", TypeKind.CLASS)], methods, [], [])
    return list(model.methods.values()), methods


_LONG_RUN = "M" + "9" * 5000


@pytest.mark.parametrize("ids", [
    [f"M{i}" for i in range(1, 300)],
    ["M1", "M01", "M2", "M001", "M10", "M010"],
    ["M", "Ma", "Mab", "Mb", "MA"],
    ["M2", "C1", "M10", "C3", "M1x", "x"],
    ["M\u0661", "M\u0662\u0660", "M3", "M\u0665", "\u0663", "M\u00e9"],
    ["M0", "M00", "M1", "M0009", "M2", "M01"],
    ["M1", "M2", "1M2"],
    ["M1", "M10", "M1x2", "M1x", "M2"],
    ["M1", "M2", "M1", "M3", "M2"],
], ids=["plain", "leading-zero-ties", "no-digits", "mixed-heads", "non-ascii-digits",
        "zeros", "digits-first", "digits-inside", "repeated"])
@pytest.mark.parametrize("arrangement", ["as-listed", "shuffled", "sorted", "reversed",
                                         "by-length"])
def test_each_table_comes_out_in_natural_id_order(ids, arrangement):
    """Whether or not a table arrives in order, it comes out as a stable sort
    by the chunk key would leave it; ids that key equal keep their order,
    and a repeated id keeps its first place and its last declaration."""
    ids = list(ids)
    if arrangement == "shuffled":
        random.Random(len(ids)).shuffle(ids)
    elif arrangement == "sorted":
        ids.sort(key=oracles.natural_key_chunks)
    elif arrangement == "reversed":
        ids.reverse()
    elif arrangement == "by-length":  # natural order only where the ids have one shape
        ids.sort(key=lambda id_: (len(id_), id_))
    got, methods = _method_table(ids)
    ordered = sorted(methods, key=lambda m: oracles.natural_key_chunks(m.id))
    assert got == list({m.id: m for m in ordered}.values())


@pytest.mark.parametrize("ids", [
    ["M2", _LONG_RUN, "M1" + "0" * 5000],
    ["M1" + "0" * 5000, "M2", _LONG_RUN],
], ids=["in-order", "out-of-order"])
def test_a_digit_run_longer_than_int_converts_orders_by_its_value(ids):
    got, _ = _method_table(ids)
    assert [m.id for m in got] == ["M2", _LONG_RUN, "M1" + "0" * 5000]


def test_a_table_already_in_order_is_not_sorted(monkeypatch):
    def refuse(text):
        raise AssertionError(f"natural_key({text!r}) was called")
    monkeypatch.setattr(model_module, "natural_key", refuse)
    ids = ["M", *(f"M{i}" for i in range(1, 2000)), "M" + "1" * 5000]
    got, methods = _method_table(ids)
    assert got == methods
    with pytest.raises(AssertionError, match="natural_key"):
        _method_table(["M2", "M1"])


def test_external_supertypes_take_their_place_in_the_type_table():
    records = [dict(TYPE, id="T2", name="B", super=["java.lang.Object", "T1"]),
               dict(TYPE, super=["Base"]), dict(TYPE, id="T10", name="C", super=["T2"])]
    got = list(load_records(records).types)
    assert got == ["Base", "T1", "T2", "T10", "java.lang.Object"]
    assert got == sorted(got, key=oracles.natural_key_chunks)


def _frontend_chains_facts() -> str:
    """The facts that ``extract`` writes in the frontend-chains benchmark
    workload, seed 0."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # where its dataclasses look their module up
    try:
        spec.loader.exec_module(gen)
        files, script = gen.frontend_chains_inputs(0, CORPUS)
    finally:
        del sys.modules[spec.name]
    ((_, argv),) = [step for step in script if step[0] == "extract"]
    names = [name for name in argv[1:] if name.endswith(".mini")]
    return extract_facts([parse(files[name], name) for name in names]).to_jsonl()


def test_a_hit_of_facts_whose_method_table_is_out_of_order_equals_the_cold_load(tmp_path):
    path = tmp_path / "facts.jsonl"
    path.write_text(_frontend_chains_facts())
    method_ids = [json.loads(line)["id"] for line in path.read_text().splitlines()
                  if '"k": "method"' in line]
    assert method_ids != sorted(method_ids, key=oracles.natural_key_chunks)
    cold = _cold(path)
    assert _loaded(path) == cold
    with pytest.MonkeyPatch.context() as patch:
        _no_cold_loads(patch)
        assert _loaded(path) == cold
    assert [rec["id"] for rec in cold[0] if rec["k"] == "method"] \
        == sorted(method_ids, key=oracles.natural_key_chunks)


# -- the model's own checks against the per-row oracle ----------------------------------


def test_a_repeated_call_id_hides_no_fault_of_a_later_call():
    """The tables reach the model's checks without the repeated rows: here a
    call's row would otherwise stand where the faulty C3 stands."""
    method = MethodDecl("M1", "T1", "f", body_stmt_count=2)
    calls = [CallSite(id_, "M1", "M1", Receiver(ReceiverKind.THIS), 1)
             for id_ in ("C1", "C2", "C1")]
    calls.append(CallSite("C3", "M1", "M1", Receiver(ReceiverKind.THIS), 1, ((0, 0),)))
    tables = ([TypeDecl("T1", "A", TypeKind.CLASS)], [method], [], calls)
    want = "call C3: pass-through argument index 0 outside callee arity 0"
    assert _check_outcome(lambda: oracles.ModelChecks(*tables).check({})) == (want, None)
    assert _check_outcome(lambda: SourceModel(*tables)) == (want, None)


def _edit(kind: str, change):
    """A fault that changes one random row of a table, unless ``change``
    gives ``None`` for it."""
    def fault(rng, tables):
        rows = tables[kind]
        if not rows:
            return False
        row = rng.randrange(len(rows))
        changed = change(rng, rows[row], tables)
        if changed is not None:
            rows[row] = changed
        return changed is not None
    return fault


def _copy(kind: str):
    """A fault that adds a copy of a random row under a fresh id."""
    def fault(rng, tables):
        rows = tables[kind]
        if not rows:
            return False
        taken = {decl.id for table in tables.values() for decl in table}
        fresh = rows[0].id
        while fresh in taken:
            fresh = f"{kind[0].upper()}{rng.randrange(1, 10_000)}"
        rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows)._replace(id=fresh))
        return True
    return fault


def _two_types(attr: str):
    """A fault that makes two random types (maybe one) refer to each other."""
    def fault(rng, tables):
        rows = tables["type"]
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        if attr == "supertypes":
            rows[i] = rows[i]._replace(supertypes=rows[i].supertypes + (rows[j].id,))
            rows[j] = rows[j]._replace(supertypes=rows[j].supertypes + (rows[i].id,))
        else:
            rows[i] = rows[i]._replace(enclosing_type=rows[j].id)
            rows[j] = rows[j]._replace(enclosing_type=rows[i].id)
        return True
    return fault


def _enclosing_cycle(rng, tables):
    """A fault that links three to eight random types (fewer if the table is
    smaller) into one enclosing cycle, so that types enclosed by any of them
    reach it only through a deep chain."""
    rows = tables["type"]
    ring = rng.sample(range(len(rows)), min(len(rows), rng.randint(3, 8)))
    for here, there in zip(ring, ring[1:] + ring[:1]):
        rows[here] = rows[here]._replace(enclosing_type=rows[there].id)
    return True


def _arity(tables, method_id: str) -> int:
    return next((len(m.param_types) for m in tables["method"] if m.id == method_id), 0)


#: Fault name -> a change to the tables, which says whether it applied.
_MODEL_FAULTS = {
    "dangling method owner": _edit("method", lambda rng, decl, tables: decl._replace(
        owner="T9999")),
    "dangling field owner": _edit("field", lambda rng, decl, tables: decl._replace(owner="T9999")),
    "dangling target": _edit("call", lambda rng, decl, tables: decl._replace(
        static_target="M9999")),
    "dangling caller": _edit("call", lambda rng, decl, tables: decl._replace(caller="M9999")),
    "dangling field": _edit("call", lambda rng, decl, tables: decl._replace(
        receiver=Receiver(ReceiverKind.FIELD, field="F9999"))),
    "dangling enclosing type": _edit("type", lambda rng, decl, tables: decl._replace(
        enclosing_type="T9999")),
    "dangling supertype": _edit("type", lambda rng, decl, tables: decl._replace(
        supertypes=decl.supertypes + ("T9999",))),
    "supertype cycle": _two_types("supertypes"),
    "enclosing cycle": _two_types("enclosing_type"),
    "deep enclosing cycle": _enclosing_cycle,
    "anonymous without enclosing type": _edit("type", lambda rng, decl, tables: decl._replace(
        is_anonymous=True, enclosing_type=None)),
    "duplicate signature": _copy("method"),
    "duplicate field name": _copy("field"),
    "abstract method with a body": _edit("method", lambda rng, decl, tables: decl._replace(
        is_abstract=True, body_stmt_count=max(1, decl.body_stmt_count))),
    "ordinal out of range": _edit("call", lambda rng, decl, tables: decl._replace(
        ordinal=rng.choice([0, -1, 10_000]))),
    "pass-through argument outside arity": _edit("call", lambda rng, decl, tables: decl._replace(
        arg_passthrough=decl.arg_passthrough + (rng.choice([
            (_arity(tables, decl.static_target), 0), (-1, 0)]),))),
    "pass-through parameter outside arity": _edit("call", lambda rng, decl, tables: _arity(
        tables, decl.static_target) and decl._replace(arg_passthrough=decl.arg_passthrough + (
            (0, rng.choice([-1, _arity(tables, decl.caller)])),)) or None),
    "param receiver out of range": _edit("call", lambda rng, decl, tables: decl._replace(
        receiver=Receiver(ReceiverKind.PARAM, index=rng.choice(
            [None, -1, _arity(tables, decl.caller)])))),
}


#: A phrase of each error the faults above can make the first reported.
_MODEL_ERRORS = (
    "unknown enclosing type id", "unknown supertype id", "unknown owner id",
    "unknown target id", "unknown caller id", "unknown receiver field id",
    "cycle in supertype hierarchy", "cyclic enclosing-type chain",
    "anonymous type without enclosing type", "duplicate signature", "duplicate field name",
    "abstract method with a body", "outside caller body", "pass-through argument index",
    "pass-through parameter index", "parameter receiver index out of range",
)


def _check_outcome(check):
    try:
        check()
    except FactError as exc:
        return str(exc), exc.line
    return None


def test_the_model_checks_match_the_per_row_oracle_under_injected_faults():
    """Each case takes the tables of a random model or a corpus extract,
    injects one to three faults, passes each table in order or shuffled,
    and names a line for most ids; ``SourceModel`` raises the error, text
    and line, that the per-row checks raise first, or none when they raise
    none."""
    rng = random.Random(83)
    bases = [corpus_model(name.removesuffix(".mini")) for name in CORPUS_FILES]
    reported = set()
    for case in range(600):
        base = rng.choice(bases) if case % 4 == 0 else random_model(rng, max_types=6)
        tables = {"type": list(base.types.values()), "method": list(base.methods.values()),
                  "field": list(base.fields.values()), "call": list(base.calls.values())}
        faults = rng.sample(sorted(_MODEL_FAULTS), rng.randint(1, 3))
        for fault in faults:
            _MODEL_FAULTS[fault](rng, tables)
        for rows in tables.values():
            if rng.random() < 0.5:
                rng.shuffle(rows)
        decls = [decl for rows in tables.values() for decl in rows]
        lines = {decl.id: number for number, decl in enumerate(decls, start=1)
                 if rng.random() < 0.9}
        want = _check_outcome(lambda: oracles.ModelChecks(*tables.values()).check(lines))
        got = _check_outcome(lambda: SourceModel(*tables.values(), lines=lines))
        assert got == want, (case, faults)
        reported.update(phrase for phrase in _MODEL_ERRORS if want and phrase in want[0])
    assert reported == set(_MODEL_ERRORS)
