import gc
import json
import random
import sys
import tracemalloc
from itertools import combinations
from json.scanner import c_make_scanner, py_make_scanner

import pytest

import oracles
from conftest import CORPUS, CORPUS_FILES, young_objects
from randmodels import dense_hierarchy, random_model
from sortweaver import model as model_module
from sortweaver._util import _split_key, natural_key
from sortweaver.minilang import extract_facts, parse
from sortweaver.model import (
    DispatchPolicy,
    FactError,
    ReceiverKind,
    _decode,
    _decode_columns,
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
    model = load_records(types)
    assert len(model.ancestors("T0")) == depth
    in_root = scope_test(model, f"L{depth - 1}")
    assert [tid for tid in model.types if in_root(tid)] == list(model.types)
    assert model.common_ancestor(["T0", "T600", "T900"]) == "T900"
    assert model.ancestors("T600") == {f"T{i}" for i in range(600, depth)}


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


def test_record_order_does_not_change_the_model(command_model):
    records = command_model.to_records()
    shuffled = list(records)
    random.Random(5).shuffle(shuffled)
    reloaded = load_records(shuffled)
    assert reloaded.to_records() == records
    assert reloaded.lifted_edges() == command_model.lifted_edges()


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
    if "." in ref:
        type_name, name = ref.rsplit(".", 1)
        owner = _scan_type(model, type_name)
        if owner is None:
            return f"unknown type: {type_name!r}"
        pool = [m for m in model.methods.values() if m.owner == owner.id and m.name == name]
    else:
        pool = [m for m in model.methods.values() if m.name == ref]
    pool = [m for m in pool if arity is None or len(m.param_types) == arity]
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
                refs |= {m.name, f"{m.name}/{m.arity}", f"{type_name}.{m.name}",
                         f"{type_name}.{m.name}/{m.arity}", f"{type_name}.{m.name}/9"}
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
                got = _decode(mutant, 7)
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
        assert _decode_columns([(None, rec) for rec in base]) is not None
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


#: Lines that a chunk scan could misread: objects that span lines, lines
#: that hold more or less than one object, padding, and lines that the
#: scanner refuses.  Each case's lines take the place of no record.
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
    # As a chunk's last line, the chunk's array closes after its first
    # object and one object is read per line: only the check that the scan
    # reached the end of the text refuses it.
    "array-ends-inside-a-line": [_type_line(1) + b'],[{"b": 2}'],
}

#: The error each start line gives for the cases the per-line reader refuses
#: on their first line, by case.
_DECODE_ERRORS = {"array-ends-inside-a-line": "invalid JSON: Extra data"}


def _nested_line(depth: int) -> bytes:
    return _type_line(1)[:-1] + b', "x": ' + b"[" * depth + b"]" * depth + b"}"


def _outcomes(stream) -> tuple:
    """The outcome of ``load_facts``, then its outcome with every chunk
    refused by the chunk scan, so that each line is decoded alone; both
    from the same depth of the call stack."""
    got = _outcome(load_facts, stream)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model_module, "_scan_lines", lambda chunk: None)
        return got, _outcome(load_facts, stream)


@pytest.mark.parametrize("case", [*_DECODE_CASES, "nesting-at-the-limit"])
def test_load_facts_decodes_a_chunk_as_the_per_line_reader_does(case):
    """Each case's lines start at line 1, 1,024, 1,025 and after the last
    record of 1,100; the model, or the error and its line, is the one that
    decoding each line alone gives."""
    records = [json.dumps(rec).encode() + b"\n" for rec in _types(1100)]
    if case == "nesting-at-the-limit":
        # The deepest line the per-line reader takes; nested once more in
        # the chunk's array, it is too deep for the chunk scan.
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
