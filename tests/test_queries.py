import gc
import io
import json
import random
import tracemalloc

import pytest

import oracles
from conftest import CORPUS_FILES, corpus_model, each_sort_result, model_from_source, \
    sample_models
from randmodels import dense_hierarchy, random_model

from sortweaver.mining import TECHNIQUES, MiningConfig, fan_in_analysis, find_redirectors, \
    grouped_calls_analysis, mine
from sortweaver.cli import main
from sortweaver.model import DispatchPolicy, FactError, load_records
from sortweaver.queries import (
    QueryBinding,
    SortKind,
    execute_binding,
    expand_seed,
    query_cb,
    query_ec,
    query_ep,
    query_rl,
    query_rsi,
    query_sc,
)
from sortweaver.queries import _maximal_chains


# -- consistent behavior -----------------------------------------------------------


def test_cb_scoped_to_command_hierarchy(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    assert len(result.hits) == 19


def test_cb_whole_model(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "*")
    assert len(result.hits) == 28


def test_cb_scope_without_calls_is_empty(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "DrawingView")
    assert result.hits == ()


def test_cb_excludes_self_calls():
    text = """
    class A {
        public void f() { f2(); }
        public void f2() { f2(); }
    }
    """
    model = model_from_source(text)
    result = query_cb(model, "A.f2", "*")
    assert [model.method_sig(h.caller) for h in result.hits] == ["A.f()"]


def test_cb_count_equals_fan_in_when_each_caller_calls_once(command_model):
    target = command_model.resolve_method("DrawingView.checkDamage")
    result = query_cb(command_model, "DrawingView.checkDamage", "*")
    assert len(result.hits) == len(command_model.callers_of(target.id))


def test_cb_unknown_ids_raise(command_model):
    with pytest.raises(FactError):
        query_cb(command_model, "Nowhere.nothing", "*")
    with pytest.raises(FactError):
        query_cb(command_model, "DrawingView.checkDamage", "NoSuchScope")


def test_cb_prefix_scope():
    text = """
    class A { public void act() { } }
    class U1 { public void f(A a) { a.act(); } }
    class U2 { public void f(A a) { a.act(); } }
    """
    model = model_from_source(text)
    # MiniLang names are unqualified, so a prefix matching U only
    hits = query_cb(model, "A.act", "U1").hits
    assert len(hits) == 1


# -- redirection layer --------------------------------------------------------------


def test_rl_two_triples(decorator_model):
    result = query_rl(decorator_model, "BorderDecorator", "Figure")
    assert len(result.hits) == 2
    names = {decorator_model.method_sig(h.redirector_method) for h in result.hits}
    assert names == {"BorderDecorator.draw()", "BorderDecorator.moveBy(int,int)"}


def test_rl_unrelated_types_empty(decorator_model):
    result = query_rl(decorator_model, "RectangleFigure", "Figure")
    assert result.hits == ()


def test_rl_extra_non_delegating_method_keeps_triples():
    text = """
    interface Figure { void draw(); void moveBy(int dx, int dy); }
    class BorderDecorator implements Figure {
        private Figure fInner;
        public void draw() { fInner.draw(); }
        public void moveBy(int dx, int dy) { fInner.moveBy(dx, dy); }
        public void refreshBorder() { }
    }
    """
    model = model_from_source(text)
    assert len(query_rl(model, "BorderDecorator", "Figure").hits) == 2


# -- expose context -----------------------------------------------------------------


def test_ec_three_method_chain(monitor_model):
    result = query_ec(monitor_model, "ProgressMonitor")
    assert len(result.hits) == 1
    chain = result.hits[0]
    assert [monitor_model.method_sig(m) for m in chain.methods] == [
        "ExportManager.runExport(ProgressMonitor)",
        "Exporter.writeAll(ProgressMonitor)",
        "Exporter.writeFigure(ProgressMonitor)",
    ]
    assert chain.param_indices == (0, 0, 0)


def test_ec_requires_forwarding():
    text = """
    class Monitor { }
    class A {
        public void top(Monitor m) { mid(m); }
        public void mid(Monitor m) { leaf(); }
        public void leaf() { }
    }
    """
    model = model_from_source(text)
    chains = query_ec(model, "Monitor").hits
    assert len(chains) == 1
    assert [model.method_sig(m) for m in chains[0].methods] == [
        "A.top(Monitor)",
        "A.mid(Monitor)",
    ]


def test_ec_pair_keeps_its_smallest_call_and_that_calls_first_pass():
    text = """
    class Ctx { }
    class A {
        public void top(Ctx a, Ctx b) { mid(b, a); mid(a, b); }
        public void mid(Ctx x, Ctx y) { }
    }
    """
    model = model_from_source(text)
    first, second = model.calls_of(model.resolve_method("A.top").id)
    assert (first.ordinal, second.ordinal) == (1, 2)
    (chain,) = query_ec(model, "Ctx").hits
    # ``b`` (parameter 1) reaches ``x`` (argument 0) first in the first call.
    assert (chain.calls, chain.param_indices) == ((first.id,), (1, 0))


def test_ec_diamond_yields_two_maximal_chains():
    text = """
    class Monitor { }
    class A {
        public void top(Monitor m) { left(m); right(m); }
        public void left(Monitor m) { leaf(m); }
        public void right(Monitor m) { leaf(m); }
        public void leaf(Monitor m) { }
    }
    """
    model = model_from_source(text)
    chains = {tuple(model.method_sig(m) for m in h.methods)
              for h in query_ec(model, "Monitor").hits}
    assert chains == {
        ("A.top(Monitor)", "A.left(Monitor)", "A.leaf(Monitor)"),
        ("A.top(Monitor)", "A.right(Monitor)", "A.leaf(Monitor)"),
    }


def test_ec_chains_are_maximal(monitor_model):
    hits = query_ec(monitor_model, "ProgressMonitor").hits
    sequences = [h.methods for h in hits]
    for one in sequences:
        for other in sequences:
            if one is other:
                continue
            joined_one = ",".join(one)
            joined_other = ",".join(other)
            assert joined_one not in joined_other


# -- exception propagation -------------------------------------------------------------


def test_ep_chain_rooted_at_parse(exceptions_model):
    result = query_ep(exceptions_model, "IOErr")
    assert len(result.hits) == 1
    chain = result.hits[0]
    assert [exceptions_model.method_sig(m) for m in chain.methods] == [
        "DrawingReader.read(String)",
        "DrawingLoader.load(String)",
        "StorageFormat.parse(String)",
    ]
    assert chain.root_raises


def test_ep_declarer_without_throw_or_thrower_call_is_not_in_chains():
    text = """
    class IOErr { }
    class A {
        public void idle() throws IOErr { noop(); }
        public void noop() { }
    }
    """
    model = model_from_source(text)
    assert query_ep(model, "IOErr").hits == ()


def test_ep_unknown_exception_is_empty_not_error(exceptions_model):
    assert query_ep(exceptions_model, "NoSuchErr").hits == ()


def test_ep_root_filter(exceptions_model):
    rooted = query_ep(exceptions_model, "IOErr", root="StorageFormat.parse")
    assert len(rooted.hits) == 1
    elsewhere = query_ep(exceptions_model, "IOErr", root="DrawingOpener.open")
    assert elsewhere.hits == ()


def test_ep_lone_raiser_is_a_single_method_chain():
    text = """
    class IOErr { }
    class A {
        public void boom() throws IOErr { throw new IOErr(); }
    }
    """
    model = model_from_source(text)
    hits = query_ep(model, "IOErr").hits
    assert len(hits) == 1 and len(hits[0].methods) == 1 and hits[0].root_raises


def _ep_chain_records(length):
    """One type whose methods m0 .. m<length-1> each declare Err and call
    the next; the last raises Err."""
    records = [{"k": "type", "id": "T1", "name": "p.Holder", "kind": "class",
                "abstract": False, "anon": False, "encl": None, "super": []}]
    for i in range(length):
        records.append({"k": "method", "id": f"M{i}", "owner": "T1", "name": f"m{i}",
                        "params": [], "ret": "void", "vis": "public", "static": False,
                        "abstract": False, "ctor": False, "throws": ["Err"], "stmts": 1,
                        "raises": ["Err"] if i == length - 1 else []})
    for i in range(length - 1):
        records.append({"k": "call", "id": f"C{i}", "caller": f"M{i}", "target": f"M{i + 1}",
                        "recv": {"kind": "this"}, "ord": 1, "pass": []})
    return records


def test_ep_chain_longer_than_the_recursion_limit(tmp_path):
    length = 3000
    records = _ep_chain_records(length)
    hits = query_ep(load_records(records), "Err").hits
    assert len(hits) == 1
    assert hits[0].methods == tuple(f"M{i}" for i in range(length)) and hits[0].root_raises

    facts = tmp_path / "facts.jsonl"
    facts.write_text("".join(json.dumps(r) + "\n" for r in records))
    out = io.StringIO()
    code = main(["query", "ep", str(facts), "--exception", "Err", "--json"],
                stdin=io.StringIO(""), stdout=out)
    assert code == 0
    (hit,) = json.loads(out.getvalue())["hits"]
    assert len(hit["methods"]) == length and hit["calls"][-1] == f"C{length - 2}"


def _random_chain_graph(rng):
    """succ and pred relations with cycles, self-loops, several calls per
    node pair and isolated nodes, plus a random set of stop nodes; and the
    chain graph of the same calls, as ``_chain_graph`` builds it.  Calls
    are drawn in id order, so the first call of a pair is its smallest."""
    nodes = [f"N{i}" for i in range(rng.randint(1, 8))]
    succ: dict = {}
    pred: dict = {}
    graph: dict = {}
    for k in range(rng.randint(0, 3 * len(nodes))):
        a, b = rng.choice(nodes), rng.choice(nodes)
        if a == b and rng.random() < 0.7:
            continue
        succ.setdefault(a, []).append((b, f"C{k}"))
        pred.setdefault(b, []).append((a, f"C{k}"))
        graph.setdefault(a, {}).setdefault(b, f"C{k}")
    stop = frozenset(n for n in nodes if rng.random() < 0.25)
    for n in stop:  # a stop node is a node even without edges, as in query_ep
        succ.setdefault(n, [])
        graph.setdefault(n, {})
    return succ, pred, graph, stop


def test_chain_search_matches_recursive_search_on_random_graphs():
    rng = random.Random(4242)
    seen_cyclic = seen_nonempty = 0
    for _ in range(2500):
        succ, pred, graph, stop = _random_chain_graph(rng)
        expected = oracles.maximal_chains_recursive(succ, pred, stop)
        assert _maximal_chains(graph, stop) == expected
        seen_nonempty += bool(expected)
        # a self-loop or a two-node cycle
        seen_cyclic += any(a == b or a in graph.get(b, {})
                           for a, callees in graph.items() for b in callees)
    assert seen_nonempty > 1000 and seen_cyclic > 500


# -- role superimposition ----------------------------------------------------------------


def test_rsi_factory_method_pair(undo_model):
    result = query_rsi(undo_model, "Undoable", "PasteCommand")
    kinds = {(h.kind, h.key(undo_model)) for h in result.hits}
    assert ("declares_role", "PasteCommand implements Undoable") in kinds
    members = [h for h in result.hits if h.kind == "role_member"]
    assert [undo_model.method_sig(h.member) for h in members] == [
        "PasteCommand.createUndoActivity()"
    ]


def test_rsi_type_without_overriding_members_reports_the_fact_alone(undo_model):
    result = query_rsi(undo_model, "Undoable", "FigureTransferCommand")
    own = [h for h in result.hits if h.type_id ==
           undo_model.type_by_name("FigureTransferCommand").id]
    assert [h.kind for h in own] == ["declares_role"]


def test_rsi_scope_excluding_implementors_is_empty(undo_model):
    result = query_rsi(undo_model, "Undoable", "UndoableAdapter")
    assert result.hits == ()


# -- support classes ------------------------------------------------------------------------


def test_sc_finds_nested_undo_activity(undo_model):
    result = query_sc(undo_model, "PasteCommand")
    assert [h.key(undo_model) for h in result.hits] == [
        "PasteCommand encloses PasteCommand.UndoActivity"
    ]


def test_sc_without_nested_classes_is_empty(command_model):
    result = query_sc(command_model, "SelectionTool")
    assert result.hits == ()


def test_sc_role_filter(undo_model):
    kept = query_sc(undo_model, "PasteCommand", role="UndoableAdapter")
    assert len(kept.hits) == 1
    filtered = query_sc(undo_model, "PasteCommand", role="Figure")
    assert filtered.hits == ()


# -- seed expansion ---------------------------------------------------------------------------


def test_expand_fanin_seed_suggests_command_scope(command_model):
    seeds = fan_in_analysis(command_model, MiningConfig(fanin_threshold=20))
    seed = next(s for s in seeds if s.evidence["method_sig"] == "DrawingView.checkDamage()")
    suggestions = expand_seed(command_model, seed)
    by_scope = {s.binding.param("scope"): (s.covered, s.total) for s in suggestions}
    assert by_scope["Command"] == (19, 28)
    assert by_scope["*"] == (28, 28)


def test_expand_redirector_seed_copies_binding(decorator_model):
    seed = find_redirectors(decorator_model)[0]
    (suggestion,) = expand_seed(decorator_model, seed)
    assert suggestion.binding.sort is SortKind.RL
    assert suggestion.binding.param("redirector") == "BorderDecorator"
    assert suggestion.binding.param("receiver") == "Figure"


def test_expand_seed_refuses_an_unknown_technique(decorator_model):
    seed = find_redirectors(decorator_model)[0]._replace(technique="hunch")
    with pytest.raises(FactError, match="^cannot expand seeds of technique 'hunch'$"):
        expand_seed(decorator_model, seed)


def test_expand_seed_with_unrelated_callers_only_star():
    text = """
    class A { public void act() { } }
    class U1 { public void f(A a) { a.act(); } }
    class U2 { public void f(A a) { a.act(); } }
    class U3 { public void f(A a) { a.act(); } }
    """
    model = model_from_source(text)
    seeds = fan_in_analysis(model, MiningConfig(fanin_threshold=3))
    suggestions = expand_seed(model, seeds[0])
    assert [s.binding.param("scope") for s in suggestions] == ["*"]


def test_expand_grouped_seed_one_cb_binding_per_callee(undo_model):
    seeds = grouped_calls_analysis(undo_model)
    seed = next(s for s in seeds if s.score == 4)
    suggestions = expand_seed(undo_model, seed)
    targets = {s.binding.param("target") for s in suggestions}
    assert targets == {
        "AbstractCommand.setUndoActivity(UndoableAdapter)",
        "UndoableAdapter.setAffectedFigures(FigureEnumeration)",
    }
    assert all(s.binding.param("scope") == "AbstractCommand" for s in suggestions)


# -- deep hierarchies ------------------------------------------------------------------------------


def test_scoped_queries_on_a_deep_hierarchy_keep_to_the_load_peak():
    # L0 extends L1 extends ... L999, declared child first.  Scoping a query
    # to the root reads each type's ancestors and lists no type's subtypes,
    # so the queries hold little beyond the model itself.
    depth = 1000
    records = [{"k": "type", "id": f"T{i}", "name": f"L{i}", "kind": "class",
                "abstract": False, "anon": False, "encl": None,
                "super": [f"T{i + 1}"] if i + 1 < depth else []} for i in range(depth)]
    root = f"L{depth - 1}"
    gc.collect()
    tracemalloc.start()
    try:
        model = load_records(records)
        load_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        sc = query_sc(model, root)
        rsi = query_rsi(model, root, root)
        query_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sc.hits) == 0
    assert len(rsi.hits) == depth - 1
    assert query_peak < 1.5 * load_peak, (query_peak, load_peak)


# -- binding execution and determinism ----------------------------------------------------------


def test_execute_binding_round_trip(command_model):
    binding = QueryBinding.make(
        SortKind.CB, target="DrawingView.checkDamage", scope="Command"
    )
    result = execute_binding(command_model, binding)
    assert len(result.hits) == 19


def test_a_binding_names_an_overload_by_its_parameter_types():
    model = model_from_source(
        "class A { void f(int x) { } void f(String s) { } }"
        " class B { private A a; void g() { a.f(1); } }"
    )
    (call,) = model.calls_of(model.resolve_method("B.g").id)
    result = query_cb(model, call.static_target)
    assert result.binding.param("target") == "A.f(int)"
    assert execute_binding(model, result.binding) == result
    with pytest.raises(FactError, match="ambiguous method reference 'A.f'"):
        execute_binding(model, QueryBinding.make(SortKind.CB, target="A.f"))


def test_every_result_runs_again_from_its_binding():
    # A binding as a query prints it (a CB target, an EP root as
    # Type.name(params)) is one a concern model can store and run again.
    nonempty = dict.fromkeys(SortKind, 0)
    for model in sample_models(seed=5150, count=40):
        for result in each_sort_result(model):
            assert execute_binding(model, result.binding) == result, result.binding
            nonempty[result.sort] += bool(result.hits)
    assert min(nonempty.values()) > 20, nonempty


def test_every_seed_suggestion_runs_on_the_corpus():
    ran = 0
    for name in CORPUS_FILES:
        model = corpus_model(name.removesuffix(".mini"))
        for technique in TECHNIQUES:
            for seed in mine(model, technique):
                for suggestion in expand_seed(model, seed):
                    execute_binding(model, suggestion.binding)
                    ran += 1
    assert ran > 10


def test_query_results_are_deterministic(undo_model):
    first = query_rsi(undo_model, "Undoable", "*").to_json(undo_model)
    second = query_rsi(undo_model, "Undoable", "*").to_json(undo_model)
    assert first == second


def test_hits_order_by_source_file_then_id():
    from sortweaver.minilang import extract_facts, parse
    from sortweaver.model import load_records, records_of

    shared = "class Target { public void hit() { } }"
    caller = """
    class Caller%s {
        private Target fTarget;
        public void go() { fTarget.hit(); }
    }
    """
    units = [
        parse(shared + caller % "B", "zz_late.mini"),
        parse(caller % "A", "aa_early.mini"),
    ]
    model = load_records(records_of(extract_facts(units).records))
    hits = query_cb(model, "Target.hit", "*").hits
    files = [model.calls[h.call].src for h in hits]
    assert files == sorted(files)
    assert files[0] == "aa_early.mini"


# -- oracle equivalence ------------------------------------------------------------------------


def test_queries_match_relational_oracles_on_random_models():
    rng = random.Random(2024)
    mismatches = 0
    for _ in range(60):
        model = random_model(rng)
        methods = sorted(model.methods)
        types = sorted(model.types)
        for target in methods[:3]:
            got = {h.call for h in query_cb(model, target, "*").hits}
            assert got == oracles.cb_hits(model, target, "*", "lift_to_ancestors")
        for tid in types[:2]:
            scope = model.types[tid].qualified_name
            for target in methods[:2]:
                got = {h.call for h in query_cb(model, target, scope).hits}
                assert got == oracles.cb_hits(model, target, scope, "lift_to_ancestors")
        for red in types[:3]:
            for rec in types[:3]:
                got = {
                    (h.redirector_method, h.receiver_method, h.call)
                    for h in query_rl(
                        model,
                        model.types[red].qualified_name,
                        model.types[rec].qualified_name,
                    ).hits
                }
                assert got == oracles.rl_triples(model, red, rec)
        for context in ("Ctx", "int"):
            got = {(h.methods, h.calls, h.param_indices)
                   for h in query_ec(model, context, "*").hits}
            assert got == oracles.ec_hits(model, context, "*")
        for exception in ("IOErr", "NetErr"):
            got = {(h.methods, h.calls, h.root_raises) for h in query_ep(model, exception).hits}
            assert got == oracles.ep_hits(model, exception)
        for role in types[:3]:
            got = {
                (h.type_id, h.member, h.kind)
                for h in query_rsi(model, model.types[role].qualified_name, "*").hits
            }
            assert got == oracles.rsi_hits(model, role, "*")
        got = {(h.enclosing, h.nested) for h in query_sc(model, "*").hits}
        assert got == oracles.sc_hits(model, "*", None)
    assert mismatches == 0


def test_expand_fanin_matches_brute_force_on_random_models():
    # Every fan-in seed's suggestions, scopes, coverage and order, against
    # candidate scopes found from the fixpoint subtype pairs.
    rng = random.Random(9090)
    scoped = 0
    for i in range(150):
        model = random_model(rng, max_types=10, policy=list(DispatchPolicy)[i % 3])
        for seed in fan_in_analysis(model, MiningConfig(fanin_threshold=2)):
            got = [(s.binding.param("scope"), s.binding.param("target"), s.coverage,
                    s.covered, s.total) for s in expand_seed(model, seed)]
            assert got == oracles.fanin_suggestions(model, seed)
            scoped += len(got) > 1
    assert scoped > 400


def test_rsi_matches_oracle_on_dense_hierarchies():
    # Multiple inheritance with shared signatures: role members often reach
    # the role only through other supertypes.
    rng = random.Random(4711)
    indirect = 0
    for _ in range(60):
        model = load_records(dense_hierarchy(rng))
        for role, decl in model.types.items():
            got = {(h.type_id, h.member, h.kind)
                   for h in query_rsi(model, decl.qualified_name, "*").hits}
            want = oracles.rsi_hits(model, role, "*")
            assert got == want
            indirect += sum(kind == "role_member" and role not in model.types[t].supertypes
                            for t, _, kind in want)
    assert indirect > 100
