import hashlib
import io
import random

import pytest

import warning_scenarios
from aspect_parser import AspectSyntaxError, parse_aspect
from conftest import CORPUS, each_sort_result, model_from_source, sample_models

from sortweaver._util import pretty_json
from sortweaver.cli import main
from sortweaver.concerns import Group, load_model
from sortweaver.minilang import extract_facts, parse
from sortweaver.model import DispatchPolicy, FactError, load_records, records_of
from sortweaver.queries import (
    SortKind,
    query_cb,
    query_ec,
    query_ep,
    query_rl,
    query_rsi,
    query_sc,
)
from sortweaver.refactoring import (
    PlanError,
    SourceEdit,
    apply_edits,
    check_precedence,
    combine_plans,
    plan_for,
    render_doc,
)
from sortweaver.refactoring.aspect_text import (
    Advice,
    AndExpr,
    AspectDoc,
    CommentStanza,
    Execution,
    NotExpr,
    OrExpr,
    PointcutDef,
    PointcutRef,
    Within,
)


def fixed_point(plan):
    text = plan.aspect_text
    return text == render_doc(parse_aspect(text))


# -- consistent behavior -----------------------------------------------------------


def test_notify_views_plan_is_after_advice_with_19_deletes(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    plan = plan_for(command_model, result)
    text = plan.aspect_text
    assert "execution(void Command+.execute())" in text
    assert "after(Command command)" in text
    assert len(plan.edits) == 19
    assert all(e.kind == "delete_call_site" for e in plan.edits)
    assert fixed_point(plan)


def test_consistency_plan_matches_advice_figure(command_model):
    result = query_cb(command_model, "AbstractCommand.execute", "AbstractCommand")
    plan = plan_for(command_model, result)
    text = plan.aspect_text
    assert "before(AbstractCommand abstractCommand)" in text
    assert "execution(void AbstractCommand+.execute())" in text
    assert "this(abstractCommand)" in text
    assert text.count("!within(") == 1
    assert "!within(*..DrawApplication.*)" in text
    assert any(w.code == "ANON_CALLERS" for w in plan.warnings)
    assert fixed_point(plan)


def test_mixed_ordinals_propose_around_with_tangled(undo_model):
    result = query_cb(undo_model, "AbstractCommand.setUndoActivity", "PasteCommand")
    plan = plan_for(undo_model, result)
    assert "void around(PasteCommand pasteCommand)" in plan.aspect_text
    assert "proceed();" in plan.aspect_text
    assert any(w.code == "TANGLED" for w in plan.warnings)


def test_advice_override_keeps_tangled_warning(undo_model):
    result = query_cb(undo_model, "AbstractCommand.setUndoActivity", "PasteCommand")
    plan = plan_for(undo_model, result, advice="after")
    assert "after(PasteCommand pasteCommand)" in plan.aspect_text
    assert any(w.code == "TANGLED" for w in plan.warnings)


def test_enumerated_pointcut(command_model):
    result = query_cb(command_model, "AbstractCommand.execute", "AbstractCommand")
    plan = plan_for(command_model, result, enumerate_callers=True)
    text = plan.aspect_text
    assert "+" not in text.split("{", 1)[1]  # no subtype marker on patterns
    assert "execution(void PasteCommand.execute())" in text
    assert "!within(" not in text
    assert any("anonymous callers" in note for note in plan.notes)
    assert fixed_point(plan)


def test_empty_cb_result_is_an_error(command_model):
    empty = query_cb(command_model, "DrawingView.checkDamage", "DrawingView")
    with pytest.raises(PlanError, match="^cannot plan an empty CB result$"):
        plan_for(command_model, empty)


def test_library_refusals_name_the_fault(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    with pytest.raises(PlanError, match="^unknown advice kind 'sideways'$"):
        plan_for(command_model, result, advice="sideways")
    with pytest.raises(PlanError, match="^nothing to combine$"):
        combine_plans("Empty", [])
    with pytest.raises(PlanError, match="^unknown edit kind 'rewrite'$"):
        SourceEdit("rewrite", "M1", "rewrite the body")
    edit = SourceEdit("delete_throws_clause", "M1", "drop it", (("exception", "E1"),))
    assert (edit.detail_value("exception"), edit.detail_value("reason")) == ("E1", None)


def test_cb_closure_drives_query_to_empty(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    plan = plan_for(command_model, result)
    edited = apply_edits(command_model, plan.edits)
    assert query_cb(edited, "DrawingView.checkDamage", "Command").hits == ()


def test_cb_edit_targets_stay_within_result_closure(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    plan = plan_for(command_model, result)
    allowed = {h.call for h in result.hits}
    assert {e.target for e in plan.edits} <= allowed


# -- redirection layer ---------------------------------------------------------------


def test_pure_decorator_plan(decorator_model):
    result = query_rl(decorator_model, "BorderDecorator", "Figure")
    plan = plan_for(decorator_model, result)
    text = plan.aspect_text
    assert text.count("around()") == 2
    assert "call(void Figure.draw())" in text
    assert "call(void Figure.moveBy(int,int))" in text
    assert [e.kind for e in plan.edits] == ["replace_type_removal"]
    assert plan.warnings == ()
    assert fixed_point(plan)


def test_wrapper_with_extra_member_warns_extra_roles():
    text = (CORPUS / "decorator.mini").read_text() + """
class Observer { }
"""
    model = model_from_source(text.replace(
        "public void moveBy(int dx, int dy) {\n        fInner.moveBy(dx, dy);\n    }\n}",
        "public void moveBy(int dx, int dy) {\n        fInner.moveBy(dx, dy);\n    }\n"
        "\n    public void addObserver(Observer o) {\n    }\n}",
    ))
    result = query_rl(model, "BorderDecorator", "Figure")
    plan = plan_for(model, result)
    codes = [w.code for w in plan.warnings]
    assert "REDIR_EXTRA_ROLES" in codes


def test_direct_receiver_call_warns_clients():
    text = (CORPUS / "decorator.mini").read_text() + """
class Canvas {
    private Figure fFigure;
    public void repaint() {
        fFigure.draw();
    }
}
"""
    model = model_from_source(text)
    result = query_rl(model, "BorderDecorator", "Figure")
    plan = plan_for(model, result)
    clients = [w for w in plan.warnings if w.code == "REDIR_CLIENTS"]
    assert len(clients) == 1
    (call_id,) = clients[0].evidence
    assert model.methods[model.calls[call_id].caller].name == "repaint"


# -- expose context ---------------------------------------------------------------------


def test_wormhole_plan_removes_middle_parameter(monitor_model):
    result = query_ec(monitor_model, "ProgressMonitor")
    plan = plan_for(monitor_model, result)
    text = plan.aspect_text
    assert "pointcut callerSpace(ProgressMonitor ctx)" in text
    assert "cflow(callerSpace(ctx)) && calleeSpace()" in text
    signature_edits = [
        e for e in plan.edits if e.kind == "remove_param" and e.target.startswith("M")
    ]
    assert [monitor_model.method_sig(e.target) for e in signature_edits] == [
        "Exporter.writeAll(ProgressMonitor)"
    ]
    assert fixed_point(plan)


def test_two_method_chain_has_no_signature_edits():
    text = """
    class Monitor { }
    class A {
        public void top(Monitor m) { leaf(m); }
        public void leaf(Monitor m) { }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_ec(model, "Monitor"))
    assert [e for e in plan.edits if e.kind == "remove_param"] == []
    assert any("no intermediate methods" in note for note in plan.notes)


def test_chains_sharing_a_head_get_one_caller_space():
    text = """
    class Monitor { }
    class A {
        public void top(Monitor m) { left(m); right(m); }
        public void left(Monitor m) { }
        public void right(Monitor m) { }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_ec(model, "Monitor"))
    text_out = plan.aspect_text
    assert text_out.count("pointcut callerSpace") == 1
    assert "execution(void A.left(Monitor)) || execution(void A.right(Monitor))" in text_out


# -- role superimposition ------------------------------------------------------------------


def test_rsi_plan_introduces_factory_with_visibility_caution(undo_model):
    result = query_rsi(undo_model, "Undoable", "PasteCommand")
    plan = plan_for(undo_model, result)
    text = plan.aspect_text
    assert "declare parents : PasteCommand implements Undoable;" in text
    assert "public UndoableAdapter PasteCommand.createUndoActivity()" in text
    assert any(w.code == "VISIBILITY_CHANGE" for w in plan.warnings)
    assert [e.kind for e in plan.edits] == ["move_member_to_aspect"]
    assert fixed_point(plan)


def test_all_public_role_has_no_warnings():
    text = """
    interface Storable { void write(); }
    class TextFigure implements Storable {
        public void write() { }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_rsi(model, "Storable", "*"))
    assert plan.warnings == ()


def test_role_member_overriding_non_role_member_is_a_blocker():
    text = """
    interface Visitor { void visit(); }
    class Base { public void visit() { } }
    class Node extends Base implements Visitor {
        public void visit() { }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_rsi(model, "Visitor", "Node"))
    blockers = [w for w in plan.warnings if w.code == "INTRO_CONFLICT"]
    assert len(blockers) == 1
    assert blockers[0].severity == "blocker"


# -- support classes ---------------------------------------------------------------------------


def test_sc_plan_moves_class_and_reports_broken_deps(undo_model):
    result = query_sc(undo_model, "PasteCommand")
    plan = plan_for(undo_model, result)
    text = plan.aspect_text
    assert "public static class UndoActivity extends UndoableAdapter" in text
    codes = {w.code for w in plan.warnings}
    assert codes == {"SC_NOT_INTRODUCIBLE", "SC_BROKEN_DEPS"}
    broken = next(w for w in plan.warnings if w.code == "SC_BROKEN_DEPS")
    (fid,) = broken.evidence
    assert undo_model.fields[fid].name == "fSelection"
    assert fixed_point(plan)


def test_sc_with_public_members_only_warns_not_introducible():
    text = """
    class Logger { public void log() { } }
    class HostCommand {
        public Logger fLog;
        public class Helper {
            public void run() { fLog.log(); }
        }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_sc(model, "HostCommand"))
    assert [w.code for w in plan.warnings] == ["SC_NOT_INTRODUCIBLE"]


def test_empty_sc_result_is_an_error(command_model):
    with pytest.raises(PlanError, match="^cannot plan an empty SC result$"):
        plan_for(command_model, query_sc(command_model, "SelectionTool"))


# -- exception propagation ----------------------------------------------------------------------


def test_ep_plan_structure(exceptions_model):
    result = query_ep(exceptions_model, "IOErr")
    plan = plan_for(exceptions_model, result)
    text = plan.aspect_text
    assert "declare soft : IOErr : (call(* StorageFormat.parse(..) throws IOErr));" in text
    deletions = {exceptions_model.method_sig(e.target) for e in plan.edits}
    assert deletions == {"DrawingReader.read(String)", "DrawingLoader.load(String)"}
    assert any("DrawingOpener.open(String)" in note for note in plan.notes)
    codes = [w.code for w in plan.warnings]
    assert codes == ["EP_TYPE_LOST"]
    assert fixed_point(plan)


def test_ep_closure_no_chain_contains_edited_methods(exceptions_model):
    result = query_ep(exceptions_model, "IOErr")
    plan = plan_for(exceptions_model, result)
    edited_model = apply_edits(exceptions_model, plan.edits)
    edited_ids = {e.target for e in plan.edits}
    for chain in query_ep(edited_model, "IOErr").hits:
        assert not (set(chain.methods) & edited_ids)


def test_sibling_override_triggers_ep_overrides():
    text = (CORPUS / "exceptions.mini").read_text() + """
class AltLoader extends DrawingLoader {
    public Drawing load(String path) throws IOErr {
        return null;
    }
}
"""
    model = model_from_source(text)
    plan = plan_for(model, query_ep(model, "IOErr"))
    overrides = [w for w in plan.warnings if w.code == "EP_OVERRIDES"]
    assert len(overrides) == 1
    (related,) = overrides[0].evidence
    assert model.method_sig(related) == "AltLoader.load(String)"


def test_single_method_chain_plan_has_no_throws_edits():
    text = """
    class IOErr { }
    class A {
        public void boom() throws IOErr { throw new IOErr(); }
    }
    """
    model = model_from_source(text)
    plan = plan_for(model, query_ep(model, "IOErr"))
    assert plan.edits == ()
    assert any("single-method chain" in note for note in plan.notes)


# -- no repeats ----------------------------------------------------------------------------------


def _repeats(plan) -> dict:
    """What a plan states more than once: stanzas, edits, notes, comment lines."""
    comment_lines = [line for stanza in plan.doc.stanzas if isinstance(stanza, CommentStanza)
                     for line in stanza.lines]
    return {what: [x for x in items if items.count(x) > 1]
            for what, items in (("stanzas", list(plan.doc.stanzas)), ("edits", list(plan.edits)),
                                ("notes", list(plan.notes)), ("comment lines", comment_lines))
            if len(set(items)) < len(items)}


def test_a_redirector_overload_pair_gets_one_around_advice():
    model = model_from_source(
        "class Target { void open(int x) { } void close() { } }"
        " class Wrapper { private Target t; void open(int x) { t.open(x); }"
        " void open(String s) { t.open(s); } void close() { t.close(); } }"
    )
    result = query_rl(model, "Wrapper", "Target")
    assert len({h.redirector_method for h in result.hits}) == 3
    plan = plan_for(model, result)
    assert plan.aspect_text.count("around(") == 2
    assert _repeats(plan) == {}


def test_a_catcher_shared_by_two_chain_heads_is_named_once():
    model = model_from_source("""
    class E { }
    class A {
        void top() { try { h1(); h2(); } catch (E e) { } }
        void h1() throws E { throw new E(); }
        void h2() throws E { throw new E(); }
    }
    """)
    plan = plan_for(model, query_ep(model, "E"))
    note = "capture SoftException at the top of the call chain: rewrite the E catch in A.top()"
    assert plan.notes.count(note) == 1
    assert plan.aspect_text.count(note) == 1
    assert _repeats(plan) == {}


def test_overloaded_chain_roots_share_one_declare_soft():
    model = model_from_source(
        "class E { } class A { void f(int x) throws E { throw new E(); }"
        " void f(String s) throws E { throw new E(); } }"
    )
    result = query_ep(model, "E")
    assert len(result.hits) == 2
    plan = plan_for(model, result)
    assert plan.aspect_text.count("declare soft : E : (call(* A.f(..) throws E));") == 1
    assert _repeats(plan) == {}


def test_implementors_that_share_a_qualified_name_get_one_rsi_stanza_each():
    units = [parse("interface Role { void run(); } class Impl implements Role"
                   " { public void run() { } }", "a.mini"),
             parse("class Impl implements Role { public void run() { } }", "b.mini")]
    model = load_records(records_of(extract_facts(units).records))
    plan = plan_for(model, query_rsi(model, "Role"))
    assert [type(stanza).__name__ for stanza in plan.doc.stanzas] == [
        "DeclareParents", "IntroMethod"]
    assert [edit.target for edit in plan.edits] == ["M2", "M3"]
    assert _repeats(plan) == {}


def _names_collide(model, rng):
    """A copy of the model whose types share qualified and simple names with
    one another."""
    records = model.to_records()
    types = [rec for rec in records if rec["k"] == "type"]
    for rec in types:
        if rng.random() < 0.3:
            other = rng.choice(types)["name"]
            rec["name"] = rng.choice([other, "z." + other.rsplit(".", 1)[-1]])
    return load_records(records, policy=model.policy)


def _until_unbound(results):
    """The results until a binding fails to bind: a printed signature names
    its type by a qualified name that an earlier type may share.  Only the
    EP bindings rooted at a printed signature, drawn last, can fail so."""
    try:
        yield from results
    except FactError:
        return


def test_no_plan_repeats_a_stanza_an_edit_a_note_or_a_comment_line():
    planned = dict.fromkeys(SortKind, 0)
    rng = random.Random(6161)
    for base in sample_models(seed=6160, count=30):
        collided = _names_collide(base, rng)
        for model, results in ((base, each_sort_result(base)),
                               (collided, _until_unbound(each_sort_result(collided)))):
            for result in results:
                if not result.hits:
                    continue
                cb = result.sort is SortKind.CB
                for options in ({}, {"enumerate_callers": True}) if cb else ({},):
                    try:
                        plan = plan_for(model, result, **options)
                    except PlanError:  # an enumeration with no named caller
                        continue
                    assert _repeats(plan) == {}, (result.binding, plan.aspect_text)
                    planned[result.sort] += 1
    assert min(planned.values()) > 20, planned


# -- composition, rendering, edits ---------------------------------------------------------------


def test_composite_undo_aspect(undo_model):
    plans = [
        plan_for(undo_model, query_sc(undo_model, "PasteCommand")),
        plan_for(undo_model, query_rsi(undo_model, "Undoable", "PasteCommand")),
        plan_for(
            undo_model,
            query_cb(undo_model, "AbstractCommand.setUndoActivity", "PasteCommand"),
            advice="after",
        ),
    ]
    composite = combine_plans("PasteCommandUndo", plans)
    text = composite.aspect_text
    assert text.startswith("public aspect PasteCommandUndo {")
    assert "public static class UndoActivity extends UndoableAdapter" in text
    assert "declare parents : PasteCommand implements Undoable;" in text
    assert "public UndoableAdapter PasteCommand.createUndoActivity()" in text
    assert "after(PasteCommand pasteCommand)" in text
    codes = {w.code for w in composite.warnings}
    assert "VISIBILITY_CHANGE" in codes
    assert fixed_point(composite)


def test_parse_aspect_rejects_malformed_text():
    for bad in ("", "aspect X {", "public aspect X {\n    what is this\n}",
                "public aspect  {\n}", "public aspect a b {\n}", "public aspect 9Lives {\n}"):
        with pytest.raises(AspectSyntaxError):
            parse_aspect(bad)


def test_renderer_parenthesises_a_disjunction_under_not_and_and():
    either = OrExpr((Within("A"), Within("B")))
    run = Execution("void", "C", "run")
    doc = AspectDoc("Parens", (
        PointcutDef("neither", (), NotExpr(either)),
        PointcutDef("runEither", (), AndExpr((run, either))),
        PointcutDef("p", (), AndExpr((OrExpr((Within("A"), Within("B"))),
                                      Execution("void", "C", "run")))),
        Advice("before", None, (), AndExpr((PointcutRef("neither"), either)), ("// body",)),
    ))
    text = render_doc(doc)
    assert text == (
        "public aspect Parens {\n"
        "\n"
        "    pointcut neither() : !(within(A) || within(B));\n"
        "\n"
        "    pointcut runEither() :\n"
        "        execution(void C.run())\n"
        "        && (within(A) || within(B));\n"
        "\n"
        "    pointcut p() :\n"
        "        (within(A) || within(B))\n"
        "        && execution(void C.run());\n"
        "\n"
        "    before() : neither() && (within(A) || within(B)) {\n"
        "        // body\n"
        "    }\n"
        "}\n"
    )
    assert parse_aspect(text) == doc
    assert render_doc(parse_aspect(text)) == text


def test_rendering_same_plan_twice_is_identical(command_model):
    result = query_cb(command_model, "DrawingView.checkDamage", "Command")
    assert plan_for(command_model, result).aspect_text == \
        plan_for(command_model, result).aspect_text


def test_all_edit_targets_exist(undo_model, exceptions_model, monitor_model):
    known = lambda m, eid: eid in m.types or eid in m.methods or eid in m.fields \
        or eid in m.calls
    cases = [
        (undo_model, plan_for(undo_model, query_sc(undo_model, "PasteCommand"))),
        (exceptions_model, plan_for(exceptions_model, query_ep(exceptions_model, "IOErr"))),
        (monitor_model, plan_for(monitor_model, query_ec(monitor_model, "ProgressMonitor"))),
    ]
    for model, plan in cases:
        for edit in plan.edits:
            assert known(model, edit.target)


def test_precedence_detected_on_overlapping_cb_plans(command_model):
    consistency = plan_for(
        command_model, query_cb(command_model, "AbstractCommand.execute", "AbstractCommand")
    )
    notify = plan_for(
        command_model, query_cb(command_model, "DrawingView.checkDamage", "Command")
    )
    warnings = check_precedence([consistency, notify])
    assert len(warnings) == 1
    assert warnings[0].code == "PRECEDENCE"
    assert warnings[0].severity == "info"


def test_no_precedence_for_disjoint_plans(undo_model):
    sc = plan_for(undo_model, query_sc(undo_model, "PasteCommand"))
    cb = plan_for(
        undo_model,
        query_cb(undo_model, "AbstractCommand.setUndoActivity", "PasteCommand"),
        advice="after",
    )
    assert check_precedence([sc, cb]) == []


def test_combined_same_code_warnings_are_ordered_by_evidence():
    from sortweaver.refactoring import AspectDoc, RefactoringPlan
    from sortweaver.refactoring.plans import warn

    methods = [f"M{i}" for i in range(1, 9)]
    plans = [
        RefactoringPlan("EP", AspectDoc("Softening", ()), (), (warn("EP_TYPE_LOST", [m]),),
                        f"chain{m}")
        for m in reversed(methods)
    ]
    combined = combine_plans("Softening", plans)
    assert [w.code for w in combined.warnings] == ["EP_TYPE_LOST"] * 8
    assert [w.evidence for w in combined.warnings] == [(m,) for m in methods]


# -- pinned plan bytes ----------------------------------------------------------------

PLAN_FLAG_SETS = ((), ("--json",), ("--enumerate",), ("--advice", "around"))

#: sha256 and length of each plan sweep below.  A change that alters a plan
#: on purpose updates the pin and says so in CHANGES.md.
PLAN_PINS = {
    "cli": ("b61fd57a29ecaa765927c2677862ed5e91d3564499a27325ef2adb29e5a528dd", 194483),
    "corpus": ("a08b498748671003c47230d36de0db70b043d9cfa5391b991ec55126524cb737", 3433),
    "scenarios": ("2e7e9ed2a2c977a6d63078dc7bf9ed2af7d68da0948fe0c6849a034bf340b78c", 22541),
}


def _concern_paths(group, prefix=""):
    for child in group.children:
        path = f"{prefix}/{child.name}" if prefix else child.name
        yield path
        if isinstance(child, Group):
            yield from _concern_paths(child, path)


def _cli_plan_outputs(tmp_path) -> str:
    """``plan`` stdout and exit code for every path of both corpus concern
    models (the root included), each flag set, under each policy."""
    chunks = []
    for stem in ("command", "undo"):
        facts = tmp_path / f"{stem}.jsonl"
        assert main(["extract", str(CORPUS / f"{stem}.mini"), "-o", str(facts)]) == 0
        model_file = CORPUS / f"{stem}-model.json"
        for path in ("/", *_concern_paths(load_model(model_file))):
            for flags in PLAN_FLAG_SETS:
                for policy in DispatchPolicy:
                    out = io.StringIO()
                    code = main(["plan", str(model_file), path, str(facts), *flags,
                                 "--policy", policy.value], stdin=io.StringIO(), stdout=out)
                    chunks.append(f"{stem} {path} {flags} {policy.value} -> {code}\n"
                                  + out.getvalue())
    return "\n".join(chunks)


def test_plan_outputs_are_pinned(tmp_path, decorator_model, monitor_model, exceptions_model):
    corpus_plans = [
        plan_for(decorator_model, query_rl(decorator_model, "BorderDecorator", "Figure")),
        plan_for(monitor_model, query_ec(monitor_model, "ProgressMonitor")),
        plan_for(exceptions_model, query_ep(exceptions_model, "IOErr")),
    ]
    scenario_plans = [getattr(warning_scenarios, name)()
                      for name in sorted(dir(warning_scenarios)) if name.endswith("_plan")]
    outputs = {
        "cli": _cli_plan_outputs(tmp_path),
        "corpus": "\n".join(pretty_json(p.to_json()) for p in corpus_plans),
        "scenarios": "\n".join(pretty_json(p.to_json()) for p in scenario_plans),
    }
    pins = {}
    for name, text in outputs.items():
        data = text.encode("utf-8")
        pins[name] = (hashlib.sha256(data).hexdigest(), len(data))
    assert pins == PLAN_PINS
