import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys

import pytest

from conftest import CORPUS, CORPUS_FILES, REPO, young_objects

from sortweaver import cli, minilang
from sortweaver.cli import build_parser, main
from sortweaver.model import load_facts_path, load_records
from sortweaver.queries import QueryBinding, execute_binding


def run_cli(*argv, stdin_text=""):
    out = io.StringIO()
    code = main(list(argv), stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def facts_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("facts") / "command.jsonl"
    code, _ = run_cli("extract", str(CORPUS / "command.mini"), "-o", str(path))
    assert code == 0
    return path


@pytest.fixture(scope="module")
def undo_facts(tmp_path_factory):
    path = tmp_path_factory.mktemp("facts") / "undo.jsonl"
    code, _ = run_cli("extract", str(CORPUS / "undo.mini"), "-o", str(path))
    assert code == 0
    return path


def test_no_arguments_prints_usage_and_fails(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_fails():
    code, _ = run_cli("frobnicate")
    assert code == 1


def test_version_mentions_tool_and_schemas(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "sortweaver 0.1.0" in out
    assert "facts schema" in out and "concern-model schema" in out


def test_extract_to_stdout_matches_file_output(facts_file):
    code, out = run_cli("extract", str(CORPUS / "command.mini"))
    assert code == 0
    assert out == facts_file.read_text()
    first = json.loads(out.splitlines()[0])
    assert first["k"] == "type"


def test_extract_merges_multiple_files(tmp_path):
    code, out = run_cli(
        "extract", str(CORPUS / "decorator.mini"), str(CORPUS / "monitor.mini")
    )
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    sources = {r.get("src") for r in records}
    assert sources == {"decorator.mini", "monitor.mini"}
    names = {r["name"] for r in records if r["k"] == "type"}
    assert {"BorderDecorator", "ProgressMonitor"} <= names


def test_extract_parse_failure_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.mini"
    bad.write_text("class A {")
    code, _ = run_cli("extract", str(bad))
    assert code == 1
    assert "error" in capsys.readouterr().err


#: Sources whose facts every command that loads them would refuse; ``extract``
#: refuses them instead, naming the file, the type and the member or cycle.
_REFUSED_SOURCES = {
    "duplicate-signature": ("class A { void f() { } void f() { } }",
                            "error: {path}: class A: duplicate method f()"),
    "duplicate-signature-anonymous": (
        "class A { void m() { new A() { void f() { } void f() { } }; } }",
        "error: {path}: class A$anon1: duplicate method f()"),
    "duplicate-signature-named-resolved": (
        "class A { class B { } void f(B x) { } void f(B y) { } }",
        "error: {path}: class A: duplicate method f(A.B)"),
    "duplicate-field": ("class A { int x; String x; }",
                        "error: {path}: class A: duplicate field 'x'"),
    "abstract-with-body": ("class A { abstract void f() { return; } }",
                           "{path}: error: 1:29: abstract methods cannot have bodies\n"
                           "error: {path}: parse failed"),
    "abstract-with-empty-body": ("class A { abstract void f() { } }",
                                 "{path}: error: 1:29: abstract methods cannot have bodies\n"
                                 "error: {path}: parse failed"),
    "abstract-constructor": ("class C { abstract C(); void m() { new C(); } }",
                             "{path}: error: 1:11: constructors cannot be abstract\n"
                             "error: {path}: parse failed"),
    "bodiless-constructor": ("class C { C(); void m() { new C(); } }",
                             "{path}: error: 1:14: constructors need a body\n"
                             "error: {path}: parse failed"),
    "supertype-cycle": ("class A extends B { } class B extends A { }",
                        "error: {path}: class A: cycle in supertype hierarchy: A -> B -> A"),
    "extends-itself": ("class A extends A { }",
                       "error: {path}: class A: cycle in supertype hierarchy: A -> A"),
    "interface-cycle": ("interface I extends J { } interface J extends I { }",
                        "error: {path}: interface I: cycle in supertype hierarchy: I -> J -> I"),
}


@pytest.mark.parametrize("source, message", list(_REFUSED_SOURCES.values()),
                         ids=list(_REFUSED_SOURCES))
def test_extract_refuses_facts_the_model_rejects(tmp_path, capsys, source, message):
    path = tmp_path / "refused.mini"
    path.write_text(source, encoding="utf-8")
    assert run_cli("extract", str(path)) == (1, "")
    assert capsys.readouterr().err == message.format(path=path) + "\n"


def test_extract_refusal_names_the_file_that_declares_the_type(tmp_path, capsys):
    # Both files are named a.mini, as their facts' ``src`` is.
    first, second = tmp_path / "x" / "a.mini", tmp_path / "y" / "a.mini"
    first.parent.mkdir()
    second.parent.mkdir()
    first.write_text("class A { }", encoding="utf-8")
    second.write_text("class B extends C { } class C extends B { }", encoding="utf-8")
    assert run_cli("extract", str(first), str(second))[0] == 1
    assert capsys.readouterr().err == (
        f"error: {second}: class B: cycle in supertype hierarchy: B -> C -> B\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("source, code, error", [
    (b"class A { void f() { } }", 0, ""),
    (b"class A {", 1, "{path}: error: 1:10: expected type or constructor name, found ''\n"
                      "error: {path}: parse failed\n"),
    (b"class A { }\n\xff", 1, "error: {path}: not valid UTF-8 (invalid start byte)\n"),
], ids=["extracts", "parse-failure", "not-utf-8"])
def test_extract_restores_the_collector_state(tmp_path, capsys, monkeypatch, enabled,
                                              source, code, error):
    """The collector's state and its frozen objects are as they were, and with
    the collector on and nothing frozen the syntax trees kept past the
    command are no longer young."""
    path = tmp_path / "a.mini"
    path.write_bytes(source)
    during, trees = [], []

    def parse(text, source=""):
        during.append(gc.isenabled())
        trees.append(minilang.parse(text, source))
        return trees[-1]

    monkeypatch.setattr(cli, "parse", parse)
    was_enabled = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    try:
        moved = enabled and not gc.get_freeze_count()
        assert run_cli("extract", str(path))[0] == code
        assert gc.isenabled() is enabled
        if moved:
            assert not young_objects(trees)
        gc.freeze()  # then nothing moves, and nothing frozen is thawed
        try:
            count = gc.get_freeze_count()
            assert run_cli("extract", str(path))[0] == code
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == count
        finally:
            gc.unfreeze()
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert during == ([] if b"\xff" in source else [False, False])
    assert capsys.readouterr().err == error.format(path=path) * 2


def test_mine_fanin_json_first_seed_names_check_damage(facts_file):
    code, out = run_cli("mine", "fanin", str(facts_file), "--threshold", "10", "--json")
    assert code == 0
    seeds = json.loads(out)
    assert seeds[0]["evidence"]["method_sig"] == "DrawingView.checkDamage()"
    assert seeds[0]["score"] == 28


def test_mine_text_output_is_ranked(facts_file):
    code, out = run_cli("mine", "fanin", str(facts_file), "--threshold", "10")
    lines = out.splitlines()
    assert lines[0].startswith("  1")
    assert "DrawingView.checkDamage()" in lines[0]


def test_query_cb_scoped(facts_file):
    code, out = run_cli(
        "query", "cb", str(facts_file),
        "--target", "DrawingView.checkDamage", "--scope", "Command",
    )
    assert code == 0
    assert out.startswith("19 hits\n")


def test_query_json_shape(facts_file):
    code, out = run_cli(
        "query", "cb", str(facts_file),
        "--target", "DrawingView.checkDamage", "--scope", "*", "--json",
    )
    payload = json.loads(out)
    assert payload["sort"] == "CB"
    assert payload["policy"] == "lift_to_ancestors"
    assert len(payload["hits"]) == 28


def test_query_missing_flag_is_user_error(facts_file, capsys):
    code, _ = run_cli("query", "cb", str(facts_file))
    assert code == 1
    assert "--target" in capsys.readouterr().err


def test_query_unknown_scope_is_user_error(facts_file, capsys):
    code, _ = run_cli(
        "query", "cb", str(facts_file),
        "--target", "DrawingView.checkDamage", "--scope", "Nowhere",
    )
    assert code == 1


def test_policy_flag_changes_lifting(facts_file):
    args = ("query", "cb", str(facts_file), "--target", "Command.execute", "--scope", "*")
    code, out = run_cli(*args, "--policy", "static_only")
    assert out.startswith("1 hits\n")
    code, out = run_cli(*args, "--policy", "lift_to_ancestors")
    assert out.startswith("21 hits\n")


def test_model_lifecycle(tmp_path, facts_file):
    model_file = tmp_path / "concerns.json"
    assert run_cli("model", "init", str(model_file))[0] == 0
    assert run_cli("model", "add-group", str(model_file), "Command support")[0] == 0
    code, _ = run_cli(
        "model", "add-instance", str(model_file), "Command support/notify views",
        "--sort", "CB",
        "--param", "target=DrawingView.checkDamage", "--param", "scope=Command",
    )
    assert code == 0
    code, out = run_cli("model", "run", str(model_file), str(facts_file))
    assert code == 0
    assert "Command support/notify views: 19 hits (+19 -0 =0)" in out

    before = model_file.read_text()
    code, _ = run_cli("model", "run", str(model_file), str(facts_file), "--commit")
    assert code == 0
    assert model_file.read_text() != before
    code, out = run_cli("model", "run", str(model_file), str(facts_file))
    assert "(+0 -0 =19)" in out

    assert run_cli(
        "model", "rename", str(model_file), "Command support/notify views", "notify"
    )[0] == 0
    assert run_cli("model", "remove", str(model_file), "Command support/notify")[0] == 0
    code, _ = run_cli("model", "remove", str(model_file), "Command support/notify")
    assert code == 1


def test_model_run_json_reports_each_instance_its_result_or_its_error(tmp_path, capsys,
                                                                      facts_file):
    model_file = str(tmp_path / "concerns.json")
    run_cli("model", "init", model_file)
    run_cli("model", "add-group", model_file, "g")
    run_cli("model", "add-instance", model_file, "g/bad", "--sort", "CB",
            "--param", "target=Nope.nothing")
    run_cli("model", "add-instance", model_file, "g/good", "--sort", "CB",
            "--param", "target=DrawingView.checkDamage", "--param", "scope=Command")
    query = run_cli("query", "cb", str(facts_file), "--target", "DrawingView.checkDamage",
                    "--scope", "Command", "--json")
    assert query[0] == 0
    capsys.readouterr()
    for commit in (False, True):
        code, out = run_cli("model", "run", model_file, str(facts_file), "--json",
                            *(["--commit"] if commit else []))
        assert (code, capsys.readouterr().err) == (1, "error: 1 of 2 instances failed: g/bad\n")
        bad, good = json.loads(out)
        assert bad == {"path": "g/bad", "error": "unknown type: 'Nope'"}
        assert list(good) == ["drift", "path", "result"]  # keys sorted
        assert good["path"] == "g/good"
        assert good["result"] == json.loads(query[1])
        keys = [f"{hit['caller']} -> DrawingView.checkDamage() @{hit['ordinal']}"
                for hit in good["result"]["hits"]]
        assert len(keys) == 19
        # Drift is measured against the snapshot stored before this run.
        assert good["drift"] == {"added": sorted(keys), "removed": [], "unchanged": 0}
    code, out = run_cli("model", "run", model_file, str(facts_file), "--json")
    assert json.loads(out)[1]["drift"] == {"added": [], "removed": [], "unchanged": 19}


def test_model_duplicate_group_is_user_error(tmp_path):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    run_cli("model", "add-group", str(model_file), "dup")
    code, _ = run_cli("model", "add-group", str(model_file), "dup")
    assert code == 1


@pytest.mark.parametrize("command", [
    ("add-group", "g/x"),
    ("add-instance", "g/x", "--sort", "SC"),
    ("rename", "g/y", "x"),
], ids=["add-group", "add-instance", "rename"])
def test_every_edit_words_a_duplicate_name_as_the_loader_does(tmp_path, capsys, command):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    for path in ("g", "g/x", "g/y"):
        run_cli("model", "add-group", str(model_file), path)
    before = model_file.read_bytes()
    capsys.readouterr()
    assert run_cli("model", command[0], str(model_file), *command[1:]) == (1, "")
    assert capsys.readouterr().err == (
        "error: concern name 'x' under 'g' duplicates a sibling's name\n")
    assert model_file.read_bytes() == before


def test_model_rename_to_its_own_name_is_no_duplicate(tmp_path, capsys):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    run_cli("model", "add-group", str(model_file), "g")
    before = model_file.read_bytes()
    capsys.readouterr()
    assert run_cli("model", "rename", str(model_file), "g", "g") == (0, "renamed g to g\n")
    assert capsys.readouterr().err == ""
    assert model_file.read_bytes() == before


@pytest.mark.parametrize("new_name, reason", [("b/c", "contains '/'"), ("", "is empty")],
                         ids=["slash", "empty"])
def test_model_rename_refuses_a_name_no_path_reaches(tmp_path, capsys, new_name, reason):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    run_cli("model", "add-group", str(model_file), "a")
    before = model_file.read_bytes()
    capsys.readouterr()
    assert run_cli("model", "rename", str(model_file), "a", new_name)[0] == 1
    assert capsys.readouterr().err == f"error: concern name {new_name!r} under '/' {reason}\n"
    assert model_file.read_bytes() == before


_INSTANCE = {"name": "x", "sort": "CB", "params": {"target": "DrawingView.checkDamage"}}


@pytest.mark.parametrize("children, message", [
    ([_INSTANCE, _INSTANCE], "concern name 'x' under 'g' duplicates a sibling's name"),
    ([dict(_INSTANCE, name="x/y")], "concern name 'x/y' under 'g' contains '/'"),
    ([{"name": "", "children": []}], "concern name '' under 'g' is empty"),
], ids=["repeated", "slash", "empty"])
def test_load_model_refuses_a_name_no_path_reaches(tmp_path, capsys, facts_file, children,
                                                   message):
    model_file = tmp_path / "concerns.json"
    model_file.write_text(json.dumps({"name": "root", "children": [
        {"name": "g", "children": children}]}), encoding="utf-8")
    assert run_cli("model", "run", str(model_file), str(facts_file)) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_model_add_instance_refuses_a_repeated_param_key(tmp_path, capsys):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    before = model_file.read_bytes()
    capsys.readouterr()
    code, _ = run_cli("model", "add-instance", str(model_file), "a", "--sort", "CB",
                      "--param", "target=X", "--param", "target=Y")
    assert code == 1
    assert capsys.readouterr().err == "error: repeated --param key 'target'\n"
    assert model_file.read_bytes() == before


def test_model_add_group_refuses_an_empty_path(tmp_path, capsys):
    model_file = tmp_path / "concerns.json"
    run_cli("model", "init", str(model_file))
    before = model_file.read_bytes()
    capsys.readouterr()
    assert run_cli("model", "add-group", str(model_file), "/") == (1, "")
    assert capsys.readouterr().err == "error: empty concern path\n"
    assert model_file.read_bytes() == before


def test_load_model_refuses_an_instance_as_the_root(tmp_path, capsys, facts_file):
    model_file = tmp_path / "concerns.json"
    model_file.write_text(json.dumps(_INSTANCE), encoding="utf-8")
    assert run_cli("model", "run", str(model_file), str(facts_file)) == (1, "")
    assert capsys.readouterr().err == f"error: {model_file}: concern-model root must be a group\n"


def test_plan_enumerate_refuses_a_target_called_from_anonymous_classes_only(tmp_path, capsys):
    source = tmp_path / "anon.mini"
    source.write_text("""
    class Target { public void hit() { } }
    class Job { public void run() { } }
    class Holder {
        private Target fTarget;
        public void start() {
            Job one = new Job() { public void run() { fTarget.hit(); } };
            Job two = new Job() { public void run() { fTarget.hit(); } };
        }
    }
    """, encoding="utf-8")
    facts, model_file = tmp_path / "anon.jsonl", tmp_path / "concerns.json"
    assert run_cli("extract", str(source), "-o", str(facts))[0] == 0
    run_cli("model", "init", str(model_file))
    run_cli("model", "add-instance", str(model_file), "hits", "--sort", "CB",
            "--param", "target=Target.hit")
    capsys.readouterr()
    assert run_cli("query", "cb", str(facts), "--target", "Target.hit")[1].startswith("2 hits")
    assert run_cli("plan", str(model_file), "hits", str(facts), "--enumerate") == (1, "")
    assert capsys.readouterr().err == "error: no named callers to enumerate\n"


def test_plan_instance_writes_aspect_and_edits(tmp_path, undo_facts):
    aspect = tmp_path / "undo.aj"
    edits = tmp_path / "edits.json"
    code, out = run_cli(
        "plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo/undo setup calls",
        str(undo_facts), "-o", str(aspect), "--edits", str(edits),
    )
    assert code == 0
    assert "after(PasteCommand pasteCommand)" in aspect.read_text()
    payload = json.loads(edits.read_text())
    assert [e["kind"] for e in payload] == ["delete_call_site"]


def test_plan_group_builds_composite(undo_facts):
    code, out = run_cli(
        "plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo", str(undo_facts)
    )
    assert code == 0
    assert out.startswith("public aspect PasteCommandUndo {")
    assert "VISIBILITY_CHANGE" in out


def test_plan_group_reports_precedence(facts_file):
    code, out = run_cli(
        "plan", str(CORPUS / "command-model.json"), "Command support", str(facts_file)
    )
    assert code == 0
    assert "PRECEDENCE" in out


def test_plan_json_output(undo_facts):
    code, out = run_cli(
        "plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo", str(undo_facts),
        "--json",
    )
    payload = json.loads(out)
    assert payload["aspect_name"] == "PasteCommandUndo"
    assert payload["aspect_text"].startswith("public aspect PasteCommandUndo")


def test_plan_names_and_places_a_single_instance(undo_facts):
    path = "PasteCommandUndo/undo setup calls"
    code, out = run_cli(
        "plan", str(CORPUS / "undo-model.json"), path, str(undo_facts), "--name", "X", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["aspect_name"] == "X"
    assert payload["aspect_text"].startswith("public aspect X {\n")
    assert payload["instance_path"] == path
    assert payload["sort"] == "CB"
    # The instance's binding asks for after advice; the planner alone would propose another.
    assert "after(PasteCommand pasteCommand)" in payload["aspect_text"]


@pytest.mark.parametrize("flag", [["--advice", "around"], ["--enumerate"]],
                         ids=["advice", "enumerate"])
def test_plan_flag_for_cb_only_on_another_sort_is_user_error(undo_facts, capsys, flag):
    path = "PasteCommandUndo/undo activity class"  # an SC instance
    code, out = run_cli("plan", str(CORPUS / "undo-model.json"), path, str(undo_facts), *flag)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: {flag[0]} applies only to CB instances, and {path!r} plans none\n"
    )


def test_plan_advice_flag_reaches_the_cb_instance_of_a_group(undo_facts):
    args = ("plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo", str(undo_facts))
    code, out = run_cli(*args, "--advice", "around")
    assert code == 0
    assert out != run_cli(*args)[1]
    assert "void around(PasteCommand pasteCommand)" in out


@pytest.mark.parametrize("group, path, flags, name", [
    ("!!!", "!!!", (), ""),
    ("9 lives", "9 lives", (), "9Lives"),
    ("PasteCommandUndo", "PasteCommandUndo/undo setup calls", ("--name", "a b"), "a b"),
    ("PasteCommandUndo", "PasteCommandUndo", ("--name", ""), ""),
], ids=["group-without-letters", "group-with-leading-digit", "name-with-space", "empty-name"])
def test_plan_refuses_an_aspect_name_that_is_not_an_identifier(
    tmp_path, capsys, group, path, flags, name
):
    concerns = json.loads((CORPUS / "undo-model.json").read_text())
    concerns["children"][0]["name"] = group
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(concerns))
    # The facts file does not exist: the name is checked before the facts load.
    facts = tmp_path / "missing.jsonl"
    code, out = run_cli("plan", str(model_file), path, str(facts), *flags)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: aspect name {name!r} is not an identifier; choose one with --name\n"
    )


def test_plan_unknown_path_is_user_error(undo_facts):
    code, _ = run_cli(
        "plan", str(CORPUS / "undo-model.json"), "missing", str(undo_facts)
    )
    assert code == 1


def test_repl_session(facts_file):
    script = "\n".join([
        "cb checkDamage Command",
        "callers view",
        "ancestors PasteCommand",
        "members DrawingView",
        "mine fanin",
        "seedexpand S1",
        "bogus",
        "quit",
    ]) + "\n"
    code, out = run_cli("repl", str(facts_file), stdin_text=script)
    assert code == 0
    assert "19 hits" in out
    assert "19 callers of AbstractCommand.view()" in out
    assert "AbstractCommand" in out and "Command" in out
    assert "method DrawingView.checkDamage()" in out
    assert "S1  28" in out
    assert "coverage 19/28" in out
    assert "unknown command 'bogus'" in out


def test_repl_eof_terminates(facts_file):
    code, out = run_cli("repl", str(facts_file), stdin_text="")
    assert code == 0


def test_outputs_are_byte_identical_across_runs(facts_file):
    first = run_cli("mine", "grouped", str(facts_file), "--json")
    second = run_cli("mine", "grouped", str(facts_file), "--json")
    assert first == second


def test_plan_root_group_is_named_after_the_root(undo_facts):
    for path in ("/", ""):
        code, out = run_cli("plan", str(CORPUS / "undo-model.json"), path, str(undo_facts))
        assert code == 0
        assert out.startswith("public aspect concerns {")
    named = run_cli("plan", str(CORPUS / "undo-model.json"), "/", str(undo_facts), "--name", "X")
    assert named[0] == 0 and named[1].startswith("public aspect X {")


@pytest.fixture(scope="module")
def corpus_facts(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    for source in CORPUS.glob("*.mini"):
        path = directory / f"{source.stem}.jsonl"
        assert run_cli("extract", str(source), "-o", str(path))[0] == 0
    return directory


#: (corpus file, sort, params in query order) for one query of each sort.
QUERY_CASES = [
    ("command", "CB", {"target": "DrawingView.checkDamage", "scope": "Command"}),
    ("decorator", "RL", {"redirector": "BorderDecorator", "receiver": "Figure"}),
    ("monitor", "EC", {"context": "ProgressMonitor"}),
    ("undo", "RSI", {"role": "Undoable", "scope": "PasteCommand"}),
    ("undo", "SC", {"scope": "PasteCommand"}),
    ("exceptions", "EP", {"exception": "IOErr"}),
]


@pytest.mark.parametrize("corpus, sort, params", QUERY_CASES, ids=[c[1] for c in QUERY_CASES])
def test_query_cli_repl_and_binding_agree(corpus_facts, corpus, sort, params):
    facts = str(corpus_facts / f"{corpus}.jsonl")
    model = load_facts_path(facts)
    result = execute_binding(model, QueryBinding.make(sort, **params))
    assert result.hits

    flags = [word for key, value in params.items() for word in (f"--{key}", value)]
    code, out = run_cli("query", sort.lower(), facts, *flags, "--json")
    assert code == 0
    assert json.loads(out)["hits"] == result.to_json(model)["hits"]

    line = " ".join([sort.lower(), *params.values()])
    code, out = run_cli("repl", facts, stdin_text=line + "\n")
    assert code == 0
    assert out.splitlines()[1:] == [f"{len(result.hits)} hits"] + [
        f"  {key}" for key in result.keys(model)
    ]


#: The flags each sort takes.
SORT_FLAGS = {"CB": ["--target", "--scope"], "RL": ["--redirector", "--receiver"],
              "EC": ["--context", "--scope"], "RSI": ["--role", "--scope"],
              "SC": ["--scope", "--role"], "EP": ["--exception", "--root"]}


@pytest.mark.parametrize("corpus, sort, params", QUERY_CASES, ids=[c[1] for c in QUERY_CASES])
def test_query_flag_of_another_sort_is_user_error(corpus_facts, capsys, corpus, sort, params):
    flags = [word for key, value in params.items() for word in (f"--{key}", value)]
    facts = str(corpus_facts / f"{corpus}.jsonl")
    every = dict.fromkeys(flag for takes in SORT_FLAGS.values() for flag in takes)
    foreign = [flag for flag in every if flag not in SORT_FLAGS[sort]]
    for flag in foreign:
        assert run_cli("query", sort.lower(), facts, *flags, flag, "x") == (1, "")
        assert capsys.readouterr().err == (
            f"error: {flag} does not apply to {sort} queries, which take "
            + ", ".join(SORT_FLAGS[sort]) + "\n"
        )


MINE_TAKES = {"fanin": ["--threshold", "--utility", "--no-accessor-filter"],
              "grouped": ["--threshold", "--min-group", "--utility", "--no-accessor-filter"],
              "redirect": ["--threshold", "--coverage"]}
MINE_FLAG_VALUES = {"--threshold": ["1"], "--min-group": ["7"], "--coverage": ["0.5"],
                    "--utility": ["*"], "--no-accessor-filter": []}
FOREIGN_MINE_FLAGS = [(technique, flag) for technique, takes in MINE_TAKES.items()
                      for flag in MINE_FLAG_VALUES if flag not in takes]


@pytest.mark.parametrize("technique, foreign", FOREIGN_MINE_FLAGS,
                         ids=[f"{t}{f}" for t, f in FOREIGN_MINE_FLAGS])
def test_mine_flag_of_another_technique_is_user_error(facts_file, capsys, technique, foreign):
    args = ("mine", technique, str(facts_file), *MINE_FLAG_VALUES[foreign])
    assert run_cli(*args[:3], foreign, *args[3:]) == (1, "")
    assert capsys.readouterr().err == (
        f"error: {foreign} does not apply to {technique} mining, which takes "
        + ", ".join(MINE_TAKES[technique]) + "\n"
    )


@pytest.mark.parametrize("technique", list(MINE_TAKES))
def test_mine_accepts_every_flag_its_technique_takes(facts_file, technique):
    flags = [word for flag in MINE_TAKES[technique] for word in (flag, *MINE_FLAG_VALUES[flag])]
    code, out = run_cli("mine", technique, str(facts_file), *flags)
    assert code == 0 and out


@pytest.mark.parametrize("argv, message", [
    (["query", "ep", "MISSING", "--exception", "X", "--role", "Bogus"],
     "--role does not apply to EP queries, which take --exception, --root"),
    (["query", "rl", "MISSING", "--redirector", "X"], "--receiver is required for this sort"),
    (["plan", str(CORPUS / "undo-model.json"), "PasteCommandUndo/undo activity class",
      "MISSING", "--advice", "around"],
     "--advice applies only to CB instances, and 'PasteCommandUndo/undo activity class' "
     "plans none"),
    (["mine", "redirect", "MISSING", "--threshold", "1", "--min-group", "7"],
     "--min-group does not apply to redirect mining, which takes --threshold, --coverage"),
    (["mine", "fanin", "MISSING", "--threshold", "0"], "mining thresholds must be >= 1"),
], ids=["query-foreign", "query-required", "plan-advice", "mine-foreign", "mine-threshold"])
def test_flag_error_is_reported_before_the_facts_load(tmp_path, capsys, argv, message):
    missing = tmp_path / "missing.jsonl"
    argv = [str(missing) if word == "MISSING" else word for word in argv]
    assert run_cli(*argv) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not missing.exists()


def test_a_missing_facts_file_is_a_user_error_and_leaves_no_sidecar(tmp_path, capsys):
    missing = tmp_path / "missing.jsonl"
    assert run_cli("query", "sc", str(missing), "--scope", "X") == (1, "")
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(missing)!r}\n")
    assert not any(tmp_path.iterdir())


def test_query_scope_defaults_to_everything(facts_file):
    args = ("query", "cb", str(facts_file), "--target", "DrawingView.checkDamage", "--json")
    code, out = run_cli(*args)
    assert code == 0
    assert run_cli(*args, "--scope", "*") == (0, out)


def test_query_prefix_scope_selects_the_types_under_a_dotted_name(tmp_path):
    source = tmp_path / "pkg.mini"
    source.write_text(
        "class A { public void act() { } }\n"
        "class Pkg { public void f(A a) { a.act(); }\n"
        "  class U1 { public void f(A a) { a.act(); } }\n"
        "  class U2 { public void f(A a) { a.act(); }\n"
        "    class V { public void g(A a) { a.act(); } } }\n"
        "}\n"
        "class PkgX { public void f(A a) { a.act(); } }\n", encoding="utf-8")
    facts = tmp_path / "facts.jsonl"
    assert run_cli("extract", str(source), "-o", str(facts)) == (0, "")
    code, out = run_cli("query", "cb", str(facts), "--target", "A.act", "--scope", "Pkg.",
                        "--json")
    assert code == 0
    result = json.loads(out)
    assert result["binding"] == {"sort": "CB", "params": {"target": "A.act()", "scope": "Pkg."}}
    assert [hit["caller"] for hit in result["hits"]] == [
        "Pkg.U1.f(A)", "Pkg.U2.f(A)", "Pkg.U2.V.g(A)"]


@pytest.mark.parametrize("line, usage", [
    ("cb", "cb <target> [scope]"),
    ("rl BorderDecorator", "rl <redirector> <receiver>"),
    ("ec a b c", "ec <context> [scope]"),
    ("rsi", "rsi <role> [scope]"),
    ("sc", "sc <scope> [role]"),
    ("ep a b c", "ep <exception> [root]"),
])
def test_repl_query_usage_errors(facts_file, line, usage):
    code, out = run_cli("repl", str(facts_file), stdin_text=f"{line}\nhelp\n")
    assert code == 0
    assert f"\nerror: usage: {usage}\n" in out
    assert f"\n  {usage} " in out  # the help text lists the same usage


@pytest.mark.parametrize("seed_id", [
    "S\u00b2",  # passes ``str.isdigit``, refused by ``int()``
    "S" + "1" * 5000,  # longer than ``int()`` converts
    "S\u0661",  # an Arabic-Indic one, which ``int()`` reads as 1
], ids=["superscript", "5000-digits", "arabic-indic"])
def test_repl_seedexpand_takes_ascii_seed_numbers_only(facts_file, seed_id):
    script = f"mine fanin\nseedexpand {seed_id}\nseedexpand S1\n"
    code, out = run_cli("repl", str(facts_file), stdin_text=script)
    assert code == 0
    assert "\nerror: usage: seedexpand S<n>\n" in out
    assert out.count("error:") == 1 and "coverage 19/28" in out


# -- malformed and hostile fact files ----------------------------------------------

_TYPE = {"k": "type", "id": "T1", "name": "A", "kind": "class", "abstract": False,
         "anon": False, "encl": None, "super": []}
_METHOD = {"k": "method", "id": "M1", "owner": "T1", "name": "f", "params": ["int"],
           "ret": "void", "vis": "public", "static": False, "abstract": False,
           "ctor": False, "throws": [], "stmts": 1}
_CALL = {"k": "call", "id": "C1", "caller": "M1", "target": "M1",
         "recv": {"kind": "param", "index": 0}, "ord": 1, "pass": []}


def _fails_naming_line(tmp_path, capsys, lines: list[bytes], message: str):
    path = tmp_path / "facts.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    code, out = run_cli("mine", "fanin", str(path))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def _json(*records) -> list[bytes]:
    return [json.dumps(rec).encode() for rec in records]


@pytest.mark.parametrize("records, message", [
    (_json(dict(_TYPE, src=None)), "line 1: bad value for 'src': None"),
    (_json(dict(_TYPE, ext="no")), "line 1: bad value for 'ext': 'no'"),
    (_json(_TYPE, _METHOD, dict(_CALL, recv={"kind": "param", "index": False})),
     "line 3: param receiver without a parameter index"),
], ids=["src-null", "ext-string", "index-bool"])
def test_mistyped_key_is_an_error(tmp_path, capsys, records, message):
    _fails_naming_line(tmp_path, capsys, records, message)


@pytest.mark.parametrize("line2, message", [
    (b"[" * 100_000 + b"]" * 100_000, "line 2: input nests too deeply"),
    (b'{"k": "type", "name": "\xff"}', "line 2: not valid UTF-8 (invalid start byte)"),
    (b'{"k": "method", "stmts": ' + b"1" * 5000 + b"}",
     "line 2: invalid JSON: integer has too many digits"),
], ids=["deep-nesting", "invalid-utf8", "huge-int"])
def test_hostile_facts_line_is_an_error(tmp_path, capsys, line2, message):
    _fails_naming_line(tmp_path, capsys, _json(_TYPE) + [line2], message)


def _rsi_facts(path, implementors: int):
    types = [dict(_TYPE, id="T0", name="pkg.Role", kind="interface")]
    types += [dict(_TYPE, id=f"T{i}", name=f"some.deep.package.name.Implementor{i}",
                   super=["T0"]) for i in range(1, implementors + 1)]
    path.write_bytes(b"".join(line + b"\n" for line in _json(*types)))
    return [sys.executable, "-m", "sortweaver", "query", "rsi", str(path), "--role", "pkg.Role"]


#: The child's stdout is block-buffered, as by default, so that output can
#: still be buffered when the pipe closes.
_CHILD_ENV = {**{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
              "PYTHONPATH": str(REPO / "src")}


def test_a_reader_that_closes_after_one_line_ends_the_command_quietly(tmp_path):
    """A closed pipe is no user error: the command prints nothing more, on
    stderr either, and exits 1.  The output is larger than a pipe buffer, so
    a write meets the closed pipe."""
    argv = _rsi_facts(tmp_path / "facts.jsonl", 20_000)
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=_CHILD_ENV)
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert (first, err, child.returncode) == (b"20000 hits\n", b"", 1)


def test_a_reader_gone_before_the_output_is_flushed_ends_the_command_quietly(tmp_path):
    """Output small enough to stay buffered meets the closed pipe when it is
    flushed; the flush at interpreter exit then finds nothing to report."""
    argv = _rsi_facts(tmp_path / "facts.jsonl", 3)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(argv, stdout=write_end, stderr=subprocess.PIPE, env=_CHILD_ENV,
                               timeout=120)
    finally:
        os.close(write_end)
    assert (child.stderr, child.returncode) == (b"", 1)


def test_anonymous_type_without_enclosing_type_is_an_error(tmp_path, capsys):
    _fails_naming_line(tmp_path, capsys, _json(dict(_TYPE, anon=True, encl=None)),
                       "line 1: type T1: anonymous type without enclosing type")


def test_list_as_receiver_kind_is_an_error(tmp_path, capsys):
    records = _json(_TYPE, _METHOD, dict(_CALL, recv={"kind": ["x"]}))
    _fails_naming_line(tmp_path, capsys, records, "line 3: bad receiver kind ['x']")


# -- hostile method references --------------------------------------------------------

_BAD_ARITY = pytest.mark.parametrize("suffix", ["²", "١", "1" * 5000, "+1", " 1"],
                                     ids=["superscript", "arabic-indic", "5000-digits",
                                          "plus-sign", "space"])


def _bad_arity_error(ref: str) -> str:
    return f"bad arity suffix in method reference: {ref}"


@_BAD_ARITY
def test_bad_arity_suffix_in_a_query_is_an_error(facts_file, capsys, suffix):
    ref = f"AbstractCommand.execute/{suffix}"
    assert run_cli("query", "cb", str(facts_file), "--target", ref) == (1, "")
    assert capsys.readouterr().err == f"error: {_bad_arity_error(ref)}\n"


@_BAD_ARITY
def test_bad_arity_suffix_in_a_concern_model_is_an_error(tmp_path, facts_file, capsys, suffix):
    ref = f"AbstractCommand.execute/{suffix}"
    model_file = str(tmp_path / "concerns.json")
    run_cli("model", "init", model_file)
    run_cli("model", "add-group", model_file, "g")
    for name, target in (("bad", ref), ("good", "DrawingView.checkDamage/0")):
        code, _ = run_cli("model", "add-instance", model_file, f"g/{name}", "--sort", "CB",
                          "--param", f"target={target}", "--param", "scope=Command")
        assert code == 0
    capsys.readouterr()
    # ``model run`` reports a binding that fails as that instance's error,
    # still runs the others, and then exits 1.
    code, out = run_cli("model", "run", model_file, str(facts_file))
    assert (code, capsys.readouterr().err) == (1, "error: 1 of 2 instances failed: g/bad\n")
    assert out == f"g/bad: error: {_bad_arity_error(ref)}\ng/good: 19 hits (+19 -0 =0)\n"
    assert run_cli("plan", model_file, "g/bad", str(facts_file)) == (1, "")
    assert capsys.readouterr().err == f"error: {_bad_arity_error(ref)}\n"


@pytest.mark.parametrize("odd", ["\u00b2", "7" * 5000], ids=["superscript", "5000-digits"])
def test_any_id_sorts(tmp_path, capsys, odd):
    records = [_TYPE, dict(_TYPE, id=odd, name="B"), dict(_TYPE, id=f"{odd}1", name="C"),
               _METHOD, dict(_METHOD, id=f"M{odd}", owner=odd)]
    path = tmp_path / "facts.jsonl"
    path.write_bytes(b"".join(line + b"\n" for line in _json(*records)))
    assert run_cli("query", "sc", str(path))[0] == 0
    assert run_cli("mine", "fanin", str(path), "--json") == (0, "[]\n")
    assert capsys.readouterr().err == ""


# -- the argument parser ---------------------------------------------------------------


def test_the_parser_is_built_once_per_process(capsys):
    assert main(["--version"]) == 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert main(["--version"]) == 0
        assert gc.collect() < 100
    finally:
        if enabled:
            gc.enable()
    assert build_parser() is build_parser()


@pytest.mark.parametrize("argv", [[], ["--help"], ["query", "--help"], ["model", "run", "-h"],
                                  ["frobnicate"]], ids=["usage", "help", "query-help",
                                                        "model-run-help", "bad-command"])
def test_help_and_usage_match_a_new_parser(capsys, argv):
    outputs = []
    for _ in range(2):
        main(argv)
        outputs.append(capsys.readouterr())
    fresh = build_parser.__wrapped__()
    with contextlib.suppress(SystemExit):
        fresh.parse_args(argv) if argv else fresh.print_usage()
    new = capsys.readouterr()
    assert outputs[0] == outputs[1]
    assert outputs[0].out + outputs[0].err == new.out + new.err


# -- hostile MiniLang sources ---------------------------------------------------------


def _chain_class(links: int) -> str:
    """A class whose one statement is a call chain ``y().y()...`` of that length."""
    return "class Z { Z y() { return this; } void m() { y()" + ".y()" * (links - 1) + "; } }"


@pytest.mark.parametrize("source, code, message", [
    ("class A { void m() { x = ²; } }", 1,
     "{path}: error: 1:26: unexpected character '²'\nerror: {path}: parse failed\n"),
    ("class A { void m() { x = " + "9" * 5000 + "; } }", 0, ""),
    (_chain_class(3000), 0, ""),
], ids=["superscript-digit", "5000-digit-int", "3000-link-chain"])
def test_hostile_minilang_source(tmp_path, capsys, source, code, message):
    path = tmp_path / "hostile.mini"
    path.write_text(source, encoding="utf-8")
    assert run_cli("extract", str(path))[0] == code
    assert capsys.readouterr().err == message.format(path=path)


# One level of each shape; ``{}`` marks where the next level goes.  A
# statement shape nests down to the statement ``w(x);``, an expression
# shape down to ``x``, and then ends as an expression statement.
_NESTING_SHAPES = {
    "if": ("if (x == null) { {} }", "w(x);"),
    "try": ("try { {} } catch (E e) { }", "w(x);"),
    "anonymous-body": ("new Z() { void f() { {} } };", "w(x);"),
    "mix": ("if (x == null) { try { w(new Z() { void f() { {} } }); } catch (E e) { } }", "w(x);"),
    "call-argument": ("w({})", "x"),
    "new-argument": ("new Z({})", "x"),
    "parenthesised-equals": ("(x == {})", "x"),
}


def _nested_class(shape: str, depth: int) -> str:
    template, leaf = _NESTING_SHAPES[shape]
    before, after = template.split("{}")
    body = before * depth + leaf + after * depth + (";" if leaf == "x" else "")
    return "class Z { Z(Z a) { } Z w(Z a) { return a; } void m(Z x) { " + body + " } }"


def test_extract_depth_sweep_exits_zero_or_names_the_nesting(tmp_path, capsys):
    # The parser spends more stack per level than the extractor on every
    # shape, so it refuses first and the extractor never overflows.  After
    # the first refusal, bisect to the deepest source the parser accepts:
    # that is where the extractor's own stack runs deepest.
    path = tmp_path / "deep.mini"
    refused = f"{path}: error: 1:1: input nests too deeply\nerror: {path}: parse failed\n"

    def extracts(shape: str, depth: int) -> bool:
        text = "class C { " * depth + "}" * depth if shape == "nested-classes" \
            else _nested_class(shape, depth)
        path.write_text(text, encoding="utf-8")
        code, _ = run_cli("extract", str(path))
        err = capsys.readouterr().err
        assert (code, err) in ((0, ""), (1, refused)), (shape, depth, code, err[-300:])
        return code == 0

    for shape in [*_NESTING_SHAPES, "nested-classes"]:
        accepted, refused_at = 0, None
        for depth in (10, 100, 300, 1000, 3000):
            if not extracts(shape, depth):
                refused_at = depth
                break
            accepted = depth
        assert accepted >= 10, shape
        while refused_at is not None and refused_at - accepted > 1:
            middle = (accepted + refused_at) // 2
            if extracts(shape, middle):
                accepted = middle
            else:
                refused_at = middle
    for links in (1000, 3000):
        path.write_text(_chain_class(links), encoding="utf-8")
        code, out = run_cli("extract", str(path))
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.count('"k": "call"') == links


_MUTATION_ALPHABET = [s.encode() for s in (
    "²", "½", "Ⅻ", "①", "\x00", '"', "/*", "*/", "//", "(", ")", "{", "}", ";", ".", ",",
    "=", "==", "x", "_", "1", "9" * 5000, " ", "\n", "\r", "class", "new", "null", "y()",
)] + [b"\xff", b"\xc3", b"\xed\xa0\x80"]  # the last three are not valid UTF-8


def _mutate(rng: random.Random, text: bytes) -> bytes:
    at = rng.randrange(len(text) + 1)
    op = rng.randrange(5)
    if op == 0:
        return text[:at]
    if op in (1, 2):  # insert, or replace one byte
        return text[:at] + rng.choice(_MUTATION_ALPHABET) + text[at + op - 1:]
    if op == 3:
        return text[:at] + rng.choice((b"(", b"{")) * rng.choice((50, 1500)) + text[at:]
    return text + _chain_class(rng.choice((2, 300, 1500))).encode()


def test_extract_mutation_sweep_exits_zero_or_one_naming_the_file(tmp_path, capsys):
    rng = random.Random(3)
    sources = [(CORPUS / name).read_bytes() for name in CORPUS_FILES]
    path = tmp_path / "mutant.mini"
    codes = []
    for case in range(160):
        text = rng.choice(sources)
        for _ in range(rng.randint(1, 3)):
            text = _mutate(rng, text)
        path.write_bytes(text)
        code, out = run_cli("extract", str(path))
        err = capsys.readouterr().err
        assert code in (0, 1), (case, err[-300:])
        assert code == 0 or f"error: {path}: " in err, (case, err[-300:])
        if code == 0:  # what extract writes, the other commands load
            load_records(map(json.loads, out.splitlines()))
        codes.append(code)
    assert 0 in codes and 1 in codes
