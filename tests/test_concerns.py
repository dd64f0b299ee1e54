import io
import json

import pytest

from conftest import CORPUS, corpus_model, model_from_source

from sortweaver import concerns as concerns_module
from sortweaver.concerns import (
    ConcernModelError,
    Group,
    add_group,
    add_instance,
    drift_between,
    dumps_model,
    iter_instances,
    load_model,
    node_at,
    remove,
    rename,
    run_all,
    save_model,
    Snapshot,
)
from sortweaver.queries import QueryBinding, SortKind, execute_binding


def notify_binding():
    return QueryBinding.make(
        SortKind.CB, target="DrawingView.checkDamage", scope="Command"
    )


def test_add_group_then_instance_builds_depth_two_tree():
    root = Group("concerns")
    add_group(root, "Command support")
    add_instance(root, "Command support/notify views", notify_binding())
    paths = [path for path, _ in iter_instances(root)]
    assert paths == ["Command support/notify views"]


def test_duplicate_sibling_name_rejected():
    root = Group("concerns")
    add_group(root, "Command support")
    with pytest.raises(ConcernModelError, match="duplicate"):
        add_group(root, "Command support")
    add_instance(root, "Command support/notify views", notify_binding())
    with pytest.raises(ConcernModelError, match="duplicate"):
        add_instance(root, "Command support/notify views", notify_binding())


def test_remove_missing_path_names_the_path():
    root = Group("concerns")
    with pytest.raises(ConcernModelError, match="nothing/here"):
        remove(root, "nothing/here")


def test_rename_to_existing_sibling_rejected():
    root = Group("concerns")
    add_group(root, "a")
    add_group(root, "b")
    with pytest.raises(ConcernModelError, match="duplicate"):
        rename(root, "b", "a")
    rename(root, "b", "c")
    assert root.child("c") is not None


def test_save_load_round_trip_is_byte_identical(tmp_path):
    root = Group("concerns")
    add_group(root, "Command support")
    add_instance(root, "Command support/notify views", notify_binding(), note="demo")
    path = tmp_path / "model.json"
    save_model(root, path)
    first = path.read_text()
    save_model(load_model(path), path)
    assert path.read_text() == first


def test_a_save_cut_short_leaves_the_previous_model_and_no_temporary_file(tmp_path, monkeypatch):
    """A save whose write fails after half the text is written raises, and
    leaves the model file's old bytes and nothing else in its directory."""
    path = tmp_path / "model.json"
    save_model(Group("concerns"), path)
    before = path.read_bytes()
    root = Group("concerns")
    add_instance(root, "notify views", notify_binding(), note="demo")

    class HalfWriter:
        """``open`` whose file takes half of what is written, then fails."""

        def __init__(self, file, mode, **kwargs):
            self.real = open(file, mode, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.real.close()

        def write(self, text):
            self.real.write(text[: len(text) // 2])
            self.real.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(concerns_module, "open", HalfWriter, raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_model(root, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    save_model(root, path)
    assert load_model(path).to_json() == root.to_json()
    assert list(tmp_path.iterdir()) == [path]


def test_a_save_through_a_symbolic_link_writes_its_target(tmp_path):
    target = tmp_path / "model.json"
    link = tmp_path / "link.json"
    save_model(Group("old"), target)
    link.symlink_to(target)
    save_model(Group("concerns"), link)
    assert link.is_symlink()
    assert load_model(target).name == "concerns"


def test_bundled_demo_models_are_canonical():
    for name in ("command-model.json", "undo-model.json"):
        path = CORPUS / name
        root = load_model(path)
        assert dumps_model(root) == path.read_text()


def test_first_run_reports_all_hits_added(command_model):
    root = load_model(CORPUS / "command-model.json")
    runs = run_all(root, command_model)
    by_path = {r.path: r for r in runs}
    notify = by_path["Command support/notify views"]
    assert notify.error is None
    assert len(notify.drift.added) == 19
    assert notify.drift.removed == ()
    assert notify.drift.unchanged == 0


def test_rerun_after_commit_shows_zero_drift(command_model):
    root = load_model(CORPUS / "command-model.json")
    run_all(root, command_model, commit=True)
    runs = run_all(root, command_model)
    assert all(r.drift.added == r.drift.removed == () for r in runs)


def test_new_command_subclass_adds_exactly_one_hit(command_model):
    base = (CORPUS / "command.mini").read_text()
    grown = base + """
class MirrorCommand extends AbstractCommand {
    public void execute() {
        super.execute();
        DrawingView v = view();
        v.checkDamage();
    }
}
"""
    grown_model = model_from_source(grown, "command.mini")
    root = load_model(CORPUS / "command-model.json")
    run_all(root, command_model, commit=True)
    runs = run_all(root, grown_model)
    notify = next(r for r in runs if r.path == "Command support/notify views")
    assert len(notify.drift.added) == 1
    assert "MirrorCommand.execute()" in notify.drift.added[0]
    assert notify.drift.removed == ()
    assert notify.drift.unchanged == 19


def test_run_all_without_commit_never_mutates_file(tmp_path, command_model):
    source = (CORPUS / "command-model.json").read_text()
    path = tmp_path / "model.json"
    path.write_text(source)
    root = load_model(path)
    run_all(root, command_model)
    save_model(root, path)
    assert path.read_text() == source


def test_unresolvable_binding_is_a_per_instance_error(command_model):
    root = Group("concerns")
    add_instance(root, "bad", QueryBinding.make(SortKind.CB, target="No.where", scope="*"))
    add_instance(root, "good", notify_binding())
    runs = run_all(root, command_model)
    by_path = {r.path: r for r in runs}
    assert by_path["bad"].error is not None
    assert by_path["good"].error is None
    assert len(by_path["good"].result.hits) == 19


def test_drift_is_antisymmetric(command_model):
    result = execute_binding(command_model, notify_binding())
    keys = result.keys(command_model)
    snapshot = Snapshot.of(command_model, result)
    forward = drift_between(snapshot, keys[:10])
    backward = drift_between(
        Snapshot(digest="", hits=10, items=tuple(sorted(keys[:10]))), keys
    )
    assert set(forward.removed) == set(backward.added)
    assert set(forward.added) == set(backward.removed)


def test_snapshot_keys_survive_re_extraction(command_model):
    # Re-extracting identical sources gives identical semantic keys even if
    # the opaque ids were to shift.
    again = corpus_model("command")
    first = execute_binding(command_model, notify_binding())
    second = execute_binding(again, notify_binding())
    assert first.keys(command_model) == second.keys(again)


def test_malformed_model_file_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "sort": "CB"}))
    with pytest.raises(ConcernModelError):
        load_model(bad)


def test_paths_through_an_instance_or_to_no_node_are_refused():
    root = Group("concerns")
    add_instance(root, "notify", notify_binding())
    with pytest.raises(ConcernModelError, match="^no such concern path: 'notify/x'$"):
        node_at(root, "notify/x")
    with pytest.raises(ConcernModelError, match="^no such concern path: 'other'$"):
        rename(root, "other", "x")
    assert [node.name for node in root.children] == ["notify"]
    # Every edit words a bad path alike, whichever segment it fails at.
    add_group(root, "g")
    add_instance(root, "g/notify", notify_binding())
    for edit, needs_node in (
        (add_group, False),
        (lambda root, path: add_instance(root, path, notify_binding()), False),
        (remove, True),
        (lambda root, path: rename(root, path, "y"), True),
    ):
        for path in ["g/notify/x", "g/notify/x/y", "h/x", "/h//x/"] + ["g/x", "h"] * needs_node:
            with pytest.raises(ConcernModelError) as refused:
                edit(root, path)
            assert str(refused.value) == f"no such concern path: {path!r}"
        for path in ("", "/", "//"):
            with pytest.raises(ConcernModelError, match="^empty concern path$"):
                edit(root, path)
    assert node_at(root, "") is root and node_at(root, "/") is root
    assert [node.name for node in root.children] == ["notify", "g"]
    assert [node.name for node in node_at(root, "g").children] == ["notify"]


MALFORMED_INSTANCES = {
    "unknown param key": {"sort": "CB", "params": {"tgt": "DrawingView.checkDamage"}},
    "missing required key": {"sort": "RL", "params": {"redirector": "BorderDecorator"}},
    "non-string value": {"sort": "CB", "params": {"target": 3}},
    "unknown sort": {"sort": "XX", "params": {}},
    "params not an object": {"sort": "CB", "params": ["target"]},
    "snapshot without digest": {"sort": "SC", "params": {},
                                "snapshot": {"hits": 0, "items": []}},
    "snapshot without hits": {"sort": "SC", "params": {},
                              "snapshot": {"digest": "0", "items": []}},
    "advice outside the advice kinds": {
        "sort": "CB", "params": {"target": "DrawingView.checkDamage", "advice": "sideways"}},
    "note not a string": {"sort": "SC", "params": {}, "note": 5},
}


@pytest.mark.parametrize("instance", MALFORMED_INSTANCES.values(), ids=list(MALFORMED_INSTANCES))
def test_malformed_instance_is_rejected_with_its_path(tmp_path, capsys, instance):
    from sortweaver.cli import main

    node = {"name": "notify", "note": "", "snapshot": None, **instance}
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"name": "concerns", "children": [
        {"name": "Command support", "children": [node]}]}))
    with pytest.raises(ConcernModelError, match="Command support/notify"):
        load_model(path)
    facts = tmp_path / "facts.jsonl"
    facts.write_text("")
    assert main(["model", "run", str(path), str(facts)]) == 1
    assert "Command support/notify" in capsys.readouterr().err


def test_add_instance_rejects_unknown_param_key(tmp_path, capsys):
    from sortweaver.cli import main

    path = tmp_path / "model.json"
    assert main(["model", "init", str(path)]) == 0
    before = path.read_text()
    code = main(["model", "add-instance", str(path), "notify", "--sort", "CB",
                 "--param", "tgt=DrawingView.checkDamage"])
    assert code == 1
    assert "'tgt'" in capsys.readouterr().err
    assert path.read_text() == before


# -- hostile model files, through the CLI ------------------------------------------

_LEAF = {"name": "leaf", "sort": "SC", "params": {}, "snapshot": None, "note": ""}


def _nested_model(depth: int) -> str:
    """A model whose one instance sits under ``depth`` groups."""
    return '{"name": "g", "children": [' * depth + json.dumps(_LEAF) + "]}" * depth


@pytest.mark.parametrize("content, may_pass, message", [
    # How deep a model can be decoded, walked and written depends on the
    # Python version: 600 groups can on 3.12 and later, and not on 3.11.
    (_nested_model(600).encode(), True, "{path}: model nests too deeply"),
    (_nested_model(5000).encode(), False, "{path}: model nests too deeply"),
    (b'{"name": "\xff", "children": []}', False, "{path}: not valid UTF-8 (invalid start byte)"),
    (b'{"name": "g", "children": []', False,
     "{path}: invalid JSON: Expecting ',' delimiter: line 1 column 29 (char 28)"),
    (b'{"name": "g", "children": [{"name": "h", "children": [7]}]}', False,
     "bad concern-model node in 'h': 7"),
    (b'{"name": "g", "children": {"name": "h"}}', False, "children of '/' must be a list"),
], ids=["600-groups", "5000-groups", "invalid-utf8", "not-json", "child-not-an-object",
        "children-not-a-list"])
def test_hostile_model_file_exits_one_naming_the_file(tmp_path, capsys, content, may_pass,
                                                     message):
    from sortweaver.cli import main

    path, facts = tmp_path / "model.json", tmp_path / "facts.jsonl"
    facts.write_text("")
    for argv in (["model", "run", str(path), str(facts)], ["model", "add-group", str(path), "x"]):
        path.write_bytes(content)
        code = main(argv, stdout=io.StringIO())
        err = capsys.readouterr().err
        if code == 0 and may_pass:
            continue
        assert (code, err) == (1, f"error: {message.format(path=path)}\n"), argv
        assert path.read_bytes() == content
