"""Persistent, hierarchical concern models.

A concern model is a tree of named groups whose leaves are sort instances:
re-executable query bindings plus an optional snapshot of the last committed
result.  The file format is canonical JSON (key-sorted, two-space indent) so
models diff cleanly under version control.

Snapshots and drift reporting are a tool extension on top of the query
model: each committed run stores the result digest and the per-hit keys, so
a later run can report exactly which hits appeared or disappeared and flag
stale documentation.  Hit keys use qualified signatures, not extractor ids,
so they survive re-extraction of changed sources.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ._util import digest as _digest
from ._util import pretty_json
from .model import FactError, SourceModel
from .queries import QueryBinding, QueryResult, SortKind, check_params, execute_binding

#: Version of the concern-model file schema.
MODEL_SCHEMA_VERSION = "1"


class ConcernModelError(ValueError):
    pass


@dataclass(frozen=True)
class Snapshot:
    digest: str
    hits: int
    items: tuple[str, ...]

    @staticmethod
    def of(model: SourceModel, result: QueryResult) -> "Snapshot":
        keys = sorted(result.keys(model))
        return Snapshot(digest=_digest(keys), hits=len(keys), items=tuple(keys))

    def to_json(self) -> dict:
        return {"digest": self.digest, "hits": self.hits, "items": list(self.items)}


@dataclass
class Instance:
    name: str
    binding: QueryBinding
    snapshot: Snapshot | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "sort": self.binding.sort.value,
            "params": dict(self.binding.params),
            "snapshot": self.snapshot.to_json() if self.snapshot else None,
            "note": self.note,
        }


@dataclass
class Group:
    name: str
    children: list = field(default_factory=list)

    def to_json(self) -> dict:
        return {"name": self.name, "children": [c.to_json() for c in self.children]}

    def child(self, name: str):
        for child in self.children:
            if child.name == name:
                return child
        return None


def _shown(path: str) -> str:
    return repr(path or "/")


def _binding(path: str, sort, params) -> QueryBinding:
    """A binding checked against the sort's parameter table."""
    sorts = [s.value for s in SortKind]
    try:
        if sort not in sorts:
            raise ValueError(f"unknown sort {sort!r}; expected one of {', '.join(sorts)}")
        if not isinstance(params, dict):
            raise ValueError(f"params must be an object, not {params!r}")
        sort = SortKind(sort)
        check_params(sort, params)
    except ValueError as exc:
        raise ConcernModelError(f"bad binding at {_shown(path)}: {exc}") from None
    return QueryBinding.make(sort, **params)


def _check_name(name: str, taken: bool, parent: str):
    """The rule for the name of every node but the root, so that a concern
    path reaches it: non-empty, no ``/``, and ``taken`` by no sibling."""
    reason = ("is empty" if not name else "contains '/'" if "/" in name
              else "duplicates a sibling's name" if taken else None)
    if reason is not None:
        raise ConcernModelError(f"concern name {name!r} under {_shown(parent)} {reason}")


def _node_from_json(obj: dict, parent: str | None = None, siblings: set[str] | None = None):
    """Build a node; ``parent`` is the concern path of its group (None for
    the root), so that errors name the node's own path, and ``siblings``
    holds the names its group's earlier children took."""
    if not isinstance(obj, dict) or not isinstance(obj.get("name"), str):
        raise ConcernModelError(f"bad concern-model node in {_shown(parent or '')}: {obj!r}")
    path = ""
    if parent is not None:
        _check_name(obj["name"], obj["name"] in siblings, parent)
        siblings.add(obj["name"])
        path = _join(parent, obj["name"])
    if "children" in obj:
        if not isinstance(obj["children"], list):
            raise ConcernModelError(f"children of {_shown(path)} must be a list")
        group = Group(obj["name"])
        names: set[str] = set()
        group.children = [_node_from_json(c, path, names) for c in obj["children"]]
        return group
    if "sort" not in obj or "params" not in obj:
        raise ConcernModelError(f"instance node missing sort/params: {_shown(path)}")
    snapshot = None
    snap = obj.get("snapshot")
    if snap is not None:
        items = snap.get("items", []) if isinstance(snap, dict) else None
        if not (isinstance(snap, dict) and isinstance(snap.get("digest"), str)
                and type(snap.get("hits")) is int
                and isinstance(items, list) and all(isinstance(i, str) for i in items)):
            raise ConcernModelError(
                f"snapshot of {_shown(path)} needs a digest, a hit count and a list of hit keys"
            )
        snapshot = Snapshot(
            digest=snap["digest"], hits=snap["hits"], items=tuple(items)
        )
    note = obj.get("note", "")
    if not isinstance(note, str):
        raise ConcernModelError(f"note of {_shown(path)} must be a string, not {note!r}")
    binding = _binding(path, obj["sort"], obj["params"])
    return Instance(obj["name"], binding, snapshot, note)


def load_model(path: str | Path) -> Group:
    try:
        root = _node_from_json(json.loads(Path(path).read_text(encoding="utf-8")))
    except UnicodeDecodeError as exc:
        raise ConcernModelError(f"{path}: not valid UTF-8 ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise ConcernModelError(f"{path}: invalid JSON: {exc}") from None
    except RecursionError:
        raise ConcernModelError(f"{path}: model nests too deeply") from None
    if not isinstance(root, Group):
        raise ConcernModelError(f"{path}: concern-model root must be a group")
    return root


def save_model(root: Group, path: str | Path):
    """Write the model through a temporary file next to the file that
    ``path`` names (a symbolic link's target) and ``os.replace``, so a write
    cut short leaves the previous model as it was and no temporary file."""
    try:
        text = dumps_model(root)
    except RecursionError:
        raise ConcernModelError(f"{path}: model nests too deeply") from None
    target = Path(os.path.realpath(path))
    temp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8") as out:
            out.write(text)
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def dumps_model(root: Group) -> str:
    return pretty_json(root.to_json()) + "\n"


# -- tree edits -----------------------------------------------------------------


def _split(path: str) -> list[str]:
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise ConcernModelError("empty concern path")
    return parts


def _walk(node, parts: list[str], path: str):
    """The node that the segments ``parts`` name below ``node``; ``path``,
    the whole concern path, words the error."""
    for part in parts:
        node = node.child(part) if isinstance(node, Group) else None
        if node is None:
            raise ConcernModelError(f"no such concern path: {path!r}")
    return node


def node_at(root: Group, path: str):
    """The node at a slash-separated concern path; "" or "/" is the root."""
    return _walk(root, [p for p in path.split("/") if p], path)


def _parent_of(root: Group, path: str) -> tuple[Group, str, str]:
    """The group that holds the node at ``path``, that group's concern path
    and the node's name."""
    parts = _split(path)
    parent = _walk(root, parts[:-1], path)
    if not isinstance(parent, Group):
        raise ConcernModelError(f"no such concern path: {path!r}")
    return parent, "/".join(parts[:-1]), parts[-1]


def add_group(root: Group, path: str) -> Group:
    parent, parent_path, name = _parent_of(root, path)
    _check_name(name, parent.child(name) is not None, parent_path)
    group = Group(name)
    parent.children.append(group)
    return group


def add_instance(root: Group, path: str, binding: QueryBinding, note: str = "") -> Instance:
    parent, parent_path, name = _parent_of(root, path)
    _check_name(name, parent.child(name) is not None, parent_path)
    binding = _binding(path, binding.sort, dict(binding.params))
    instance = Instance(name, binding, None, note)
    parent.children.append(instance)
    return instance


def remove(root: Group, path: str):
    parent, _, name = _parent_of(root, path)
    parent.children.remove(_walk(parent, [name], path))


def rename(root: Group, path: str, new_name: str):
    """Rename the node at ``path``; its own name is not a sibling's."""
    parent, parent_path, name = _parent_of(root, path)
    child = _walk(parent, [name], path)
    _check_name(new_name, new_name != name and parent.child(new_name) is not None, parent_path)
    child.name = new_name


def _join(prefix: str, name: str) -> str:
    return f"{prefix}/{name}" if prefix else name


def iter_instances(root: Group, prefix: str = ""):
    for child in root.children:
        path = _join(prefix, child.name)
        if isinstance(child, Group):
            yield from iter_instances(child, path)
        else:
            yield path, child


# -- execution and drift -----------------------------------------------------------


@dataclass(frozen=True)
class DriftReport:
    added: tuple[str, ...]
    removed: tuple[str, ...]
    unchanged: int

    def to_json(self) -> dict:
        return {
            "added": list(self.added),
            "removed": list(self.removed),
            "unchanged": self.unchanged,
        }


def drift_between(snapshot: Snapshot | None, keys: tuple[str, ...]) -> DriftReport:
    now = set(keys)
    before = set(snapshot.items) if snapshot else set()
    return DriftReport(
        added=tuple(sorted(now - before)),
        removed=tuple(sorted(before - now)),
        unchanged=len(now & before),
    )


@dataclass
class InstanceRun:
    path: str
    result: QueryResult | None = None
    drift: DriftReport | None = None
    error: str | None = None

    def to_json(self, model: SourceModel) -> dict:
        out: dict = {"path": self.path}
        if self.error is not None:
            out["error"] = self.error
        else:
            out["result"] = self.result.to_json(model)
            out["drift"] = self.drift.to_json()
        return out


def run_all(root: Group, model: SourceModel, *, commit: bool = False) -> list[InstanceRun]:
    """Re-execute every instance query and report drift against snapshots.

    Never touches the tree unless ``commit`` is set, in which case each
    successful instance gets a fresh snapshot (the caller persists the
    tree).  A failing binding produces a per-instance error entry; other
    instances still run.
    """
    runs = []
    for path, instance in iter_instances(root):
        run = InstanceRun(path)
        try:
            result = execute_binding(model, instance.binding)
        except FactError as exc:
            run.error = str(exc)
            runs.append(run)
            continue
        run.result = result
        run.drift = drift_between(instance.snapshot, result.keys(model))
        if commit:
            instance.snapshot = Snapshot.of(model, result)
        runs.append(run)
    return runs
