"""Language-agnostic program fact model and its derived relations.

A frontend (or any external extractor) emits flat fact records for types,
methods, fields and call sites, one JSON object per line.  ``load_facts``
links those records into an immutable :class:`SourceModel` that every
downstream analysis consumes; nothing past this module ever looks at source
text again.

Derived relations.  Built at construction:

* the reflexive-transitive subtype closure over declared supertypes (which
  detects supertype cycles),
* a (owner type, signature) -> method index.

The closure is kept in one direction only: no type's subtypes are ever
listed, ``is_subtype`` answers each question about them, and this module
alone ranks types by them (``common_ancestor``).

Built on first use, so a command pays only for what it reads:

* the number of subtypes of each type, which ``common_ancestor`` ranks by,
* the name indexes behind ``type_by_name`` and ``resolve_method``,
* the call relation lifted along the override chain under a
  :class:`DispatchPolicy`, indexed by callee.  The policy is fixed per
  model; ``calls_to``, ``callers_of`` and ``lifted_edges`` alone accept
  another.

Record schema (``facts.jsonl``, field ``k`` discriminates)::

    {"k":"type","id":"T1","name":"AbstractCommand","kind":"class",
     "abstract":false,"anon":false,"encl":null,"super":["T0"]}
    {"k":"method","id":"M7","owner":"T1","name":"execute","params":[],
     "ret":"void","vis":"public","static":false,"abstract":false,
     "ctor":false,"throws":[],"stmts":3}
    {"k":"field","id":"F2","owner":"T1","name":"fView",
     "type":"DrawingView","vis":"private"}
    {"k":"call","id":"C9","caller":"M9","target":"M7",
     "recv":{"kind":"super"},"ord":1,"pass":[[0,0]]}

The keys of each kind, their types and their checks are one table,
``_RECORDS``, which drives loading; ``records_of``, the one writer, writes
the same keys from declarations.
Unknown keys are ignored so extractors may attach extra information.  Three
keys are optional: ``src`` (string: source file of the entity), ``ext``
(bool: entity synthesized for an unresolved reference) and, on methods,
``raises`` (list of strings: exception type names thrown directly in the
body).  A key of the wrong type is an error, optional or not; ``null`` is
accepted only for ``encl``, and a bool is never an integer.
"""

from __future__ import annotations

import json
import re
from collections import Counter, deque
from enum import Enum
from functools import cached_property, partial
from itertools import chain, islice, repeat
from json.scanner import make_scanner
from operator import attrgetter, itemgetter
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from ._util import ascii_count, collector_paused, natural_key, simple_name

#: Version of the fact record schema accepted by this loader.
SCHEMA_VERSION = "1"


class FactError(ValueError):
    """Malformed record, broken reference or inconsistent fact set."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class TypeKind(str, Enum):
    CLASS = "class"
    INTERFACE = "interface"


class Visibility(str, Enum):
    PUBLIC = "public"
    PROTECTED = "protected"
    PACKAGE = "package"
    PRIVATE = "private"


class ReceiverKind(str, Enum):
    THIS = "this"
    SUPER = "super"
    FIELD = "field"
    PARAM = "param"
    LOCAL = "local"
    OTHER = "other"


class DispatchPolicy(str, Enum):
    """How a call site is attributed to methods along the override chain.

    ``static_only`` counts a call toward its declared target alone.
    ``lift_to_ancestors`` additionally counts it toward every method the
    target overrides (a call to ``AbstractCommand.execute`` also counts
    toward ``Command.execute``).  ``lift_both`` further counts it toward
    every method overriding the target.
    """

    STATIC_ONLY = "static_only"
    LIFT_TO_ANCESTORS = "lift_to_ancestors"
    LIFT_BOTH = "lift_both"


DEFAULT_POLICY = DispatchPolicy.LIFT_TO_ANCESTORS

# Declarations are named tuples: immutable, hashable and cheap to build by
# the ten thousand, as a load does.


class TypeDecl(NamedTuple):
    id: str
    qualified_name: str
    kind: TypeKind
    is_abstract: bool = False
    is_anonymous: bool = False
    enclosing_type: str | None = None
    supertypes: tuple[str, ...] = ()
    is_external: bool = False
    src: str = ""

    @property
    def simple_name(self) -> str:
        return simple_name(self.qualified_name)


class MethodDecl(NamedTuple):
    id: str
    owner: str
    name: str
    param_types: tuple[str, ...] = ()
    return_type: str = "void"
    visibility: Visibility = Visibility.PUBLIC
    is_static: bool = False
    is_abstract: bool = False
    is_constructor: bool = False
    declared_throws: tuple[str, ...] = ()
    body_stmt_count: int = 0
    direct_throws: tuple[str, ...] = ()
    is_external: bool = False
    src: str = ""

    @property
    def arity(self) -> int:
        return len(self.param_types)

    @property
    def signature(self) -> tuple[str, tuple[str, ...]]:
        return (self.name, self.param_types)


class FieldDecl(NamedTuple):
    id: str
    owner: str
    name: str
    declared_type: str
    visibility: Visibility = Visibility.PRIVATE
    src: str = ""


class Receiver(NamedTuple):
    kind: ReceiverKind
    field: str | None = None  # FieldDecl id, for kind == FIELD
    index: int | None = None  # parameter index, for kind == PARAM


class CallSite(NamedTuple):
    id: str
    caller: str
    static_target: str
    receiver: Receiver
    ordinal: int
    #: (argument index in the callee, parameter index in the caller) pairs
    #: for arguments that forward a caller parameter verbatim.
    arg_passthrough: tuple[tuple[int, int], ...] = ()
    src: str = ""


class SourceModel:
    """Immutable fact database plus derived relations.

    Construction validates referential integrity and structural invariants
    and computes the subtype closure; the override relation is derived on
    each read and the indexes on first read, and the instance is safe to
    share across concurrent readers.  ``lines`` maps entity ids to the
    record line numbers that errors should name; it is read during
    construction only.
    """

    def __init__(
        self,
        types: Iterable[TypeDecl],
        methods: Iterable[MethodDecl],
        fields: Iterable[FieldDecl],
        calls: Iterable[CallSite],
        policy: DispatchPolicy = DEFAULT_POLICY,
        lines: Mapping[str, int | None] = MappingProxyType({}),
    ):
        self._types = {t.id: t for t in sorted(types, key=lambda t: natural_key(t.id))}
        self._methods = {m.id: m for m in sorted(methods, key=lambda m: natural_key(m.id))}
        self._fields = {f.id: f for f in sorted(fields, key=lambda f: natural_key(f.id))}
        self._calls = {c.id: c for c in sorted(calls, key=lambda c: natural_key(c.id))}
        # Read-only views of the four tables, by id in natural order.
        self.types = MappingProxyType(self._types)
        self.methods = MappingProxyType(self._methods)
        self.fields = MappingProxyType(self._fields)
        self.calls = MappingProxyType(self._calls)
        self.policy = DispatchPolicy(policy)

        self._validate_references(lines)
        self._methods_by_owner: dict[str, tuple[MethodDecl, ...]] = _group(
            self._methods.values(), lambda m: m.owner
        )
        self._fields_by_owner: dict[str, tuple[FieldDecl, ...]] = _group(
            self._fields.values(), lambda f: f.owner
        )
        self._calls_by_caller: dict[str, tuple[CallSite, ...]] = _group(
            self._calls.values(), lambda c: c.caller
        )
        self._validate_structure(lines)

        self._ancestors = self._compute_ancestors()
        self._calls_to: dict[DispatchPolicy, dict[str, tuple[CallSite, ...]]] = {}

    # -- basic access ------------------------------------------------------

    def methods_of(self, type_id: str) -> tuple[MethodDecl, ...]:
        return self._methods_by_owner.get(type_id, ())

    def fields_of(self, type_id: str) -> tuple[FieldDecl, ...]:
        return self._fields_by_owner.get(type_id, ())

    def calls_of(self, method_id: str) -> tuple[CallSite, ...]:
        return self._calls_by_caller.get(method_id, ())

    # -- name resolution ---------------------------------------------------

    # Name indexes, built on first use.

    @cached_property
    def _types_by_name(self) -> dict[str, TypeDecl]:
        """Qualified name -> the first type in id order that has it."""
        return {t.qualified_name: t for t in reversed(self._types.values())}

    @cached_property
    def _types_by_simple_name(self) -> dict[str, tuple[TypeDecl, ...]]:
        return _group(self._types.values(), lambda t: t.simple_name)

    @cached_property
    def _methods_by_name(self) -> dict[str, tuple[MethodDecl, ...]]:
        return _group(self._methods.values(), lambda m: m.name)

    def type_by_name(self, name: str) -> TypeDecl | None:
        """Resolve a type by qualified name (the first in id order), unique
        simple name, or id."""
        if name in self._types_by_name:
            return self._types_by_name[name]
        hits = self._types_by_simple_name.get(name, ())
        if len(hits) == 1:
            return hits[0]
        return self._types.get(name)

    def require_type(self, name: str) -> TypeDecl:
        t = self.type_by_name(name)
        if t is None:
            raise FactError(f"unknown type: {name!r}")
        return t

    def resolve_method(self, ref: str) -> MethodDecl:
        """Resolve ``name``, ``Type.name`` or ``Type.name/arity`` to a method.

        A bare ``name`` must be unique across the model; ``Type.name`` must
        be unique within the type's declared methods unless an ``/arity``
        suffix disambiguates overloads.
        """
        if ref in self._methods:
            return self._methods[ref]
        arity = None
        if "/" in ref:
            ref, suffix = ref.rsplit("/", 1)
            arity = ascii_count(suffix)
            if arity is None:
                raise FactError(f"bad arity suffix in method reference: {ref}/{suffix}")
        if "." in ref:
            type_name, method_name = ref.rsplit(".", 1)
            owner = self.require_type(type_name)
            pool = [m for m in self.methods_of(owner.id) if m.name == method_name]
        else:
            method_name = ref
            pool = self._methods_by_name.get(method_name, ())
        if arity is not None:
            pool = [m for m in pool if m.arity == arity]
        if not pool:
            raise FactError(f"unknown method: {ref!r}")
        if len(pool) > 1:
            options = ", ".join(sorted(self.method_sig(m.id) for m in pool))
            raise FactError(f"ambiguous method reference {ref!r}: {options}")
        return pool[0]

    def method_sig(self, method_id: str) -> str:
        m = self._methods[method_id]
        owner = self._types[m.owner].qualified_name
        return f"{owner}.{m.name}({','.join(m.param_types)})"

    # -- derived relations -------------------------------------------------

    def ancestors(self, type_id: str) -> frozenset[str]:
        """Reflexive-transitive supertypes of a type (subtype_of*)."""
        return self._ancestors[type_id]

    def is_subtype(self, type_id: str, ancestor_id: str) -> bool:
        return ancestor_id in self._ancestors[type_id]

    @cached_property
    def _subtype_counts(self) -> Counter:
        """Type id -> the number of its reflexive-transitive subtypes."""
        return Counter(chain.from_iterable(self._ancestors.values()))

    def common_ancestor(self, type_ids: Iterable[str]) -> str | None:
        """The most specific type that every given type is a subtype of: of
        their shared ancestors, the one with the fewest subtypes, then the
        least qualified name."""
        ups = map(self._ancestors.__getitem__, type_ids)
        shared = next(ups, frozenset()).intersection(*ups)
        if not shared:
            return None
        return min(shared, key=lambda tid: (self._subtype_counts[tid],
                                            self._types[tid].qualified_name))

    # The override relation in both directions: the methods with the same
    # signature in the owner's proper supertypes (or subtypes).

    def overrides_all(self, method_id: str) -> frozenset[str]:
        """Every method the given one overrides, directly or transitively."""
        m = self._methods[method_id]
        above = (self.declared_method(t, m.signature)
                 for t in self._ancestors[m.owner] if t != m.owner)
        return frozenset(mid for mid in above if mid is not None)

    def overridden_by(self, method_id: str) -> frozenset[str]:
        """Every method that overrides the given one, directly or transitively.

        Read from the methods that share its signature, keeping those whose
        owner has the given one's owner as a proper ancestor.
        """
        m = self._methods[method_id]
        return frozenset(o.id for o in self._methods_by_signature[m.signature]
                         if o.owner != m.owner and m.owner in self._ancestors[o.owner])

    @cached_property
    def _methods_by_signature(self) -> dict[tuple, tuple[MethodDecl, ...]]:
        return _group(self._methods.values(), attrgetter("signature"))

    def declared_method(self, type_id: str, signature: tuple[str, tuple[str, ...]]) -> str | None:
        """The id of the method with this signature that the type declares."""
        return self._method_by_owner_sig.get((type_id, signature))

    def lifted_callees(self, call: CallSite, policy: DispatchPolicy) -> tuple[str, ...]:
        """Methods a single call site contributes to under a policy."""
        target = call.static_target
        out = [target]
        if policy in (DispatchPolicy.LIFT_TO_ANCESTORS, DispatchPolicy.LIFT_BOTH):
            out.extend(sorted(self.overrides_all(target), key=natural_key))
        if policy is DispatchPolicy.LIFT_BOTH:
            out.extend(sorted(self.overridden_by(target), key=natural_key))
        return tuple(out)

    def calls_to(self, method_id: str, policy: DispatchPolicy | None = None) -> tuple[CallSite, ...]:
        """Call sites whose lifted callees under a policy (default: the
        model's own) include ``method_id``, in id order."""
        if method_id not in self._methods:
            raise FactError(f"unknown method id: {method_id!r}")
        return self._calls_index(policy).get(method_id, ())

    def _calls_index(self, policy: DispatchPolicy | None) -> dict[str, tuple[CallSite, ...]]:
        """Callee -> call sites under a policy, built by one pass on first use."""
        policy = self.policy if policy is None else DispatchPolicy(policy)
        index = self._calls_to.get(policy)
        if index is None:
            grouped: dict[str, list[CallSite]] = {}
            lifted: dict[str, tuple[str, ...]] = {}  # many calls share a target
            for call in self._calls.values():
                callees = lifted.get(call.static_target)
                if callees is None:
                    callees = lifted[call.static_target] = self.lifted_callees(call, policy)
                for callee in callees:
                    grouped.setdefault(callee, []).append(call)
            index = self._calls_to[policy] = {m: tuple(cs) for m, cs in grouped.items()}
        return index

    def lifted_edges(self, policy: DispatchPolicy | None = None) -> frozenset[tuple[str, str]]:
        """All (caller method, callee method) pairs under a policy."""
        return frozenset(
            (call.caller, callee)
            for callee, calls in self._calls_index(policy).items()
            for call in calls
        )

    def callers_of(self, method_id: str, policy: DispatchPolicy | None = None) -> frozenset[str]:
        """Distinct methods with a lifted call to ``method_id``; self-calls excluded."""
        return frozenset(
            call.caller for call in self.calls_to(method_id, policy) if call.caller != method_id
        )

    # -- serialization -----------------------------------------------------

    def to_records(self) -> list[dict]:
        """Canonical record list; loading it again reproduces this model."""
        return list(records_of(chain(self._types.values(), self._methods.values(),
                                     self._fields.values(), self._calls.values())))

    # -- validation and derivation ----------------------------------------

    def _validate_references(self, lines: Mapping[str, int | None]):
        for t in self._types.values():
            if t.enclosing_type is not None and t.enclosing_type not in self._types:
                raise FactError(f"type {t.id}: unknown enclosing type id {t.enclosing_type!r}",
                                lines.get(t.id))
            for sup in t.supertypes:
                if sup not in self._types:
                    raise FactError(f"type {t.id}: unknown supertype id {sup!r}", lines.get(t.id))
        for m in self._methods.values():
            if m.owner not in self._types:
                raise FactError(f"method {m.id}: unknown owner id {m.owner!r}", lines.get(m.id))
        for f in self._fields.values():
            if f.owner not in self._types:
                raise FactError(f"field {f.id}: unknown owner id {f.owner!r}", lines.get(f.id))
        for c in self._calls.values():
            if c.caller not in self._methods:
                raise FactError(f"call {c.id}: unknown caller id {c.caller!r}", lines.get(c.id))
            if c.static_target not in self._methods:
                raise FactError(f"call {c.id}: unknown target id {c.static_target!r}",
                                lines.get(c.id))
            if c.receiver.kind is ReceiverKind.FIELD and c.receiver.field not in self._fields:
                raise FactError(f"call {c.id}: unknown receiver field id {c.receiver.field!r}",
                                lines.get(c.id))

    def _validate_structure(self, lines: Mapping[str, int | None]):
        """Check the structural invariants, and index each method by
        (owner, signature) in the same pass over the owners."""
        for t in self._types.values():
            if t.is_anonymous and t.enclosing_type is None:
                raise FactError(f"type {t.id}: anonymous type without enclosing type",
                                lines.get(t.id))
            seen = {t.id}
            cursor = t.enclosing_type
            while cursor is not None:
                if cursor in seen:
                    raise FactError(f"type {t.id}: cyclic enclosing-type chain", lines.get(t.id))
                seen.add(cursor)
                cursor = self._types[cursor].enclosing_type
        by_sig: dict[tuple[str, tuple], str] = {}
        self._method_by_owner_sig = by_sig
        for owner, methods in self._methods_by_owner.items():
            for m in methods:
                if m.is_abstract and m.body_stmt_count != 0:
                    raise FactError(f"method {m.id}: abstract method with a body",
                                    lines.get(m.id))
                key = (owner, m.signature)
                if key in by_sig:
                    raise FactError(
                        f"method {m.id}: duplicate signature "
                        f"{m.name}({','.join(m.param_types)}) in type {owner} "
                        f"(already declared by {by_sig[key]})",
                        lines.get(m.id),
                    )
                by_sig[key] = m.id
        for owner, fields in self._fields_by_owner.items():
            names: dict[str, str] = {}
            for f in fields:
                if f.name in names:
                    raise FactError(
                        f"field {f.id}: duplicate field name {f.name!r} in type {owner}",
                        lines.get(f.id),
                    )
                names[f.name] = f.id
        for c in self._calls.values():
            caller = self._methods[c.caller]
            target = self._methods[c.static_target]
            if not 1 <= c.ordinal <= caller.body_stmt_count:
                raise FactError(
                    f"call {c.id}: ordinal {c.ordinal} outside caller body "
                    f"(1..{caller.body_stmt_count})",
                    lines.get(c.id),
                )
            for arg_index, param_index in c.arg_passthrough:
                if not 0 <= arg_index < target.arity:
                    raise FactError(f"call {c.id}: pass-through argument index {arg_index} "
                                    f"outside callee arity {target.arity}", lines.get(c.id))
                if not 0 <= param_index < caller.arity:
                    raise FactError(f"call {c.id}: pass-through parameter index {param_index} "
                                    f"outside caller arity {caller.arity}", lines.get(c.id))
            if c.receiver.kind is ReceiverKind.PARAM and not (
                c.receiver.index is not None and 0 <= c.receiver.index < caller.arity
            ):
                raise FactError(f"call {c.id}: parameter receiver index out of range", lines.get(c.id))

    def _compute_ancestors(self) -> dict[str, frozenset[str]]:
        resolved: dict[str, frozenset[str]] = {}
        for start in self._types:
            # Depth-first with an explicit path (type -> iterator over its
            # supertypes), so hierarchy depth is not bounded by recursion.
            path = {} if start in resolved else {start: iter(self._types[start].supertypes)}
            while path:
                tid, pending = next(reversed(path.items()))
                sup = next((s for s in pending if s not in resolved), None)
                if sup is None:
                    path.popitem()
                    ups = (resolved[s] for s in self._types[tid].supertypes)
                    resolved[tid] = frozenset({tid}.union(*ups))
                elif sup in path:
                    keys = list(path)
                    names = " -> ".join(self._types[x].qualified_name
                                        for x in keys[keys.index(sup):] + [sup])
                    raise FactError(f"cycle in supertype hierarchy: {names}")
                else:
                    path[sup] = iter(self._types[sup].supertypes)
        return resolved


# -- loading ----------------------------------------------------------------

#: Records decoded and checked together.  A chunk's dicts are dropped before
#: the next is read, so a load's peak is the model plus one chunk.
_CHUNK = 1024


def load_facts(lines: Iterable[str | bytes], *,
               policy: DispatchPolicy = DEFAULT_POLICY) -> SourceModel:
    """Parse a facts.jsonl stream and build a fully linked model.

    Lines may be text or UTF-8 bytes.  Raises :class:`FactError` with the
    offending line number for undecodable lines, malformed records,
    duplicate ids and dangling references.  Supertype references to
    undeclared ids are retained as external opaque types rather than
    rejected, since real fact extracts are routinely partial.

    Lines are decoded a chunk at a time, when ``load_records`` reads them
    into its next chunk, so a load holds the model plus about one chunk of
    decoded lines, and the error reported, with its message and line, is
    the one a load that decodes every line first would report.

    The cycle collector is paused meanwhile (``collector_paused``, shared
    with ``extract``): decoding and linking make no reference cycles, so its
    passes over the young records would free nothing, and the model it
    returns starts in the oldest generation.
    """
    with collector_paused():
        return load_records(_json_records(lines), policy=policy)


def _json_records(lines: Iterable[str | bytes]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line, read ``_CHUNK`` lines
    at a time.

    Each chunk is decoded by one scanner call (``_scan_lines``).  A chunk it
    refuses is decoded here one line at a time: the JSON scanner decodes each
    stripped line, and a line it does not consume whole goes to
    ``json.loads``, which words the error.  That loop runs in this frame,
    not in a call below it, so a line nested near the recursion limit is
    refused at the same depth whether or not its chunk was scanned first.
    """
    scan = _scan_once
    numbered = enumerate(lines, start=1)
    while chunk := list(islice(numbered, _CHUNK)):
        pairs = _scan_lines(chunk)
        if pairs is not None:
            yield from pairs
            del chunk, pairs  # before the next chunk is decoded
            continue
        for lineno, raw in chunk:
            if isinstance(raw, bytes):
                try:
                    raw = raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FactError(f"not valid UTF-8 ({exc.reason})", lineno) from None
            text = raw.strip()
            if not text:
                continue
            try:
                rec, end = scan(text, 0)
            except (StopIteration, ValueError, RecursionError):  # no value, or bad JSON
                end = None
            if end != len(text):
                rec = _loads(text, lineno)
            if not isinstance(rec, dict):
                raise FactError("record is not a JSON object", lineno)
            yield lineno, rec


#: Where one object may end and the next begin in a JSON array.  Every
#: separator between two objects of an array lies inside one such match.
_OBJECT_JOIN = re.compile(r"\}\s*,\s*\{")


def _scan_lines(chunk: list[tuple[int, str | bytes]]) -> Iterator[tuple[int, dict]] | None:
    """The chunk's (line number, object) pairs, or ``None`` unless each
    non-blank line is exactly one JSON object.

    The stripped lines, each ``{...}``, are joined into one array and
    scanned once (the scanner forgets its key strings after every call, so
    this shares them across the chunk).  The joins are the only matches of
    ``_OBJECT_JOIN`` in the text only if no line holds a match of its own;
    then every separator the scanner found is a join, and each line is one
    object, as the line-by-line decoding would read it.
    """
    numbers, texts = [], []
    for lineno, raw in chunk:
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                return None
        text = raw.strip()
        if text:
            if text[0] != "{" or text[-1] != "}":
                return None
            numbers.append(lineno)
            texts.append(text)
    joined = "[" + ",".join(texts) + "]"
    if len(_OBJECT_JOIN.findall(joined)) != len(texts) - 1:
        return None
    try:
        recs, end = _scan_once(joined, 0)
    except (StopIteration, ValueError, RecursionError):
        return None
    if end != len(joined) or len(recs) != len(texts) or set(map(type, recs)) - {dict}:
        return None
    return zip(numbers, recs)


def _loads(text: str, lineno: int):
    """``json.loads`` of a line, its failure as a :class:`FactError`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FactError(f"invalid JSON: {exc.msg}", lineno) from None
    except ValueError:  # an integer longer than the interpreter converts
        raise FactError("invalid JSON: integer has too many digits", lineno) from None
    except RecursionError:
        raise FactError("input nests too deeply", lineno) from None


#: The scanner behind ``json.loads`` (the C one where the interpreter has it).
_scan_once = make_scanner(json.JSONDecoder())


def load_facts_path(path: str | Path, *, policy: DispatchPolicy = DEFAULT_POLICY) -> SourceModel:
    """Load a facts.jsonl file.  Lines end at ``\\n``, as in JSON Lines, and
    are read as bytes and decoded by ``load_facts``, so an encoding error
    names its line."""
    with open(path, "rb") as handle:
        return load_facts(handle, policy=policy)


def load_records(
    records: Iterable[dict] | Iterable[tuple[int, dict]],
    *,
    policy: DispatchPolicy = DEFAULT_POLICY,
) -> SourceModel:
    """Build a model from already-parsed records.

    Accepts plain dicts or (line number, dict) pairs; line numbers feed the
    error messages when present.  The records are read ``_CHUNK`` at a time,
    so a load holds the declarations plus one chunk of records.  Each chunk
    is checked a column at a time; if any check fails, or an id repeats one
    already seen, that chunk is decoded one record at a time instead, which
    reports the first fault in record order.  The rest of the input is read
    before that fault is raised, so an error raised by the input itself (a
    later line that is not JSON, for ``load_facts``) is reported first, as
    when every line is decoded before any record.
    """
    decls: dict[str, list] = {kind: [] for kind in _RECORDS}
    seen_ids: dict[str, int | None] = {}
    items = iter(records)
    while chunk := [item if isinstance(item, tuple) else (None, item)
                    for item in islice(items, _CHUNK)]:
        found = _decode_columns(chunk)
        if found is None or not seen_ids.keys().isdisjoint(found[1]):
            try:
                _decode_each(chunk, decls, seen_ids)
            except FactError:
                deque(items, maxlen=0)  # the input's own errors come first
                raise
        else:
            for kind, group in found[0].items():
                decls[kind].extend(group)
            seen_ids.update(found[1])
        del chunk  # before the next chunk is read

    # Supertype references that do not resolve become external opaque types.
    types = decls["type"]
    known = {t.id for t in types}
    for decl in tuple(types):
        for sup in decl.supertypes:
            if sup not in known:
                types.append(TypeDecl(
                    id=sup, qualified_name=sup, kind=TypeKind.CLASS, is_external=True
                ))
                known.add(sup)

    return SourceModel(
        types, decls["method"], decls["field"], decls["call"], policy, seen_ids
    )


# -- the record schema ------------------------------------------------------
#
# One table per record kind drives loading: ``_decode`` checks each key in
# table order, so a record with several faults reports the first one in
# that order.  ``records_of`` writes the same keys, and a test holds the two
# to agree.
# ``_decode_columns`` runs the same checks over whole columns, as C-level
# builtins, and words no error: a column that fails sends the load to
# ``_decode``.


def _is(value, type_: type) -> bool:
    """The JSON type rule: ``value`` has ``type_``, and a bool is no int."""
    return isinstance(value, type_) and (type_ is bool or not isinstance(value, bool))


class _Check(NamedTuple):
    """A key's check beyond its type, on one value and on a column."""

    #: (value, line) -> the attribute value, or raises :class:`FactError`.
    one: Callable
    #: list of values -> list of attribute values, or ``None`` if any fails.
    column: Callable


def _enum(enum: type[Enum], what: str) -> _Check:
    members = {member.value: member for member in enum}

    def one(value, line: int | None):
        if not isinstance(value, str) or value not in members:
            raise FactError(f"bad {what} {value!r}", line)
        return members[value]

    def column(values: list[str]) -> list | None:
        if set(values) - members.keys():
            return None
        return list(map(members.__getitem__, values))
    return _Check(one, column)


def _count(value: int, line: int | None) -> int:
    if value < 0:
        raise FactError(f"negative statement count {value}", line)
    return value


def _counts(values: list[int]) -> list[int] | None:
    return values if min(values, default=0) >= 0 else None


_RECEIVER_KIND = _enum(ReceiverKind, "receiver kind")
#: One shared receiver per kind without a sub-key, by kind value; ``field``
#: and ``param`` receivers are built per call site.
_RECEIVERS = {kind.value: Receiver(kind) for kind in ReceiverKind
              if kind not in (ReceiverKind.FIELD, ReceiverKind.PARAM)}


def _receiver(value: dict, line: int | None) -> Receiver:
    """The ``recv`` object: a kind plus, for ``field`` and ``param``, the
    sub-key that kind needs; other sub-keys are ignored."""
    kind = _RECEIVER_KIND.one(value.get("kind"), line)
    if kind is ReceiverKind.FIELD:
        if not _is(value.get("field"), str):
            raise FactError("field receiver without a field id", line)
        return Receiver(kind, field=value["field"])
    if kind is ReceiverKind.PARAM:
        if not _is(value.get("index"), int):
            raise FactError("param receiver without a parameter index", line)
        return Receiver(kind, index=value["index"])
    return _RECEIVERS[kind.value]


def _receivers(values: list[dict]) -> list[Receiver] | None:
    """The ``recv`` column: shared receivers where the kind has no sub-key."""
    kinds = list(map(dict.get, values, repeat("kind")))
    if set(map(type, kinds)) - {str}:
        return None
    receivers = list(map(_RECEIVERS.get, kinds))
    for i, receiver in enumerate(receivers):
        if receiver is None:
            value, kind = values[i], kinds[i]
            if kind == "field" and type(value.get("field")) is str:
                receivers[i] = Receiver(ReceiverKind.FIELD, field=value["field"])
            elif kind == "param" and type(value.get("index")) is int:
                receivers[i] = Receiver(ReceiverKind.PARAM, index=value["index"])
            else:
                return None
    return receivers


def _pairs(value: list, line: int | None) -> tuple[tuple[int, int], ...]:
    for pair in value:
        if not (_is(pair, list) and len(pair) == 2 and all(_is(x, int) for x in pair)):
            raise FactError(f"bad pass-through pair {pair!r}", line)
    return tuple((arg, param) for arg, param in value)


def _pair_lists(values: list[list]) -> list[tuple[tuple[int, int], ...]] | None:
    pairs = list(chain.from_iterable(values))
    if pairs and (set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}
                  or set(map(type, chain.from_iterable(pairs))) - {int}):
        return None
    return [tuple(map(tuple, value)) if value else () for value in values]


class _Key(NamedTuple):
    """One key of a fact record and the declaration attribute it fills."""

    name: str
    attr: str
    accepts: type
    #: The element type of a list; the attribute holds a tuple.
    items: type | None = None
    #: Checks the typed value and gives the attribute value.
    check: _Check | None = None
    #: ``null`` is accepted and leaves the attribute ``None``.
    nullable: bool = False
    #: Absent means the declaration's default; written only when truthy.
    optional: bool = False


_VISIBILITY = _enum(Visibility, "visibility")

#: Record kind -> (declaration class, keys in check order).
_RECORDS: dict[str, tuple[type, tuple[_Key, ...]]] = {
    "type": (TypeDecl, (
        _Key("kind", "kind", str, check=_enum(TypeKind, "type kind")),
        _Key("id", "id", str),
        _Key("name", "qualified_name", str),
        _Key("abstract", "is_abstract", bool),
        _Key("anon", "is_anonymous", bool),
        _Key("encl", "enclosing_type", str, nullable=True),
        _Key("super", "supertypes", list, items=str),
        _Key("ext", "is_external", bool, optional=True),
        _Key("src", "src", str, optional=True),
    )),
    "method": (MethodDecl, (
        _Key("vis", "visibility", str, check=_VISIBILITY),
        _Key("stmts", "body_stmt_count", int, check=_Check(_count, _counts)),
        _Key("raises", "direct_throws", list, items=str, optional=True),
        _Key("id", "id", str),
        _Key("owner", "owner", str),
        _Key("name", "name", str),
        _Key("params", "param_types", list, items=str),
        _Key("ret", "return_type", str),
        _Key("static", "is_static", bool),
        _Key("abstract", "is_abstract", bool),
        _Key("ctor", "is_constructor", bool),
        _Key("throws", "declared_throws", list, items=str),
        _Key("ext", "is_external", bool, optional=True),
        _Key("src", "src", str, optional=True),
    )),
    "field": (FieldDecl, (
        _Key("vis", "visibility", str, check=_VISIBILITY),
        _Key("id", "id", str),
        _Key("owner", "owner", str),
        _Key("name", "name", str),
        _Key("type", "declared_type", str),
        _Key("src", "src", str, optional=True),
    )),
    "call": (CallSite, (
        _Key("recv", "receiver", dict, check=_Check(_receiver, _receivers)),
        _Key("ord", "ordinal", int),
        _Key("pass", "arg_passthrough", list, check=_Check(_pairs, _pair_lists)),
        _Key("id", "id", str),
        _Key("caller", "caller", str),
        _Key("target", "static_target", str),
        _Key("src", "src", str, optional=True),
    )),
}


def _decode(rec: dict, line: int | None):
    """The declaration a record describes, checked against its kind's keys."""
    kind = rec.get("k")
    if not isinstance(kind, str) or kind not in _RECORDS:
        raise FactError(f"unknown record kind {kind!r}", line)
    decl_class, keys = _RECORDS[kind]
    values = {}
    for name, attr, accepts, items, check, nullable, optional in keys:
        if name not in rec:
            if optional:
                continue
            raise FactError(f"missing key {name!r} in {kind} record", line)
        value = rec[name]
        if value is None and nullable:
            continue
        # The JSON decoder makes exact types; ``_is`` decides the rest.
        if (type(value) is not accepts and not _is(value, accepts)) or (
                items is not None and not all(isinstance(v, items) for v in value)):
            raise FactError(f"bad value for {name!r}: {value!r}", line)
        if items is not None:
            value = tuple(value)
        values[attr] = value if check is None else check.one(value, line)
    return decl_class(**values)


def _decode_each(pairs: list[tuple[int | None, dict]], decls: dict[str, list],
                 seen_ids: dict[str, int | None]):
    """Decode record by record into declarations by kind and id -> line."""
    for line, rec in pairs:
        decl = _decode(rec, line)
        if decl.id in seen_ids:
            raise FactError(f"duplicate id {decl.id!r}", line)
        seen_ids[decl.id] = line
        decls[rec["k"]].append(decl)


def _decode_columns(pairs: list[tuple[int | None, dict]]):
    """The declarations by kind and id -> line that ``_decode_each`` would
    fill, checked a column at a time; ``None`` unless every record passes
    every check and no id repeats."""
    if set(map(len, pairs)) - {2}:
        return None
    recs = list(map(itemgetter(1), pairs))
    if set(map(type, recs)) - {dict}:
        return None
    kinds = list(map(dict.get, recs, repeat("k")))
    if set(map(type, kinds)) - {str} or set(kinds) - _RECORDS.keys():
        return None
    groups: dict[str, list[dict]] = {kind: [] for kind in _RECORDS}
    for kind, rec in zip(kinds, recs):
        groups[kind].append(rec)
    decls = {}
    for kind, group in groups.items():
        decls[kind] = _decode_kind(kind, group)
        if decls[kind] is None:
            return None
    seen_ids = dict(zip(map(itemgetter("id"), recs), map(itemgetter(0), pairs)))
    if len(seen_ids) != len(recs):
        return None
    return decls, seen_ids


def _decode_kind(kind: str, recs: list[dict]) -> list | None:
    """The declarations of records of one kind, one key column at a time."""
    decl_class, keys = _RECORDS[kind]
    if not recs:
        return []
    required = [key for key in keys if not key.optional]
    try:  # one pass over the records reads every required key
        rows = list(map(itemgetter(*[key.name for key in required]), recs))
    except KeyError:
        return None
    columns = dict(zip([key.attr for key in required], zip(*rows)))
    for name, attr, accepts, items, check, nullable, optional in keys:
        if optional:
            # An absent key reads as its type's empty value, which decodes
            # to the declaration's default.
            column = list(map(dict.get, recs, repeat(name), repeat(accepts())))
        else:
            column = columns[attr]
        allowed = {accepts, type(None)} if nullable else {accepts}
        if set(map(type, column)) - allowed:
            return None
        if items is not None:
            if set(map(type, chain.from_iterable(column))) - {items}:
                return None
            column = list(map(tuple, column))
        if check is not None:
            column = check.column(column)
            if column is None:
                return None
        columns[attr] = column
    return list(map(partial(tuple.__new__, decl_class),
                    zip(*map(columns.__getitem__, decl_class._fields))))


#: A declaration of any kind: what a front end builds and ``records_of`` writes.
Decl = TypeDecl | MethodDecl | FieldDecl | CallSite


def records_of(decls: Iterable[Decl]) -> Iterator[dict]:
    """The fact record of each declaration: the one writer of the format that
    ``_RECORDS`` reads.  Each kind is one dict literal, as a loop over the
    table's keys would cost a lookup per key on every record."""
    for decl in decls:
        cls = type(decl)
        if cls is CallSite:
            recv = decl.receiver
            rec = {"k": "call", "id": decl.id, "caller": decl.caller,
                   "target": decl.static_target,
                   "recv": ({"kind": "field", "field": recv.field}
                            if recv.kind is ReceiverKind.FIELD else
                            {"kind": "param", "index": recv.index}
                            if recv.kind is ReceiverKind.PARAM else
                            {"kind": recv.kind.value}),
                   "ord": decl.ordinal, "pass": [list(p) for p in decl.arg_passthrough]}
        elif cls is MethodDecl:
            rec = {"k": "method", "id": decl.id, "owner": decl.owner, "name": decl.name,
                   "params": list(decl.param_types), "ret": decl.return_type,
                   "vis": decl.visibility.value, "static": decl.is_static,
                   "abstract": decl.is_abstract, "ctor": decl.is_constructor,
                   "throws": list(decl.declared_throws), "stmts": decl.body_stmt_count}
            if decl.direct_throws:
                rec["raises"] = list(decl.direct_throws)
            if decl.is_external:
                rec["ext"] = True
        elif cls is FieldDecl:
            rec = {"k": "field", "id": decl.id, "owner": decl.owner, "name": decl.name,
                   "type": decl.declared_type, "vis": decl.visibility.value}
        else:
            rec = {"k": "type", "id": decl.id, "name": decl.qualified_name,
                   "kind": decl.kind.value, "abstract": decl.is_abstract,
                   "anon": decl.is_anonymous, "encl": decl.enclosing_type,
                   "super": list(decl.supertypes)}
            if decl.is_external:
                rec["ext"] = True
        if decl.src:
            rec["src"] = decl.src
        yield rec


def dumps_facts(records: Iterable[dict]) -> str:
    """The facts.jsonl text: one key-sorted JSON object per line."""
    return "".join(_encode(rec) + "\n" for rec in records)


#: ``json.dumps(rec, sort_keys=True)`` without building an encoder per record.
_encode = json.JSONEncoder(sort_keys=True).encode


def _group(items, key) -> dict:
    grouped: dict[str, list] = {}
    for item in items:
        grouped.setdefault(key(item), []).append(item)
    return {k: tuple(v) for k, v in grouped.items()}
