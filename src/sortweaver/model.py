"""Language-agnostic program fact model and its derived relations.

A frontend (or any external extractor) emits flat fact records for types,
methods, fields and call sites, one JSON object per line.  ``load_facts``
links those records into an immutable :class:`SourceModel` that every
downstream analysis consumes; nothing past this module ever looks at source
text again.

Derived relations.  Built at construction:

* the reflexive-transitive subtype closure over declared supertypes (which
  detects supertype cycles): per type, one ``int`` bitset of its ancestors,
  whose bit *i* stands for the *i*-th type of ``types``, kept as a window
  (the index of its lowest set bit, and the bits from there up), so a
  type whose ancestors lie near it in the table costs a few bytes,
* a (owner type, signature) -> method index.

The closure is kept in one direction only: no type's subtypes are ever
listed, ``is_subtype`` answers each question about them with one bit test,
and this module alone ranks types by them (``common_ancestor``).  A set of
ancestor ids is built only when ``ancestors`` is called.

Built on first use, so a command pays only for what it reads:

* the number of subtypes of each type, which ``common_ancestor`` ranks by,
* the members of each type, the calls of each method, and the name
  indexes behind ``type_by_name`` and ``resolve_method``,
* the methods that take each parameter type (``methods_taking``) and that
  declare each exception (``methods_declaring``), through which the EC and
  EP queries select their methods without a pass over every method,
* the row of each method, field and call id in its table
  (``method_rank``, ``field_rank``, ``call_rank``; ``type_rank`` reads the
  types' ancestor bits): its rank in natural id order, by which hits and
  evidence are sorted without building a ``natural_key`` per id,
* the call relation lifted along the override chain under a
  :class:`DispatchPolicy`, indexed by callee.  The policy is fixed per
  model; ``calls_to``, ``callers_of`` and ``lifted_edges`` alone accept
  another.

Every table is in natural id order, and ids that natural order ties keep
their records' order, so a sort by rank is a total order that no hash seed
moves.

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

import hashlib
import json
import os
import stat
from collections import Counter, defaultdict, deque
from contextlib import suppress
from enum import Enum
from functools import cached_property, partial, reduce
from itertools import chain, compress, count, filterfalse, islice, repeat
from json.scanner import make_scanner
from operator import and_, attrgetter, is_, itemgetter, le, or_
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from ._util import (
    TYPED_EQUALITY,
    ascii_count,
    collector_paused,
    natural_key,
    replace_file,
    simple_name,
)

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
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

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
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

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
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class Receiver(NamedTuple):
    kind: ReceiverKind
    field: str | None = None  # FieldDecl id, for kind == FIELD
    index: int | None = None  # parameter index, for kind == PARAM
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


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
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


def _index(table: str, attr: str) -> cached_property:
    """A ``SourceModel`` index built on first read by one pass over a table
    (``"_methods"``, say): attribute value -> its rows, in id order."""
    def build(model: SourceModel) -> dict:
        grouped: defaultdict[str, list] = defaultdict(list)
        rows = getattr(model, table).values()
        for key, row in zip(map(attrgetter(attr), rows), rows):
            grouped[key].append(row)
        return {key: tuple(group) for key, group in grouped.items()}
    return cached_property(build)


def _item_index(table: str, attr: str) -> cached_property:
    """``_index`` of an attribute that holds a tuple: each item -> the rows
    that hold it, each once, in id order.  Rows with an empty tuple are
    skipped without a step of the loop."""
    def build(model: SourceModel) -> dict:
        grouped: defaultdict[str, list] = defaultdict(list)
        rows = getattr(model, table).values()
        column = list(map(attrgetter(attr), rows))
        for items, row in zip(compress(column, column), compress(rows, column)):
            for key in items:
                group = grouped[key]
                if not group or group[-1] is not row:  # an item the row repeats
                    group.append(row)
        return {key: tuple(group) for key, group in grouped.items()}
    return cached_property(build)


def _rank(table: str) -> cached_property:
    """A ``SourceModel`` map built on first read: id -> its row in a table
    (``"_methods"``, say), which is its rank in natural id order."""
    def build(model: SourceModel) -> Callable[[str], int]:
        return dict(zip(getattr(model, table), count())).__getitem__
    return cached_property(build)


def _by_id(decls: Iterable, decl_class: type) -> tuple[dict, tuple]:
    """Id -> declaration in natural id order (a stable sort), and the table's
    columns: a ``decl_class`` whose attributes hold all rows' values.  Ids of
    one alphabetic head then ASCII digits with no leading zero are in that
    order when in (length, id) order: only a table whose id column fails, or
    repeats an id, is sorted."""
    decls = list(decls)
    columns = tuple(zip(*decls)) or ((),) * len(decl_class._fields)
    table = dict(zip(columns[0], decls))
    ids = list(table)
    head = ids[0].rstrip("0123456789") if ids else "_"
    text = "\n%s\n" % "\n".join(ids)
    if len(ids) < len(decls) or not (head.isalpha() and text.count("\n" + head) == len(ids)
            and text.translate(str.maketrans("", "", "0123456789"))
            == "\n" + (head + "\n") * len(ids)
            and "\n" + head + "0" not in text and ids == sorted(sorted(ids), key=len)):
        decls.sort(key=lambda decl: natural_key(decl.id))
        table = dict(zip(map(itemgetter(0), decls), decls))
        columns = tuple(zip(*table.values())) or columns
    return table, decl_class._make(columns)


class SourceModel:
    """Immutable fact database plus derived relations.

    Construction checks the tables in one ordered pass (``_check``) and
    computes the subtype closure.  References come before structure, each
    a kind at a time: types, methods, fields, calls.  Each check tests whole
    columns, and only one whose test refuses walks its rows, which raises
    the first fault a walk over every row of every check would meet.
    Members are walked owner by owner, owners in the order of their first
    member's id.  The override relation is derived on
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
        (self._types, t), (self._methods, m), (self._fields, f), (self._calls, c) = map(
            _by_id, (types, methods, fields, calls), (TypeDecl, MethodDecl, FieldDecl, CallSite))
        # Read-only views of the four tables, by id in natural order.
        self.types = MappingProxyType(self._types)
        self.methods = MappingProxyType(self._methods)
        self.fields = MappingProxyType(self._fields)
        self.calls = MappingProxyType(self._calls)
        self.policy = DispatchPolicy(policy)

        self._method_by_owner_sig = dict(zip(zip(m.owner, zip(m.name, m.param_types)), m.id))
        self._check(t, m, f, c, lines)

        # Type id -> its bit in the ancestor windows, and bit -> type id.
        self._type_ids = tuple(self._types)
        self._bit = {tid: bit for bit, tid in enumerate(self._type_ids)}
        self._ancestors = self._compute_ancestors()
        self._calls_to: dict[DispatchPolicy, dict[str, tuple[CallSite, ...]]] = {}

    # -- basic access ------------------------------------------------------

    _methods_by_owner = _index("_methods", "owner")
    _fields_by_owner = _index("_fields", "owner")
    _calls_by_caller = _index("_calls", "caller")

    def methods_of(self, type_id: str) -> tuple[MethodDecl, ...]:
        return self._methods_by_owner.get(type_id, ())

    def fields_of(self, type_id: str) -> tuple[FieldDecl, ...]:
        return self._fields_by_owner.get(type_id, ())

    def calls_of(self, method_id: str) -> tuple[CallSite, ...]:
        return self._calls_by_caller.get(method_id, ())

    _methods_by_param_type = _item_index("_methods", "param_types")
    _methods_by_throws = _item_index("_methods", "declared_throws")

    def methods_taking(self, type_name: str) -> tuple[MethodDecl, ...]:
        """The methods with a parameter of this type, in id order."""
        return self._methods_by_param_type.get(type_name, ())

    def methods_declaring(self, exception: str) -> tuple[MethodDecl, ...]:
        """The methods whose throws clause names this exception, in id order."""
        return self._methods_by_throws.get(exception, ())

    # -- natural order -----------------------------------------------------
    #
    # Each rank is a sort key: an id's row in its table, so ids that natural
    # order ties keep their records' order.

    method_rank = _rank("_methods")
    field_rank = _rank("_fields")
    call_rank = _rank("_calls")

    @property
    def type_rank(self) -> Callable[[str], int]:
        """Type id -> its row in ``types``, which is its ancestor bit."""
        return self._bit.__getitem__

    # -- name resolution ---------------------------------------------------

    # Name indexes, built on first use.

    @cached_property
    def _types_by_name(self) -> dict[str, TypeDecl]:
        """Qualified name -> the first type in id order that has it."""
        return {t.qualified_name: t for t in reversed(self._types.values())}

    _types_by_simple_name = _index("_types", "simple_name")
    _methods_by_name = _index("_methods", "name")

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
        """Resolve ``name``, ``Type.name``, ``Type.name/arity`` or
        ``Type.name(T1,T2)`` to a method.

        A bare ``name`` must be unique across the model; ``Type.name`` must
        be unique within the type's declared methods unless an ``/arity``
        suffix or a parameter list disambiguates overloads.  A parameter
        list, with or without the type, is matched exactly against the
        method's parameter types as ``method_sig`` prints them.
        """
        if ref in self._methods:
            return self._methods[ref]
        arity = None
        if "/" in ref:
            ref, suffix = ref.rsplit("/", 1)
            arity = ascii_count(suffix)
            if arity is None:
                raise FactError(f"bad arity suffix in method reference: {ref}/{suffix}")
        head, params = ref, None
        if ref.endswith(")") and "(" in ref:
            head, params = ref[:-1].split("(", 1)
        if "." in head:
            type_name, method_name = head.rsplit(".", 1)
            owner = self.require_type(type_name)
            pool = [m for m in self.methods_of(owner.id) if m.name == method_name]
        else:
            method_name = head
            pool = self._methods_by_name.get(method_name, ())
        if arity is not None:
            pool = [m for m in pool if m.arity == arity]
        if params is not None:
            pool = [m for m in pool if ",".join(m.param_types) == params]
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
        return frozenset(self._members(*self._ancestors[type_id]))

    def is_subtype(self, type_id: str, ancestor_id: str) -> bool:
        low, bits = self._ancestors[type_id]
        bit = self._bit.get(ancestor_id, -1) - low  # an unknown id lies below every window
        return bit >= 0 and bits >> bit & 1 == 1

    def subtype_test(self, ancestor_id: str) -> Callable[[str], bool]:
        """``is_subtype`` with the ancestor fixed: the test on a type id,
        for a caller that tests many types against one ancestor."""
        bit = self._bit.get(ancestor_id, -1)
        windows = self._ancestors

        def test(type_id: str) -> bool:
            low, bits = windows[type_id]
            return low <= bit and bits >> bit - low & 1 == 1
        return test

    def _members(self, low: int, bits: int) -> Iterable[str]:
        """The ids of the types whose bits are set in a window, in natural
        id order.  Few set bits, or few among many, are peeled off one at a
        time; more are read from the window's binary digits, each of them."""
        ones = bits.bit_count()
        if ones < 8 or ones * 32 < bits.bit_length():
            ids = []
            while bits:
                lowest = bits & -bits
                ids.append(self._type_ids[low + lowest.bit_length() - 1])
                bits ^= lowest
            return ids
        return map(self._type_ids.__getitem__,
                   compress(count(low), bin(bits)[:1:-1].encode().translate(_BIT_VALUES)))

    @cached_property
    def _subtype_counts(self) -> dict[str, int]:
        """Type id -> the number of its reflexive-transitive subtypes: the
        popcount of a window of its subtypes, which one pass from the last
        type closed to the first pushes up into each supertype and drops."""
        below: dict[str, tuple[int, int]] = {}
        counts = {}
        for tid in reversed(self._ancestors):  # every subtype closed later
            own = (self._bit[tid], 1)
            window = _union(below.pop(tid, own), own)
            counts[tid] = window[1].bit_count()
            for sup in self._types[tid].supertypes:
                below[sup] = _union(below.get(sup, window), window)
        return counts

    def common_ancestor(self, type_ids: Iterable[str]) -> str | None:
        """The most specific type that every given type is a subtype of: of
        their shared ancestors, the one with the fewest subtypes, then the
        least qualified name."""
        windows = list(map(self._ancestors.__getitem__, type_ids))
        if not windows:
            return None
        low = max(map(itemgetter(0), windows))  # no bit below it is shared
        shared = reduce(and_, (bits >> low - start for start, bits in windows))
        if not shared:
            return None
        return min(self._members(low, shared), key=lambda tid: (
            self._subtype_counts[tid], self._types[tid].qualified_name))

    # The override relation in both directions: the methods with the same
    # signature in the owner's proper supertypes (or subtypes).

    def overrides_all(self, method_id: str) -> frozenset[str]:
        """Every method the given one overrides, directly or transitively.

        Read from the owner's proper ancestors, or, when there are many,
        from the methods that share its signature if they are fewer."""
        m = self._methods[method_id]
        low, bits = self._ancestors[m.owner]
        bits ^= 1 << self._bit[m.owner] - low  # the proper ancestors
        above = bits.bit_count()
        signature = m.signature
        # A walk of a few ancestors is cheaper than the signature index
        # that it would be weighed against, which is built by a pass over
        # every method.
        if above >= 32 and len(self._methods_by_signature[signature]) < above:
            return frozenset(o.id for o in self._methods_by_signature[signature]
                             if o.owner != m.owner and self.is_subtype(m.owner, o.owner))
        declared = map(self._method_by_owner_sig.get,
                       zip(self._members(low, bits), repeat(signature)))
        return frozenset(mid for mid in declared if mid is not None)

    def overridden_by(self, method_id: str) -> frozenset[str]:
        """Every method that overrides the given one, directly or transitively.

        Read from the methods that share its signature, keeping those whose
        owner has the given one's owner as a proper ancestor.
        """
        m = self._methods[method_id]
        below = self.subtype_test(m.owner)
        return frozenset(o.id for o in self._methods_by_signature[m.signature]
                         if o.owner != m.owner and below(o.owner))

    _methods_by_signature = _index("_methods", "signature")

    def declared_method(self, type_id: str, signature: tuple[str, tuple[str, ...]]) -> str | None:
        """The id of the method with this signature that the type declares."""
        return self._method_by_owner_sig.get((type_id, signature))

    def lifted_callees(self, call: CallSite, policy: DispatchPolicy) -> tuple[str, ...]:
        """Methods a single call site contributes to under a policy."""
        target = call.static_target
        out = [target]
        if policy in (DispatchPolicy.LIFT_TO_ANCESTORS, DispatchPolicy.LIFT_BOTH):
            out.extend(sorted(self.overrides_all(target), key=self.method_rank))
        if policy is DispatchPolicy.LIFT_BOTH:
            out.extend(sorted(self.overridden_by(target), key=self.method_rank))
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
            # A target whose signature no other method declares lifts to
            # itself only.
            declared = Counter(map(itemgetter(1), self._method_by_owner_sig))
            for call in self._calls.values():
                target = call.static_target
                callees = lifted.get(target)
                if callees is None:
                    callees = lifted[target] = (
                        self.lifted_callees(call, policy)
                        if declared[self._methods[target].signature] > 1 else (target,))
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

    def _check(self, t: TypeDecl, m: MethodDecl, f: FieldDecl, c: CallSite,
               lines: Mapping[str, int | None]):
        """Check the tables in one ordered pass: references before structure,
        each a kind at a time (types, methods, fields, calls).  ``t``, ``m``,
        ``f`` and ``c`` hold the tables' columns.  Each check tests whole
        columns, and only a check whose test refuses walks its rows, which
        raises its first fault: every earlier check has passed, so that is
        the first fault of a walk over every row of every check."""
        types, methods = self._types.keys(), self._methods.keys()
        if not types >= {*chain.from_iterable(t.supertypes), *set(t.enclosing_type) - {None}}:
            for decl in self._types.values():
                if decl.enclosing_type is not None and decl.enclosing_type not in types:
                    raise FactError(f"type {decl.id}: unknown enclosing type id "
                                    f"{decl.enclosing_type!r}", lines.get(decl.id))
                for sup in decl.supertypes:
                    if sup not in types:
                        raise FactError(f"type {decl.id}: unknown supertype id {sup!r}",
                                        lines.get(decl.id))
        for kind, table, owners in (("method", self._methods, m.owner),
                                    ("field", self._fields, f.owner)):
            if not types >= set(owners):
                decl = next(decl for decl in table.values() if decl.owner not in types)
                raise FactError(f"{kind} {decl.id}: unknown owner id {decl.owner!r}",
                                lines.get(decl.id))
        kinds = list(map(itemgetter(0), c.receiver))
        if not (methods >= {*c.caller, *c.static_target} and self._fields.keys() >= set(map(
                itemgetter(1), compress(c.receiver, map(is_, kinds, repeat(ReceiverKind.FIELD)))))):
            for call in self._calls.values():
                for ref, what in ((call.caller, "caller"), (call.static_target, "target")):
                    if ref not in methods:
                        raise FactError(f"call {call.id}: unknown {what} id {ref!r}",
                                        lines.get(call.id))
                field = call.receiver.field
                if call.receiver.kind is ReceiverKind.FIELD and field not in self._fields:
                    raise FactError(f"call {call.id}: unknown receiver field id {field!r}",
                                    lines.get(call.id))
        self._validate_types(lines)
        # Members are walked owner by owner, owners in the order of their
        # first member's id.
        if (any(compress(m.body_stmt_count, m.is_abstract))
                or len(self._method_by_owner_sig) < len(m.id)):
            by_sig: dict[tuple[str, tuple], str] = {}
            for owner, owned in self._methods_by_owner.items():
                for decl in owned:
                    if decl.is_abstract and decl.body_stmt_count != 0:
                        raise FactError(f"method {decl.id}: abstract method with a body",
                                        lines.get(decl.id))
                    key = (owner, decl.signature)
                    if key in by_sig:
                        raise FactError(
                            f"method {decl.id}: duplicate signature "
                            f"{decl.name}({','.join(decl.param_types)}) in type {owner} "
                            f"(already declared by {by_sig[key]})", lines.get(decl.id))
                    by_sig[key] = decl.id
        if len(set(zip(f.owner, f.name))) < len(f.id):
            for owner, owned in self._fields_by_owner.items():
                names: set[str] = set()
                for decl in owned:
                    if decl.name in names:
                        raise FactError(f"field {decl.id}: duplicate field name {decl.name!r} "
                                        f"in type {owner}", lines.get(decl.id))
                    names.add(decl.name)
        # While every ordinal fits its caller's body, only a call that
        # forwards a parameter or receives one can fail the rest.
        rows = map(or_, map(bool, c.arg_passthrough), map(is_, kinds, repeat(ReceiverKind.PARAM)))
        if min(c.ordinal, default=1) < 1 or not all(map(
                le, c.ordinal, map(dict(zip(m.id, m.body_stmt_count)).__getitem__, c.caller))):
            rows = repeat(True)
        for call in compress(self._calls.values(), rows):
            caller, target = self._methods[call.caller], self._methods[call.static_target]
            if not 1 <= call.ordinal <= caller.body_stmt_count:
                raise FactError(f"call {call.id}: ordinal {call.ordinal} outside caller body "
                                f"(1..{caller.body_stmt_count})", lines.get(call.id))
            for arg_index, param_index in call.arg_passthrough:
                if not 0 <= arg_index < target.arity:
                    raise FactError(f"call {call.id}: pass-through argument index {arg_index} "
                                    f"outside callee arity {target.arity}", lines.get(call.id))
                if not 0 <= param_index < caller.arity:
                    raise FactError(f"call {call.id}: pass-through parameter index {param_index} "
                                    f"outside caller arity {caller.arity}", lines.get(call.id))
            if call.receiver.kind is ReceiverKind.PARAM and not (
                    call.receiver.index is not None and 0 <= call.receiver.index < caller.arity):
                raise FactError(f"call {call.id}: parameter receiver index out of range",
                                lines.get(call.id))

    def _validate_types(self, lines: Mapping[str, int | None]):
        """Check the structural invariants of types.  Each enclosing walk
        stops at a type whose chain is already known to end, so the check is
        linear in the number of types."""
        ends: set[str] = set()
        for t in self._types.values():
            if t.is_anonymous and t.enclosing_type is None:
                raise FactError(f"type {t.id}: anonymous type without enclosing type",
                                lines.get(t.id))
            seen = {t.id}
            cursor = t.enclosing_type
            while cursor is not None and cursor not in ends:
                if cursor in seen:
                    raise FactError(f"type {t.id}: cyclic enclosing-type chain", lines.get(t.id))
                seen.add(cursor)
                cursor = self._types[cursor].enclosing_type
            ends |= seen

    def _compute_ancestors(self) -> dict[str, tuple[int, int]]:
        """Type id -> the window of its ancestor bits, in the order the
        types were closed: each type once, after its supertypes."""
        resolved: dict[str, tuple[int, int]] = {}
        for start, decl in self._types.items():
            if start in resolved:  # closed by an earlier walk
                continue
            if all(map(resolved.__contains__, decl.supertypes)):  # the supertypes came first
                resolved[start] = self._closed(start, resolved)
                continue
            # Depth-first with an explicit path (type -> iterator over its
            # supertypes), so hierarchy depth is not bounded by recursion.
            path = {start: iter(decl.supertypes)}
            while path:
                tid, pending = next(reversed(path.items()))
                sup = next(filterfalse(resolved.__contains__, pending), None)
                if sup is None:
                    path.popitem()
                    resolved[tid] = self._closed(tid, resolved)
                elif sup in path:
                    keys = list(path)
                    names = " -> ".join(self._types[x].qualified_name
                                        for x in keys[keys.index(sup):] + [sup])
                    raise FactError(f"cycle in supertype hierarchy: {names}")
                else:
                    path[sup] = iter(self._types[sup].supertypes)
        return resolved

    def _closed(self, tid: str, resolved: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """The ancestor window of a type whose supertypes are all closed:
        its own bit OR-ed with theirs."""
        return reduce(_union, map(resolved.__getitem__, self._types[tid].supertypes),
                      (self._bit[tid], 1))


def _union(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The window that holds the set bits of two windows."""
    low = min(a[0], b[0])
    return low, a[1] << a[0] - low | b[1] << b[0] - low


#: ``bin`` digits as the 0 and 1 bytes that ``compress`` selects by.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


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

    Lines are decoded as ``load_records`` reads them into its next chunk,
    so a load holds the model plus about one chunk of decoded lines, and
    the error reported, with its message and line, is the one a load that
    decodes every line first would report.

    The cycle collector is paused meanwhile (``collector_paused``, shared
    with ``extract``): decoding and linking make no reference cycles, so its
    passes over the young records would free nothing, and the model it
    returns starts in the oldest generation.
    """
    with collector_paused():
        return load_records(_json_records(lines), policy=policy)


def _json_records(lines: Iterable[str | bytes]) -> Iterator[tuple[int, dict]]:
    """(line number, object) for each non-blank line.

    The JSON scanner decodes each stripped line, and a line it does not
    consume whole goes to ``json.loads``, which words the error.
    """
    scan = _scan_once
    for lineno, raw in enumerate(lines, start=1):
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
    are read as bytes and decoded one at a time, as ``load_facts`` decodes
    them, so an encoding error names its line.  The cycle collector is
    paused once for the whole load (``collector_paused``).

    A regular file's lines are decoded once.  That load writes the columns
    it checked to a sidecar, ``.<name>.swcache`` next to the file, keyed by
    the SHA-256 of the bytes it decoded; a later load of the same bytes
    builds the model from those columns (``_load_sidecar``), through every
    check a load of the lines runs.  Any fault of the sidecar sends the load
    to the lines, so the file's own result or error is what it reports, and
    a sidecar that cannot be written is left out.  Any other path (a pipe,
    a symbolic link such as ``/dev/stdin``) is read as a stream and gets no
    sidecar.
    """
    path = Path(path)
    with open(path, "rb") as handle, collector_paused():
        if not stat.S_ISREG(os.lstat(path).st_mode):
            return load_facts(handle, policy=policy)
        sidecar = _sidecar_path(path)
        try:
            return _load_sidecar(sidecar, handle, policy)
        except (OSError, ValueError, RecursionError):  # a miss: the lines decide
            handle.seek(0)
        digest = hashlib.sha256()
        columns: list[str] = []
        model = load_records(_json_records(_hashed_lines(handle, digest)), policy=policy,
                             columns=columns)
    with suppress(OSError):  # a sidecar that cannot be written is left out
        replace_file(sidecar, chain((_sidecar_header(digest.hexdigest()),), columns))
    return model


def _sidecar_path(path: Path) -> Path:
    """Where the sidecar of a facts file lives: a hidden file next to it,
    whose name ends in none of the tool's own suffixes (``.jsonl``,
    ``.json``, ``.aj``)."""
    return path.with_name(f".{path.name}.swcache")


#: Bytes of a facts file read, and hashed, at a time when a hit checks that
#: its sidecar names them.
_HASH_BLOCK = 1 << 16


def _hashed_lines(handle, digest) -> Iterator[bytes]:
    """The lines of a binary file, read as a stream reads them, each added
    to ``digest`` as it is read."""
    for line in handle:
        digest.update(line)
        yield line


def _sidecar_header(sha256: str) -> str:
    """A sidecar's first line: the schema and the digest of its facts."""
    return _encode_compact({"schema": SCHEMA_VERSION, "sha256": sha256}) + "\n"


def _load_sidecar(sidecar: Path, facts, policy: DispatchPolicy) -> SourceModel:
    """The model of the open facts file from its sidecar.  Raises
    ``OSError``, ``ValueError`` (the checks' errors among them) or
    ``RecursionError`` unless the sidecar is a regular file whose header
    names the facts' bytes and the schema, and whose columns pass
    ``_check_columns``, hold no id twice and link into a model.

    After the header, each line is one chunk's columns as ``load_records``
    wrote them: record kind -> key name -> the key's values in record order.
    """
    if not stat.S_ISREG(os.stat(sidecar).st_mode):  # a pipe there would block
        raise OSError(f"{sidecar}: not a regular file")
    with open(sidecar, "rb") as cache:
        header = cache.readline()
        digest = hashlib.sha256()
        while block := facts.read(_HASH_BLOCK):
            digest.update(block)
        if header != _sidecar_header(digest.hexdigest()).encode():
            raise ValueError(f"{sidecar}: written for other facts or another schema")
        decls: dict[str, list] = {kind: [] for kind in _RECORDS}
        for line in cache:
            chunk = json.loads(line)
            if type(chunk) is not dict or chunk.keys() - _RECORDS.keys():
                raise ValueError(f"{sidecar}: a chunk is not columns by record kind")
            for kind, columns in chunk.items():
                decls[kind].extend(_check_columns(kind, columns))
    ids = list(map(itemgetter(0), chain.from_iterable(decls.values())))
    if len(set(ids)) != len(ids):
        raise ValueError(f"{sidecar}: an id repeats")
    return _link(decls, policy, {})


def load_records(
    records: Iterable[dict] | Iterable[tuple[int, dict]],
    *,
    policy: DispatchPolicy = DEFAULT_POLICY,
    columns: list | None = None,
) -> SourceModel:
    """Build a model from already-parsed records.

    Accepts plain dicts or (line number, dict) pairs; line numbers feed the
    error messages when present.  The records are read ``_CHUNK`` at a time,
    so a load holds the declarations plus one chunk of records.  Each chunk
    is checked a column at a time, and one that a check refuses is walked
    record by record (``_decode_chunk``), which raises its first fault in
    record order.  The rest of the input is read before that
    fault is raised, so an error raised by the input itself (a later line
    that is not JSON, for ``load_facts``) is reported first, as when every
    line is decoded before any record.

    When ``columns`` is a list, one line of JSON per chunk is appended to
    it: the chunk's columns, which ``_check_columns`` turns into the same
    declarations.
    """
    decls: dict[str, list] = {kind: [] for kind in _RECORDS}
    seen_ids: dict[str, int | None] = {}
    items = iter(records)
    while chunk := [item if isinstance(item, tuple) else (None, item)
                    for item in islice(items, _CHUNK)]:
        try:
            found, ids, checked = _decode_chunk(chunk, seen_ids)
        except FactError:
            deque(items, maxlen=0)  # the input's own errors come first
            raise
        for kind, group in found.items():
            decls[kind].extend(group)
        seen_ids.update(ids)
        if columns is not None:
            columns.append(_encode_compact(checked) + "\n")
        del chunk  # before the next chunk is read
    return _link(decls, policy, seen_ids)


def _link(decls: dict[str, list], policy: DispatchPolicy,
          lines: Mapping[str, int | None]) -> SourceModel:
    """The model of checked declarations by kind.  Supertype references
    that do not resolve become external opaque types."""
    types = decls["type"]
    known = set(map(itemgetter(0), types))
    external = dict.fromkeys(filterfalse(known.__contains__, chain.from_iterable(
        map(attrgetter("supertypes"), types))))
    types.extend(TypeDecl(sup, sup, TypeKind.CLASS, is_external=True) for sup in external)
    return SourceModel(types, decls["method"], decls["field"], decls["call"], policy, lines)


# -- the record schema ------------------------------------------------------
#
# One table per record kind drives loading, and ``records_of`` writes the
# same keys; a test holds the two to agree.  A chunk's records are checked a
# column per key (``_check_columns``, which also checks a sidecar's
# columns): a C-level test accepts the whole column, and only a column it
# refuses is searched for the value that words the error.  A chunk that any
# check refuses is walked in record order through the same checks, one
# record at a time, so its first faulty record is reported, with that
# record's first refused key in table order.


def _is(value, type_: type) -> bool:
    """The JSON type rule: ``value`` has ``type_``, and a bool is no int."""
    return isinstance(value, type_) and (type_ is bool or not isinstance(value, bool))


class _Refused(ValueError):
    """A column that fails its key's check; the error words its first
    refused value."""


def _enum(enum: type[Enum], what: str) -> Callable:
    members = {member.value: member for member in enum}

    def check(values: list[str]) -> list:
        if set(values) - members.keys():
            bad = next(value for value in values if value not in members)
            raise _Refused(f"bad {what} {bad!r}")
        return list(map(members.__getitem__, values))
    return check


def _counts(values: list[int]) -> list[int]:
    if min(values, default=0) < 0:
        raise _Refused(f"negative statement count {next(v for v in values if v < 0)}")
    return values


#: Kind value -> the one receiver that every call site of a kind without a
#: sub-key shares; ``None`` for ``field`` and ``param``, whose receivers are
#: built per call site.
_RECEIVERS = {kind.value: None if kind in (ReceiverKind.FIELD, ReceiverKind.PARAM)
              else Receiver(kind) for kind in ReceiverKind}


def _receivers(values: list[dict]) -> list[Receiver]:
    """The ``recv`` column: a kind plus, for ``field`` and ``param``, the
    sub-key that kind needs; other sub-keys are ignored.  Kinds without a
    sub-key share one receiver."""
    kinds = list(map(dict.get, values, repeat("kind")))
    if set(map(type, kinds)) - {str}:
        receivers = [None] * len(kinds)
    else:
        receivers = list(map(_RECEIVERS.get, kinds))
    for row, receiver in enumerate(receivers):
        if receiver is not None:
            continue
        value, kind = values[row], kinds[row]
        if not isinstance(kind, str) or kind not in _RECEIVERS:
            raise _Refused(f"bad receiver kind {kind!r}")
        if kind == "field":
            if not _is(value.get("field"), str):
                raise _Refused("field receiver without a field id")
            receivers[row] = Receiver(ReceiverKind.FIELD, field=value["field"])
        elif kind == "param":
            if not _is(value.get("index"), int):
                raise _Refused("param receiver without a parameter index")
            receivers[row] = Receiver(ReceiverKind.PARAM, index=value["index"])
        else:
            receivers[row] = _RECEIVERS[kind]
    return receivers


def _pair_lists(values: list[list]) -> list[tuple[tuple[int, int], ...]]:
    pairs = list(chain.from_iterable(values))
    if pairs and (set(map(type, pairs)) - {list} or set(map(len, pairs)) - {2}
                  or set(map(type, chain.from_iterable(pairs))) - {int}):
        for pair in pairs:
            if not (_is(pair, list) and len(pair) == 2 and all(_is(x, int) for x in pair)):
                raise _Refused(f"bad pass-through pair {pair!r}")
    return [tuple(map(tuple, value)) if value else () for value in values]


class _Key(NamedTuple):
    """One key of a fact record and the declaration attribute it fills."""

    name: str
    attr: str
    accepts: type
    #: The element type of a list; the attribute holds a tuple.
    items: type | None = None
    #: The typed column -> the attribute values, or raises ``_Refused``.
    check: Callable | None = None
    #: ``null`` is accepted and leaves the attribute ``None``.
    nullable: bool = False
    #: Absent means the declaration's default; written only when truthy.
    optional: bool = False
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


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
        _Key("stmts", "body_stmt_count", int, check=_counts),
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
        _Key("recv", "receiver", dict, check=_receivers),
        _Key("ord", "ordinal", int),
        _Key("pass", "arg_passthrough", list, check=_pair_lists),
        _Key("id", "id", str),
        _Key("caller", "caller", str),
        _Key("target", "static_target", str),
        _Key("src", "src", str, optional=True),
    )),
}


def _decode_chunk(chunk: list[tuple[int | None, dict]], seen_ids: Mapping[str, int | None]):
    """The declarations by kind, id -> line and columns by kind of a chunk
    of (line, record) pairs, each kind's records checked a column at a time.
    If a check refuses, the records are walked in order through the same
    checks, and the first fault met is raised as a :class:`FactError`: a
    record that is not an object, an unknown kind, the record's first
    refused key, or an id of an earlier record or of ``seen_ids``."""
    lines, recs = zip(*chunk)
    if all(map(isinstance, recs, repeat(dict))):
        kinds = list(map(dict.get, recs, repeat("k")))
        if all(map(isinstance, kinds, repeat(str))) and _RECORDS.keys() >= set(kinds):
            groups: dict[str, list[dict]] = {kind: [] for kind in _RECORDS}
            for kind, rec in zip(kinds, recs):
                groups[kind].append(rec)
            columns = {kind: _columns(kind, group) for kind, group in groups.items() if group}
            try:
                decls = {kind: _check_columns(kind, cols) for kind, cols in columns.items()}
            except _Refused:
                pass
            else:
                fresh = dict(zip(map(itemgetter("id"), recs), lines))
                if len(fresh) == len(recs) and seen_ids.keys().isdisjoint(fresh):
                    return decls, fresh, columns
    earlier = set()  # a check refused, so the walk meets a fault
    for line, rec in chunk:
        if not isinstance(rec, dict):
            raise FactError("record is not a JSON object", line)
        kind = dict.get(rec, "k")
        if not isinstance(kind, str) or kind not in _RECORDS:
            raise FactError(f"unknown record kind {kind!r}", line)
        try:
            _check_columns(kind, _columns(kind, [rec]))
        except _Refused as refused:
            raise FactError(str(refused), line) from None
        if rec["id"] in seen_ids or rec["id"] in earlier:
            raise FactError(f"duplicate id {rec['id']!r}", line)
        earlier.add(rec["id"])


#: The value a column holds for a record without a required key.
_MISSING = object()


def _columns(kind: str, recs: list[dict]) -> dict[str, list]:
    """Key name -> the values of records of one kind.  A missing required
    key reads as ``_MISSING``, which fails its type; an absent optional key
    as its type's empty value, which decodes to the declaration's default."""
    return {key.name: list(map(dict.get, recs, repeat(key.name),
                               repeat(key.accepts() if key.optional else _MISSING)))
            for key in _RECORDS[kind][1]}


def _typed(kind: str, key: _Key, column: list) -> list:
    """The column of one key, each value of the key's type (a list as a
    tuple); raises ``_Refused`` for the first value that is not."""
    items = key.items
    if (set(map(type, column)) - ({key.accepts, type(None)} if key.nullable else {key.accepts})
            or items is not None and set(map(type, chain.from_iterable(column))) - {items}):
        # The test above takes exact types; ``_is`` decides the rest.
        for value in column:
            if value is _MISSING:
                raise _Refused(f"missing key {key.name!r} in {kind} record")
            if not (value is None and key.nullable) and (not _is(value, key.accepts) or (
                    items is not None and not all(isinstance(v, items) for v in value))):
                raise _Refused(f"bad value for {key.name!r}: {value!r}")
    return column if items is None else list(map(tuple, column))


def _check_columns(kind: str, columns: dict[str, list | tuple]) -> list:
    """The declarations that the columns of one kind describe, each key's
    column checked at once.  Raises ``ValueError`` unless the columns are
    one list (or tuple) per key of the kind, all of one length, and
    ``_Refused`` for the first key in table order whose column a check
    refuses, the key's type test before its value check."""
    decl_class, keys = _RECORDS[kind]
    if (type(columns) is not dict or columns.keys() != {key.name for key in keys}
            or set(map(type, columns.values())) - {list, tuple}
            or len(set(map(len, columns.values()))) != 1):
        raise ValueError(f"{kind} columns are not one list per key, all of one length")
    values = {}
    for key in keys:
        column = _typed(kind, key, columns[key.name])
        values[key.attr] = column if key.check is None else key.check(column)
    return list(map(partial(tuple.__new__, decl_class),
                    zip(*map(values.__getitem__, decl_class._fields))))


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

#: The sidecar's JSON: no spaces, and no walk for cycles a column cannot hold.
_encode_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode
