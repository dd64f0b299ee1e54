"""Fact extraction from MiniLang syntax trees.

Walks parsed compilation units and emits the model's declarations, which
``records_of`` in :mod:`sortweaver.model` writes as ``facts.jsonl`` records.
Extraction is deterministic: ids, statement ordinals and declaration order
depend only on the input text and file order, so the same sources always
produce byte-identical output.

Each declaration is held once.  A method keeps its parser node and adds
only what its body walk finds: the statement count and the exceptions it
raises.  A field and an external stub are the model's ``FieldDecl`` and
``MethodDecl`` from the start; a field's declared type is resolved when it
is emitted.  What a name denotes as a call receiver is decided in one
place, ``_BodyWalker.name_receiver``.

Conventions:

* Statement ordinals number every statement in lexical pre-order, nested
  blocks included; a call inside an ``if`` condition carries the ``if``
  statement's ordinal.
* Anonymous classes get synthesized names ``<Encl>$anon<N>`` (N counts per
  enclosing type).  They are registered from the parser's list for each
  method, in the order their bodies close, so that list is the only source
  of their order and ids.  Their bodies see the enclosing method's
  parameters and locals, as ``local`` receivers.
* Declared type names (params, returns, fields, throws) are stored fully
  qualified whenever they resolve; unresolved names are kept as written.
* ``new T(...)`` emits a call to T's constructor when one is declared;
  otherwise the implicit default constructor produces no record.
* A call whose target cannot be resolved is recorded against a synthesized
  external method stub (owned by the receiver's type when that type is
  itself external, else by the external ``$unresolved`` type) and reported
  as a warning.  A stub's parameter and return types are the literal
  ``Object``, not resolved like declared type names, so a call on a stub's
  result looks up from the external ``Object``.
* Sources the model would refuse raise :class:`ExtractError`: a supertype
  cycle, two fields of one name in a type, or two methods of one type
  whose signatures are equal once their parameter types are resolved.
"""

from __future__ import annotations

from typing import NamedTuple

from .ast import (
    Assign,
    BinaryExpr,
    CallExpr,
    CompilationUnit,
    Diagnostic,
    ExprStmt,
    IfStmt,
    LocalDecl,
    MethodNode,
    Name,
    NewExpr,
    Position,
    ReturnStmt,
    Stmt,
    Super,
    This,
    ThrowStmt,
    TryStmt,
    TypeNode,
)
from .._util import TYPED_EQUALITY, Record, simple_name
from ..model import (
    _RECEIVERS,
    CallSite,
    Decl,
    FieldDecl,
    MethodDecl,
    Receiver,
    ReceiverKind,
    TypeDecl,
    TypeKind,
    Visibility,
    dumps_facts,
    records_of,
)


class _TypeInfo(Record):
    __slots__ = ("id", "qualified_name", "kind", "is_anonymous", "encl", "supertype_names",
                 "src", "unit", "supertypes", "fields", "methods", "stubs", "is_external",
                 "anon_counter")

    def __init__(self, id: str, qualified_name: str, kind: str, is_anonymous: bool,
                 encl: _TypeInfo | None, supertype_names: list[str], src: str, unit: int,
                 is_external: bool = False):
        self.id = id
        self.qualified_name = qualified_name
        self.kind = kind
        self.is_anonymous = is_anonymous
        self.encl = encl
        self.supertype_names = supertype_names
        self.src = src
        self.unit = unit  # the index of the declaring unit; -1 for an external type
        self.supertypes: list[_TypeInfo] = []
        self.fields: list[FieldDecl] = []  # types as written until ``emit``
        self.methods: list[_MethodInfo] = []
        self.stubs: list[MethodDecl] = []  # of an external type
        self.is_external = is_external
        self.anon_counter = 0

    @property
    def is_abstract(self) -> bool:
        if self.kind == "interface":
            return True
        return any(m.node.is_abstract for m in self.methods)


class _MethodInfo(Record):
    __slots__ = ("id", "node", "body_stmt_count", "raises")

    def __init__(self, id: str, node: MethodNode):
        self.id = id
        self.node = node
        self.body_stmt_count = 0  # the walker's last statement ordinal
        self.raises: list[str] = []

    @property
    def return_type(self) -> str:
        """As written; a call on this method's result resolves it where the
        call is."""
        return self.node.return_type


class ExtractResult(NamedTuple):
    #: One declaration per fact record, in record order.
    records: list[Decl]
    warnings: list[Diagnostic]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def to_jsonl(self) -> str:
        return dumps_facts(records_of(self.records))


class ExtractError(ValueError):
    """Sources whose facts the model would refuse.  ``message`` names the
    type and the member or the cycle; ``unit`` is the index of the unit
    that declares the type, whose source the error's text names first."""

    def __init__(self, unit: int, source: str, message: str):
        self.unit = unit
        self.message = message
        super().__init__(f"{source}: {message}")


def _refusal(info: _TypeInfo, message: str) -> ExtractError:
    return ExtractError(info.unit, info.src, f"{info.kind} {info.qualified_name}: {message}")


def extract_facts(units: list[CompilationUnit]) -> ExtractResult:
    """The fact declarations of parsed compilation units; raises
    :class:`ExtractError` for sources the model would refuse."""
    return _Extractor(units).run()


class _Extractor:
    def __init__(self, units: list[CompilationUnit]):
        self.units = units
        self.types: list[_TypeInfo] = []
        self.by_qname: dict[str, _TypeInfo] = {}
        self.by_simple: dict[str, list[_TypeInfo]] = {}
        # Named nested types by (encloser id, name); a nested type links to
        # its encloser only through ``encl``.
        self.nested: dict[tuple[str, str], _TypeInfo] = {}
        self.anon_info: dict[int, _TypeInfo] = {}  # by id() of the anonymous TypeNode
        self.externals: dict[str, _TypeInfo] = {}  # in creation order
        self.hierarchies: dict[str, list[_TypeInfo]] = {}  # by type id, once linked
        self.calls: list[CallSite] = []
        self.warnings: list[Diagnostic] = []
        self.counters = {"T": 0, "M": 0, "F": 0, "C": 0, "XT": 0, "XM": 0}

    def fresh(self, prefix: str) -> str:
        self.counters[prefix] += 1
        return f"{prefix}{self.counters[prefix]}"

    def warn(self, pos: Position, message: str):
        self.warnings.append(Diagnostic("warning", pos, message))

    # -- phase 1: registration ----------------------------------------------

    def run(self) -> ExtractResult:
        for index, unit in enumerate(self.units):
            for node in unit.types:
                self.register_type(node, encl=None, unit=index)
        self.link_supertypes()
        self.check_acyclic()
        for info in self.types:
            if info.is_anonymous:
                continue  # walked from its new-expression site
            for method in info.methods:
                if method.node.body is not None:
                    _BodyWalker(self, info, method).walk()
        return ExtractResult(self.emit(), self.warnings)

    def register_type(self, node: TypeNode, encl: _TypeInfo | None, unit: int) -> _TypeInfo:
        anonymous = not node.name
        if anonymous:
            encl.anon_counter += 1
            qname = f"{encl.qualified_name}$anon{encl.anon_counter}"
        else:
            qname = f"{encl.qualified_name}.{node.name}" if encl else node.name
        info = _TypeInfo(
            id=self.fresh("T"),
            qualified_name=qname,
            kind=node.kind,
            is_anonymous=anonymous,
            encl=encl,
            supertype_names=node.supertypes,
            src=self.units[unit].source,
            unit=unit,
        )
        # A repeated name refers to its first declaration, whether written
        # qualified or as a nested name inside the enclosing type.
        if qname in self.by_qname:
            self.warn(node.pos, f"duplicate type name {qname!r}; "
                                "references resolve to the first declaration")
        else:
            self.by_qname[qname] = info
        self.by_simple.setdefault(simple_name(qname), []).append(info)
        if encl is not None and not anonymous:
            self.nested.setdefault((encl.id, node.name), info)
        self.types.append(info)

        for fld in node.fields:
            info.fields.append(FieldDecl(self.fresh("F"), info.id, fld.name, fld.declared_type,
                                         Visibility(fld.visibility), info.src))
        for method in node.methods:
            self.register_method(info, method)
        for nested in node.nested:
            self.register_type(nested, encl=info, unit=unit)
        return info

    def register_method(self, info: _TypeInfo, node: MethodNode):
        info.methods.append(_MethodInfo(self.fresh("M"), node))
        for anon in node.anonymous:
            self.anon_info[id(anon)] = self.register_type(anon, encl=info, unit=info.unit)

    def link_supertypes(self):
        for info in self.types:
            for name in info.supertype_names:
                resolved = self.resolve_type_name(name, info.encl or info)
                if resolved is None:
                    resolved = self.external_type(name)
                info.supertypes.append(resolved)

    def check_acyclic(self):
        """Raise on the first supertype cycle, walking the types in
        declaration order, depth first, with an explicit path.  Before it
        raises, it clears every type's supertype links, so the abandoned
        type table holds no cycle."""
        done: set[int] = set()
        for start in self.types:
            path = {} if id(start) in done else {id(start): (start, iter(start.supertypes))}
            while path:
                info, pending = next(reversed(path.values()))
                sup = next((s for s in pending if id(s) not in done), None)
                if sup is None:
                    path.popitem()
                    done.add(id(info))
                elif id(sup) in path:
                    cycle = [entry[0] for entry in path.values()][list(path).index(id(sup)):]
                    names = " -> ".join(t.qualified_name for t in cycle + [sup])
                    for info in self.types:
                        info.supertypes.clear()
                    raise _refusal(sup, f"cycle in supertype hierarchy: {names}")
                else:
                    path[id(sup)] = (sup, iter(sup.supertypes))

    # -- name resolution -----------------------------------------------------

    def resolve_type_name(self, name: str, context: _TypeInfo | None) -> _TypeInfo | None:
        if name in self.by_qname:
            return self.by_qname[name]
        cursor = context
        while cursor is not None:
            nested = self.nested.get((cursor.id, name))
            if nested is not None:
                return nested
            cursor = cursor.encl
        candidates = self.by_simple.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_type_text(self, name: str, context: _TypeInfo | None) -> str:
        info = self.resolve_type_name(name, context)
        return info.qualified_name if info is not None else name

    def external_type(self, name: str) -> _TypeInfo:
        if name not in self.externals:
            info = _TypeInfo(
                id=self.fresh("XT"),
                qualified_name=name,
                kind="class",
                is_anonymous=False,
                encl=None,
                supertype_names=[],
                src="",
                unit=-1,
                is_external=True,
            )
            self.externals[name] = info
        return self.externals[name]

    def external_stub(self, owner: _TypeInfo, name: str, arity: int) -> MethodDecl:
        """The stub ``name/arity`` of the external type ``owner``, typed as
        the literal ``Object`` throughout: nothing is known of its types, so
        no user type named ``Object`` (a nested one, say) stands for them."""
        for stub in owner.stubs:
            if stub.name == name and stub.arity == arity:
                return stub
        stub = MethodDecl(self.fresh("XM"), owner.id, name, ("Object",) * arity, "Object",
                          is_external=True)
        owner.stubs.append(stub)
        return stub

    def hierarchy(self, start: _TypeInfo) -> list[_TypeInfo]:
        """Breadth-first walk of a type and its supertypes, without repeats.

        Memoised per type id: supertypes are fixed once linked.  The lists
        live on the extractor, not on the types, so they make no cycle.
        """
        out = self.hierarchies.get(start.id)
        if out is None:
            out = [start]
            seen = {id(start)}
            for info in out:  # ``out`` is also the queue
                for sup in info.supertypes:
                    if id(sup) not in seen:
                        seen.add(id(sup))
                        out.append(sup)
            self.hierarchies[start.id] = out
        return out

    def find_method(self, start: _TypeInfo, name: str, arity: int) -> _MethodInfo | None:
        for info in self.hierarchy(start):
            for method in info.methods:
                node = method.node
                if node.name == name and len(node.params) == arity and not node.is_constructor:
                    return method
        return None

    def find_field(self, start: _TypeInfo, name: str) -> tuple[_TypeInfo, FieldDecl] | None:
        """The first field named ``name`` in ``start``'s hierarchy, with the
        type that declares it."""
        for info in self.hierarchy(start):
            for fld in info.fields:
                if fld.name == name:
                    return info, fld
        return None

    # -- emission -------------------------------------------------------------

    def emit(self) -> list[Decl]:
        resolve = self.resolve_type_text
        kinds, visibilities = TypeKind._value2member_map_, Visibility._value2member_map_
        decls: list[Decl] = []
        for info in self.types + list(self.externals.values()):
            decls.append(TypeDecl(
                info.id, info.qualified_name, kinds[info.kind], info.is_abstract,
                info.is_anonymous, info.encl.id if info.encl else None,
                tuple([s.id for s in info.supertypes]), info.is_external, info.src,
            ))
            names: set[str] = set()
            for fld in info.fields:
                if fld.name in names:
                    raise _refusal(info, f"duplicate field {fld.name!r}")
                names.add(fld.name)
                decls.append(fld._replace(declared_type=resolve(fld.declared_type, info)))
            signatures: set[tuple[str, tuple[str, ...]]] = set()
            for method in info.methods:
                node = method.node
                params = tuple([resolve(p.declared_type, info) for p in node.params])
                if (node.name, params) in signatures:
                    raise _refusal(info, f"duplicate method {node.name}({','.join(params)})")
                signatures.add((node.name, params))
                decls.append(MethodDecl(
                    method.id, info.id, node.name, params,
                    resolve(node.return_type, info), visibilities[node.visibility],
                    node.is_static, node.is_abstract, node.is_constructor,
                    tuple([resolve(t, info) for t in node.throws]), method.body_stmt_count,
                    tuple(dict.fromkeys(method.raises)), src=info.src,
                ))
            decls.extend(info.stubs)
        decls.extend(self.calls)
        return decls


class _BodyWalker:
    """Resolves one method body: ordinals, receivers, call targets."""

    def __init__(self, extractor: _Extractor, owner: _TypeInfo, method: _MethodInfo,
                 outer: "_BodyWalker | None" = None):
        self.ex = extractor
        self.owner = owner
        self.method = method
        self.outer = outer  # in an anonymous class: the enclosing method's walker
        self.locals: dict[str, str] = {}
        self.ordinal = 0

    def walk(self):
        self.walk_block(self.method.node.body)
        self.method.body_stmt_count = self.ordinal

    def walk_block(self, stmts: list[Stmt]):
        for stmt in stmts:
            self.ordinal += 1
            at = self.ordinal
            if isinstance(stmt, IfStmt):
                self.walk_expr(stmt.cond, at)
                self.walk_block(stmt.then_body)
                if stmt.else_body:
                    self.walk_block(stmt.else_body)
            elif isinstance(stmt, TryStmt):
                self.walk_block(stmt.body)
                self.locals[stmt.exc_name] = stmt.exc_type
                self.walk_block(stmt.handler)
            elif isinstance(stmt, LocalDecl):
                self.walk_expr(stmt.init, at)
                self.locals[stmt.name] = stmt.declared_type
            elif isinstance(stmt, ThrowStmt):
                self.walk_expr(stmt.value, at)
                if isinstance(stmt.value, NewExpr):
                    self.method.raises.append(
                        self.ex.resolve_type_text(stmt.value.type_name, self.owner)
                    )
            elif isinstance(stmt, ExprStmt):
                self.walk_expr(stmt.expr, at)
            elif isinstance(stmt, (Assign, ReturnStmt)):
                self.walk_expr(stmt.value, at)

    # -- expressions, post-order --------------------------------------------

    def walk_expr(self, expr, ordinal: int) -> str | None:
        """Emit call records inside ``expr``.  Returns the static type name of
        a ``new`` or ``==`` expression, the only receivers whose type a call
        reads from here."""
        if isinstance(expr, BinaryExpr):
            self.walk_expr(expr.left, ordinal)
            self.walk_expr(expr.right, ordinal)
            return "boolean"
        if isinstance(expr, NewExpr):
            for arg in expr.args:
                self.walk_expr(arg, ordinal)
            self.emit_ctor_call(expr, ordinal)
            if expr.body is not None:
                anon = self.ex.anon_info[id(expr.body)]
                for method in anon.methods:
                    if method.node.body is not None:
                        _BodyWalker(self.ex, anon, method, self).walk()
                return anon.qualified_name
            return expr.type_name
        if isinstance(expr, CallExpr):
            # A chain ``a.f().g()...`` is walked innermost call first, in a loop.
            chain = [expr]
            while isinstance(chain[-1].receiver, CallExpr):
                chain.append(chain[-1].receiver)
            target = None
            for call in reversed(chain):
                target = self.emit_call(call, ordinal, target)
        return None

    def type_or_external(self, type_name: str | None, context: _TypeInfo | None = None):
        """Resolve a declared type name; unresolved names become external types."""
        if type_name is None:
            return None
        info = self.ex.resolve_type_name(type_name, context or self.owner)
        return info if info is not None else self.ex.external_type(type_name)

    def name_receiver(self, name: str) -> tuple[Receiver, _TypeInfo | None] | None:
        """What ``name`` denotes as a call receiver: the receiver and the type
        its method lookup starts from, or None when nothing of that name is in
        scope.  A parameter comes first, then a local, a field of this type,
        its supertypes or an enclosing type, and last a type.

        An anonymous class's body looks in its own fields and those of its
        supertypes, then sees what the enclosing method sees.  A parameter of
        that method is a ``local`` here: a ``param`` index would point into
        this method's parameters.
        """
        for index, param in enumerate(self.method.node.params):
            if param.name == name:
                return (Receiver(ReceiverKind.PARAM, index=index),
                        self.type_or_external(param.declared_type))
        if name in self.locals:
            return _RECEIVERS["local"], self.type_or_external(self.locals[name])
        if self.outer is None:
            cursor, found = self.owner, None
            while found is None and cursor is not None:
                found = self.ex.find_field(cursor, name)
                cursor = cursor.encl
        else:
            found = self.ex.find_field(self.owner, name)
        if found is not None:
            declarer, fld = found
            return (Receiver(ReceiverKind.FIELD, field=fld.id),
                    self.type_or_external(fld.declared_type, context=declarer))
        if self.outer is not None:
            denoted = self.outer.name_receiver(name)
            if denoted is not None and denoted[0].kind is ReceiverKind.PARAM:
                return _RECEIVERS["local"], denoted[1]
            return denoted
        info = self.ex.resolve_type_name(name, self.owner)
        return (_RECEIVERS["other"], info) if info is not None else None

    def emit_ctor_call(self, expr: NewExpr, ordinal: int):
        target_type = self.ex.resolve_type_name(expr.type_name, self.owner)
        if target_type is None:
            self.ex.external_type(expr.type_name)
            return
        for method in target_type.methods:
            if method.node.is_constructor and len(method.node.params) == len(expr.args):
                self.append_call(expr, method, _RECEIVERS["other"], ordinal)
                return

    def emit_call(self, expr: CallExpr, ordinal: int,
                  inner: _MethodInfo | MethodDecl | None) -> _MethodInfo | MethodDecl:
        """Emit one call; ``inner`` is the target of a call receiver already
        walked.  Returns the target."""
        recv = expr.receiver
        receiver: Receiver
        lookup_start: _TypeInfo | None
        if recv is None or isinstance(recv, This):
            receiver, lookup_start = _RECEIVERS["this"], self.owner
        elif isinstance(recv, Super):
            receiver, lookup_start = _RECEIVERS["super"], None  # search starts at supertypes
        elif isinstance(recv, Name):
            denoted = self.name_receiver(recv.value)
            if denoted is None:
                self.ex.warn(expr.pos, f"unknown receiver {recv.value!r}")
                denoted = _RECEIVERS["other"], None
            receiver, lookup_start = denoted
        else:
            # The chain loop walked a call receiver; any other is walked here.
            if isinstance(recv, CallExpr):
                lookup_start = self.result_type(inner)
            else:
                lookup_start = self.type_or_external(self.walk_expr(recv, ordinal))
            receiver = _RECEIVERS["other"]

        for arg in expr.args:
            self.walk_expr(arg, ordinal)

        target = self.resolve_target(expr, lookup_start, recv)
        self.append_call(expr, target, receiver, ordinal)
        return target

    def result_type(self, target: _MethodInfo | MethodDecl) -> _TypeInfo | None:
        """The type a call on a call's result looks up from: the target's
        return type as written, resolved where the call is, or for a stub the
        external ``Object``, which no user type stands for."""
        if isinstance(target, MethodDecl):
            return self.ex.external_type(target.return_type)
        return self.type_or_external(target.return_type)

    def resolve_target(self, expr: CallExpr, lookup_start: _TypeInfo | None,
                       recv) -> _MethodInfo | MethodDecl:
        """The method a call binds to.  A bare call that its lookup type does
        not declare looks in the enclosing types; an unresolved call binds
        to an external stub."""
        arity = len(expr.args)
        if isinstance(recv, Super):
            for sup in self.owner.supertypes:
                found = self.ex.find_method(sup, expr.name, arity)
                if found is not None:
                    return found
        elif lookup_start is not None:
            found = self.ex.find_method(lookup_start, expr.name, arity)
            if found is not None:
                return found
            if recv is None:
                cursor = self.owner.encl
                while cursor is not None:
                    found = self.ex.find_method(cursor, expr.name, arity)
                    if found is not None:
                        return found
                    cursor = cursor.encl

        owner_name = lookup_start.qualified_name if lookup_start else "<unknown>"
        self.ex.warn(
            expr.pos,
            f"cannot resolve method {expr.name}/{arity} on {owner_name}; "
            "recording an external stub",
        )
        stub_owner = (
            lookup_start
            if lookup_start is not None and lookup_start.is_external
            else self.ex.external_type("$unresolved")
        )
        return self.ex.external_stub(stub_owner, expr.name, arity)

    def append_call(self, expr, target: _MethodInfo | MethodDecl, receiver: Receiver,
                    ordinal: int):
        passes = []
        for arg_index, arg in enumerate(expr.args):
            if isinstance(arg, Name):
                for param_index, param in enumerate(self.method.node.params):
                    if param.name == arg.value:
                        passes.append((arg_index, param_index))
                        break
        self.ex.calls.append(CallSite(self.ex.fresh("C"), self.method.id, target.id, receiver,
                                      ordinal, tuple(passes), self.owner.src))
