"""Syntax tree for the MiniLang frontend.

MiniLang is a compact Java-like language: classes and interfaces with
single-name types, fields, methods with throws clauses, nested and
anonymous classes, and a statement set just rich enough to express
delegation, pass-through parameters, guarded bodies and exception
propagation.  A node keeps only what the extractor reads: a type and a call
carry their source position, for the warnings that name them.
"""

from __future__ import annotations

from typing import NamedTuple

from .._util import TYPED_EQUALITY, Record


class Position(NamedTuple):
    line: int
    col: int
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


class Diagnostic(NamedTuple):
    severity: str  # "error" | "warning"
    pos: Position
    message: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def __str__(self) -> str:
        return f"{self.severity}: {self.pos}: {self.message}"


class MiniLangSyntaxError(Exception):
    """The first lexical or syntax error of a source, as an error
    diagnostic at the offending token."""

    def __init__(self, pos: Position, message: str):
        self.diagnostic = Diagnostic("error", pos, message)
        super().__init__(str(self.diagnostic))


# -- expressions -------------------------------------------------------------
#
# A node that has no field is a ``Record``, as an empty tuple would be false.


class Name(NamedTuple):
    value: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class This(Record):
    __slots__ = ()


class Super(Record):
    __slots__ = ()


class Literal(Record):
    __slots__ = ()


class CallExpr(NamedTuple):
    pos: Position
    receiver: Expr | None  # None for a bare call
    name: str
    args: list[Expr]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class NewExpr(NamedTuple):
    type_name: str
    args: list[Expr]
    body: TypeNode | None  # the anonymous class, when present
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class BinaryExpr(NamedTuple):  # == or !=
    left: Expr
    right: Expr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


Expr = Name | This | Super | Literal | CallExpr | NewExpr | BinaryExpr


# -- statements ---------------------------------------------------------------


class ExprStmt(NamedTuple):
    expr: Expr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class LocalDecl(NamedTuple):
    declared_type: str
    name: str
    init: Expr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class Assign(NamedTuple):
    value: Expr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class ReturnStmt(NamedTuple):
    value: Expr | None
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class ThrowStmt(NamedTuple):
    value: Expr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class IfStmt(NamedTuple):
    cond: Expr
    then_body: list[Stmt]
    else_body: list[Stmt] | None
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class TryStmt(NamedTuple):
    body: list[Stmt]
    exc_type: str
    exc_name: str
    handler: list[Stmt]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


Stmt = ExprStmt | LocalDecl | Assign | ReturnStmt | ThrowStmt | IfStmt | TryStmt


# -- declarations --------------------------------------------------------------
#
# The parser fills a unit, a type and a method in as it reads them, so they
# are ``Record``s.


class Param(NamedTuple):
    declared_type: str
    name: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class FieldNode(NamedTuple):
    visibility: str
    declared_type: str
    name: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class MethodNode(Record):
    __slots__ = ("visibility", "return_type", "name", "params", "throws", "body",
                 "is_static", "is_abstract", "is_constructor", "anonymous")

    def __init__(self, visibility: str, return_type: str, name: str,
                 params: list[Param] | None = None, throws: list[str] | None = None,
                 body: list[Stmt] | None = None, is_static: bool = False,
                 is_abstract: bool = False, is_constructor: bool = False,
                 anonymous: tuple[TypeNode, ...] = ()):
        self.visibility = visibility
        self.return_type = return_type
        self.name = name
        self.params = [] if params is None else params
        self.throws = [] if throws is None else throws
        self.body = body  # None for abstract methods and signatures
        self.is_static = is_static
        self.is_abstract = is_abstract
        self.is_constructor = is_constructor
        # Anonymous classes in the body, in the order their bodies close.
        self.anonymous = anonymous


class TypeNode(Record):
    __slots__ = ("pos", "name", "kind", "supertypes", "fields", "methods", "nested")

    def __init__(self, pos: Position, name: str, kind: str,
                 supertypes: list[str] | None = None, fields: list[FieldNode] | None = None,
                 methods: list[MethodNode] | None = None, nested: list[TypeNode] | None = None):
        self.pos = pos
        self.name = name
        self.kind = kind  # "class" | "interface"
        self.supertypes = [] if supertypes is None else supertypes  # as written, extends first
        self.fields = [] if fields is None else fields
        self.methods = [] if methods is None else methods
        self.nested = [] if nested is None else nested


class CompilationUnit(Record):
    __slots__ = ("types", "source")

    def __init__(self, types: list[TypeNode] | None = None, source: str = ""):
        self.types = [] if types is None else types
        self.source = source  # file name the unit was parsed from
