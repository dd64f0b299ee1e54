"""Syntax tree for the MiniLang frontend.

MiniLang is a compact Java-like language: classes and interfaces with
single-name types, fields, methods with throws clauses, nested and
anonymous classes, and a statement set just rich enough to express
delegation, pass-through parameters, guarded bodies and exception
propagation.  A node keeps only what the extractor reads: a type and a call
carry their source position, for the warnings that name them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class Position(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    pos: Position
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: {self.pos}: {self.message}"


class MiniLangSyntaxError(Exception):
    """The first lexical or syntax error of a source, as an error
    diagnostic at the offending token."""

    def __init__(self, pos: Position, message: str):
        self.diagnostic = Diagnostic("error", pos, message)
        super().__init__(str(self.diagnostic))


# -- expressions -------------------------------------------------------------


class Expr:
    """Base of the expression nodes."""


@dataclass
class Name(Expr):
    value: str


@dataclass
class This(Expr):
    pass


@dataclass
class Super(Expr):
    pass


@dataclass
class Literal(Expr):
    pass


@dataclass
class CallExpr(Expr):
    pos: Position
    receiver: Expr | None  # None for a bare call
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class NewExpr(Expr):
    type_name: str
    args: list[Expr] = field(default_factory=list)
    body: "TypeNode | None" = None  # the anonymous class, when present


@dataclass
class BinaryExpr(Expr):  # == or !=
    left: Expr
    right: Expr


# -- statements ---------------------------------------------------------------


class Stmt:
    """Base of the statement nodes."""


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class LocalDecl(Stmt):
    declared_type: str
    name: str
    init: Expr


@dataclass
class Assign(Stmt):
    value: Expr


@dataclass
class ReturnStmt(Stmt):
    value: Expr | None


@dataclass
class ThrowStmt(Stmt):
    value: Expr


@dataclass
class IfStmt(Stmt):
    cond: Expr
    then_body: list[Stmt] = field(default_factory=list)
    else_body: list[Stmt] | None = None


@dataclass
class TryStmt(Stmt):
    body: list[Stmt] = field(default_factory=list)
    exc_type: str = ""
    exc_name: str = ""
    handler: list[Stmt] = field(default_factory=list)


# -- declarations --------------------------------------------------------------


@dataclass
class Param:
    declared_type: str
    name: str


@dataclass
class FieldNode:
    visibility: str
    declared_type: str
    name: str


@dataclass
class MethodNode:
    visibility: str
    return_type: str
    name: str
    params: list[Param] = field(default_factory=list)
    throws: list[str] = field(default_factory=list)
    body: list[Stmt] | None = None  # None for abstract methods and signatures
    is_static: bool = False
    is_abstract: bool = False
    is_constructor: bool = False
    # Anonymous classes in the body, in the order their bodies close.
    anonymous: tuple["TypeNode", ...] = ()


@dataclass
class TypeNode:
    pos: Position
    name: str
    kind: str  # "class" | "interface"
    supertypes: list[str] = field(default_factory=list)  # as written, extends first
    fields: list[FieldNode] = field(default_factory=list)
    methods: list[MethodNode] = field(default_factory=list)
    nested: list["TypeNode"] = field(default_factory=list)


@dataclass
class CompilationUnit:
    types: list[TypeNode] = field(default_factory=list)
    source: str = ""  # file name the unit was parsed from
