"""Recursive-descent parser for MiniLang.

The grammar is deliberately small: no generics, no lambdas, overloads
distinguished by arity only.  Parsing either yields a full tree or raises
:class:`MiniLangSyntaxError` with one error diagnostic at the first
offending token; no other exception escapes on arbitrary input.
"""

from __future__ import annotations

from .ast import (
    Assign,
    BinaryExpr,
    CallExpr,
    CompilationUnit,
    ExprStmt,
    FieldNode,
    IfStmt,
    Literal,
    LocalDecl,
    MethodNode,
    MiniLangSyntaxError,
    Name,
    NewExpr,
    Param,
    Position,
    ReturnStmt,
    Stmt,
    Super,
    This,
    ThrowStmt,
    TryStmt,
    TypeNode,
)
from .lexer import Token, tokenize

_VISIBILITIES = ("public", "protected", "private")
_LITERALS = ("null", "true", "false")


def parse(text: str, source: str = "") -> CompilationUnit:
    """Parse MiniLang source into a tree; raises :class:`MiniLangSyntaxError`
    at the first error."""
    parser = _Parser(tokenize(text))
    try:
        unit = parser.parse_unit()
    except RecursionError:
        raise MiniLangSyntaxError(Position(1, 1), "input nests too deeply") from None
    unit.source = source
    return unit


#: Token kinds whose value is their tag, the only tokens :meth:`_Parser.at` matches.
_TAGGED = ("keyword", "punct", "op")
#: The furthest lookahead (``at("=", 2)``); the parser's token list ends in
#: this many extra copies of the eof token, so no index needs clamping.
_LOOKAHEAD = 2


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens + tokens[-1:] * _LOOKAHEAD
        self.tags = [tok.value if tok.kind in _TAGGED else None for tok in self.tokens]
        self.index = 0
        self.anonymous: list[TypeNode] = []  # of the method body being parsed

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.index + offset]

    def next(self) -> Token:
        tok = self.tokens[self.index]
        if tok.kind != "eof":
            self.index += 1
        return tok

    def at(self, value: str, offset: int = 0) -> bool:
        return self.tags[self.index + offset] == value

    def expect(self, value: str) -> Token:
        tok = self.tokens[self.index]
        if self.tags[self.index] != value:
            raise MiniLangSyntaxError(tok.pos, f"expected {value!r}, found {tok.value!r}")
        self.index += 1  # a tagged token, so not the eof
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise MiniLangSyntaxError(tok.pos, f"expected {what}, found {tok.value!r}")
        return self.next()

    def fail(self, message: str) -> MiniLangSyntaxError:
        return MiniLangSyntaxError(self.peek().pos, message)

    def visibility(self, default: str = "package") -> str:
        """Consume an optional visibility keyword; ``default`` when absent."""
        tag = self.tags[self.index]
        if tag in _VISIBILITIES:
            self.index += 1
            return tag
        return default

    def names(self, what: str) -> list[str]:
        """One identifier, then one more after each comma."""
        names = [self.expect_ident(what).value]
        while self.at(","):
            self.next()
            names.append(self.expect_ident(what).value)
        return names

    # -- declarations ------------------------------------------------------

    def parse_unit(self) -> CompilationUnit:
        unit = CompilationUnit()
        while not self.peek().kind == "eof":
            unit.types.append(self.parse_type_decl())
        return unit

    def parse_type_decl(self) -> TypeNode:
        self.visibility()  # accepted on a top-level type and ignored
        if self.at("class"):
            return self.parse_class()
        if self.at("interface"):
            return self.parse_interface()
        raise self.fail(f"expected type declaration, found {self.peek().value!r}")

    def parse_class(self) -> TypeNode:
        start = self.expect("class")
        name = self.expect_ident("class name")
        node = TypeNode(pos=start.pos, name=name.value, kind="class")
        if self.at("extends"):
            self.next()
            node.supertypes.append(self.expect_ident("superclass name").value)
        if self.at("implements"):
            self.next()
            node.supertypes += self.names("interface name")
        self.expect("{")
        while not self.at("}"):
            self.parse_member(node)
        self.expect("}")
        return node

    def parse_interface(self) -> TypeNode:
        start = self.expect("interface")
        name = self.expect_ident("interface name")
        node = TypeNode(pos=start.pos, name=name.value, kind="interface")
        if self.at("extends"):
            self.next()
            node.supertypes = self.names("interface name")
        self.expect("{")
        while not self.at("}"):
            # A member is a bodiless signature, public unless it says otherwise.
            vis = self.visibility("public")
            ret = self.expect_ident("return type")
            member = self.expect_ident("method name")
            method = MethodNode(visibility=vis, return_type=ret.value, name=member.value)
            node.methods.append(self.finish_method(method, body=False))
        self.expect("}")
        return node

    def parse_member(self, node: TypeNode):
        vis = self.visibility()
        if self.at("class"):
            node.nested.append(self.parse_class())
            return
        if self.at("interface"):
            node.nested.append(self.parse_interface())
            return

        is_static = False
        abstract_at = None  # the position of the last ``abstract``
        while self.at("static") or self.at("abstract"):
            if self.at("static"):
                is_static = True
            else:
                abstract_at = self.peek().pos
            self.next()
        is_abstract = abstract_at is not None

        first = self.expect_ident("type or constructor name")
        if self.at("("):
            if first.value != node.name:
                raise MiniLangSyntaxError(
                    first.pos,
                    f"constructor name {first.value!r} does not match class {node.name!r}",
                )
            if is_abstract:
                raise MiniLangSyntaxError(abstract_at, "constructors cannot be abstract")
            method = MethodNode(visibility=vis, return_type="void", name=first.value,
                                is_static=is_static, is_constructor=True)
        else:
            second = self.expect_ident("member name")
            if not self.at("("):
                # ``static`` on a field is accepted and not recorded.
                self.expect(";")
                node.fields.append(FieldNode(vis, first.value, second.value))
                return
            method = MethodNode(visibility=vis, return_type=first.value, name=second.value,
                                is_static=is_static, is_abstract=is_abstract)
        node.methods.append(self.finish_method(method))

    def finish_method(self, method: MethodNode, body: bool = True) -> MethodNode:
        """Parse ``method``'s parameters, throws clause and body, or the ``;``
        that makes it abstract; ``body=False`` refuses a body, and a
        constructor needs one."""
        self.expect("(")
        if not self.at(")"):
            while True:
                ptype = self.expect_ident("parameter type")
                pname = self.expect_ident("parameter name")
                method.params.append(Param(ptype.value, pname.value))
                if not self.at(","):
                    break
                self.next()
        self.expect(")")
        if self.at("throws"):
            self.next()
            method.throws = self.names("exception name")
        if self.at(";"):
            if method.is_constructor:
                raise self.fail("constructors need a body")
            self.next()
            method.is_abstract = True
        elif not body:
            raise self.fail("interface methods cannot have bodies")
        elif method.is_abstract:
            raise self.fail("abstract methods cannot have bodies")
        else:
            outer, self.anonymous = self.anonymous, []
            method.body = self.parse_block()
            method.anonymous, self.anonymous = tuple(self.anonymous), outer
        return method

    # -- statements --------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if self.at("return"):
            self.next()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return ReturnStmt(value)
        if self.at("throw"):
            self.next()
            value = self.parse_expr()
            self.expect(";")
            return ThrowStmt(value)
        if self.at("if"):
            self.next()
            self.expect("(")
            cond = self.parse_expr()
            self.expect(")")
            then_body = self.parse_block()
            else_body = None
            if self.at("else"):
                self.next()
                else_body = self.parse_block()
            return IfStmt(cond, then_body, else_body)
        if self.at("try"):
            self.next()
            body = self.parse_block()
            self.expect("catch")
            self.expect("(")
            exc_type = self.expect_ident("exception type").value
            exc_name = self.expect_ident("exception variable").value
            self.expect(")")
            handler = self.parse_block()
            return TryStmt(body, exc_type, exc_name, handler)
        if tok.kind == "ident" and self.peek(1).kind == "ident" and self.at("=", 2):
            declared_type = self.next().value
            name = self.next().value
            self.expect("=")
            init = self.parse_expr()
            self.expect(";")
            return LocalDecl(declared_type, name, init)
        if tok.kind == "ident" and self.at("=", 1):
            self.next()
            self.expect("=")
            value = self.parse_expr()
            self.expect(";")
            return Assign(value)
        expr = self.parse_expr()
        self.expect(";")
        return ExprStmt(expr)

    # -- expressions --------------------------------------------------------

    def parse_expr(self):
        left = self.parse_postfix()
        if self.at("==") or self.at("!="):
            self.next()
            return BinaryExpr(left, self.parse_postfix())
        return left

    def parse_postfix(self):
        expr = self.parse_primary()
        while self.at("."):
            self.next()
            name = self.expect_ident("method name")
            self.expect("(")
            args = self.parse_args()
            self.expect(")")
            expr = CallExpr(name.pos, expr, name.value, args)
        return expr

    def parse_args(self):
        args = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if not self.at(","):
                    break
                self.next()
        return args

    def parse_primary(self):
        tok = self.peek()
        if self.at("new"):
            self.next()
            type_name = self.expect_ident("type name")
            self.expect("(")
            args = self.parse_args()
            self.expect(")")
            body = None
            if self.at("{"):
                body = self.parse_anon_body(type_name.value)
            return NewExpr(type_name.value, args, body)
        if self.at("this"):
            self.next()
            return This()
        if self.at("super"):
            self.next()
            return Super()
        if tok.kind in ("int", "string") or self.tags[self.index] in _LITERALS:
            self.next()
            return Literal()
        if self.at("("):
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = self.parse_args()
                self.expect(")")
                return CallExpr(tok.pos, None, tok.value, args)
            return Name(tok.value)
        raise self.fail(f"expected expression, found {tok.value!r}")

    def parse_anon_body(self, supertype: str) -> TypeNode:
        """The anonymous class of ``new T() { ... }``, also listed on its method."""
        holder = TypeNode(pos=self.peek().pos, name="", kind="class", supertypes=[supertype])
        self.expect("{")
        while not self.at("}"):
            self.parse_member(holder)
        self.expect("}")
        if holder.nested:
            raise self.fail("anonymous classes cannot declare nested types")
        self.anonymous.append(holder)
        return holder
