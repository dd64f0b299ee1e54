"""Aspect plan text: pointcut expressions, document stanzas and their renderer.

The tool writes aspect text and never reads it back.  The text is small and
canonical: the round-trip tests parse it (``tests/aspect_parser.py``) and
check that rendering the result again reproduces the exact bytes.  Pointcut
expressions are a composable algebra (execution, call, this, within, args,
cflow, named references, and/or/not), and every advice or member body
is an opaque list of comment lines.
"""

from __future__ import annotations

from typing import NamedTuple

from .._util import TYPED_EQUALITY


# -- pointcut expressions -----------------------------------------------------


class Execution(NamedTuple):
    ret: str
    type_pattern: str
    name: str
    params: str = ""
    subtypes: bool = False
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        plus = "+" if self.subtypes else ""
        return f"execution({self.ret} {self.type_pattern}{plus}.{self.name}({self.params}))"


class CallPattern(NamedTuple):
    ret: str
    type_pattern: str
    name: str
    params: str = ".."
    throws: str | None = None
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        text = f"{self.ret} {self.type_pattern}.{self.name}({self.params})"
        if self.throws:
            text += f" throws {self.throws}"
        return f"call({text})"


class ThisBinding(NamedTuple):
    var: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return f"this({self.var})"


class Within(NamedTuple):
    pattern: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return f"within({self.pattern})"


class Args(NamedTuple):
    pattern: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return f"args({self.pattern})"


class Cflow(NamedTuple):
    inner: "PointcutExpr"
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return f"cflow({self.inner.render()})"


class PointcutRef(NamedTuple):
    name: str
    args: tuple[str, ...] = ()
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return f"{self.name}({', '.join(self.args)})"


class NotExpr(NamedTuple):
    term: "PointcutExpr"
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        inner = self.term.render()
        if isinstance(self.term, (AndExpr, OrExpr)):
            inner = f"({inner})"
        return f"!{inner}"


def _conjunct(term: "PointcutExpr") -> str:
    """A term's text under ``&&``: a disjunction goes in parentheses."""
    text = term.render()
    return f"({text})" if isinstance(term, OrExpr) else text


class AndExpr(NamedTuple):
    terms: tuple["PointcutExpr", ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return " && ".join(map(_conjunct, self.terms))


class OrExpr(NamedTuple):
    terms: tuple["PointcutExpr", ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        return " || ".join(t.render() for t in self.terms)


PointcutExpr = (
    Execution | CallPattern | ThisBinding | Within | Args
    | Cflow | PointcutRef | NotExpr | AndExpr | OrExpr
)


# -- stanzas --------------------------------------------------------------------


class MovedClass(NamedTuple):
    name: str
    extends: str | None
    body: tuple[str, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        heritage = f" extends {self.extends}" if self.extends else ""
        lines = [f"public static class {self.name}{heritage} {{"]
        lines.extend(f"    {line}" for line in self.body)
        lines.append("}")
        return lines


class DeclareParents(NamedTuple):
    type_name: str
    role: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        return [f"declare parents : {self.type_name} implements {self.role};"]


class IntroMethod(NamedTuple):
    visibility: str
    ret: str
    owner: str
    name: str
    params: str
    body: tuple[str, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        lines = [f"{self.visibility} {self.ret} {self.owner}.{self.name}({self.params}) {{"]
        lines.extend(f"    {line}" for line in self.body)
        lines.append("}")
        return lines


class DeclareSoft(NamedTuple):
    exception: str
    pointcut: PointcutExpr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        return [f"declare soft : {self.exception} : ({self.pointcut.render()});"]


class PointcutDef(NamedTuple):
    name: str
    params: tuple[tuple[str, str], ...]  # (type, var)
    expr: PointcutExpr
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        params = ", ".join(f"{t} {v}" for t, v in self.params)
        head = f"pointcut {self.name}({params}) :"
        if isinstance(self.expr, AndExpr) and len(self.expr.terms) > 1:
            first, *rest = map(_conjunct, self.expr.terms)
            lines = [head, f"    {first}", *(f"    && {text}" for text in rest)]
            lines[-1] += ";"
            return lines
        return [f"{head} {self.expr.render()};"]


class Advice(NamedTuple):
    kind: str  # before | after | around
    ret: str | None  # present for around only
    params: tuple[tuple[str, str], ...]
    pointcut: PointcutExpr
    body: tuple[str, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        params = ", ".join(f"{t} {v}" for t, v in self.params)
        prefix = f"{self.ret} " if self.ret else ""
        lines = [f"{prefix}{self.kind}({params}) : {self.pointcut.render()} {{"]
        lines.extend(f"    {line}" for line in self.body)
        lines.append("}")
        return lines


class CommentStanza(NamedTuple):
    lines: tuple[str, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> list[str]:
        return [f"// {line}" if line else "//" for line in self.lines]


Stanza = (
    MovedClass | DeclareParents | IntroMethod | DeclareSoft
    | PointcutDef | Advice | CommentStanza
)


class AspectDoc(NamedTuple):
    name: str
    stanzas: tuple[Stanza, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def render(self) -> str:
        lines = [f"public aspect {self.name} {{"]
        for stanza in self.stanzas:
            lines.append("")
            lines.extend(f"    {line}" if line else "" for line in stanza.render())
        lines.append("}")
        return "\n".join(lines) + "\n"


def render_doc(doc: AspectDoc) -> str:
    return doc.render()
