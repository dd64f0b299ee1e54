"""Round-trip oracle for the aspect renderer: parse canonical aspect text.

The library only writes aspect text; nothing in it reads the text back.
This parser exists so the tests can check that rendering a plan, parsing
the text and rendering again reproduces the exact bytes.
"""

from __future__ import annotations

from sortweaver.refactoring.aspect_text import (
    Advice,
    AndExpr,
    Args,
    AspectDoc,
    CallPattern,
    Cflow,
    CommentStanza,
    DeclareParents,
    DeclareSoft,
    Execution,
    IntroMethod,
    MovedClass,
    NotExpr,
    OrExpr,
    PointcutDef,
    PointcutExpr,
    PointcutRef,
    Stanza,
    ThisBinding,
    Within,
)


class AspectSyntaxError(ValueError):
    pass


def parse_expr(text: str) -> PointcutExpr:
    """Parse a pointcut expression in the canonical rendered form."""
    parser = _ExprParser(text)
    expr = parser.parse_or()
    parser.skip_ws()
    if not parser.done():
        raise AspectSyntaxError(f"trailing input in pointcut: {text[parser.pos:]!r}")
    return expr


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.text)

    def skip_ws(self):
        while not self.done() and self.text[self.pos] in " \t":
            self.pos += 1

    def eat(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def parse_or(self) -> PointcutExpr:
        terms = [self.parse_and()]
        while self.eat("||"):
            terms.append(self.parse_and())
        return terms[0] if len(terms) == 1 else OrExpr(tuple(terms))

    def parse_and(self) -> PointcutExpr:
        terms = [self.parse_unary()]
        while self.eat("&&"):
            terms.append(self.parse_unary())
        return terms[0] if len(terms) == 1 else AndExpr(tuple(terms))

    def parse_unary(self) -> PointcutExpr:
        if self.eat("!"):
            return NotExpr(self.parse_unary())
        self.skip_ws()
        if self.eat("("):
            inner = self.parse_or()
            if not self.eat(")"):
                raise AspectSyntaxError("unbalanced parenthesis in pointcut")
            return inner
        return self.parse_func()

    def parse_func(self) -> PointcutExpr:
        self.skip_ws()
        start = self.pos
        while not self.done() and (self.text[self.pos].isalnum() or self.text[self.pos] in "_$"):
            self.pos += 1
        name = self.text[start:self.pos]
        if not name:
            raise AspectSyntaxError(f"expected pointcut term at: {self.text[self.pos:]!r}")
        if not self.eat("("):
            raise AspectSyntaxError(f"expected '(' after {name!r}")
        content = self.balanced()
        if name == "execution":
            return _parse_member_pattern(content, execution=True)
        if name == "call":
            return _parse_member_pattern(content, execution=False)
        if name == "this":
            return ThisBinding(content.strip())
        if name == "within":
            return Within(content.strip())
        if name == "args":
            return Args(content.strip())
        if name == "cflow":
            return Cflow(parse_expr(content))
        args = tuple(a.strip() for a in content.split(",") if a.strip())
        return PointcutRef(name, args)

    def balanced(self) -> str:
        """Content up to the matching close paren; the paren is consumed."""
        depth = 1
        start = self.pos
        while not self.done():
            ch = self.text[self.pos]
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    content = self.text[start:self.pos]
                    self.pos += 1
                    return content
            self.pos += 1
        raise AspectSyntaxError("unbalanced parenthesis in pointcut")


def _parse_member_pattern(content: str, execution: bool) -> PointcutExpr:
    text = content.strip()
    throws = None
    open_paren = text.find("(")
    if open_paren == -1:
        raise AspectSyntaxError(f"bad member pattern: {content!r}")
    close_paren = text.find(")", open_paren)
    if close_paren == -1:
        raise AspectSyntaxError(f"bad member pattern: {content!r}")
    tail = text[close_paren + 1:].strip()
    if tail.startswith("throws "):
        throws = tail[len("throws "):].strip()
    elif tail:
        raise AspectSyntaxError(f"unexpected trailer in member pattern: {tail!r}")
    params = text[open_paren + 1:close_paren]
    head = text[:open_paren]
    try:
        ret, member = head.split(" ", 1)
    except ValueError:
        raise AspectSyntaxError(f"member pattern needs a return type: {content!r}") from None
    type_pattern, name = member.rsplit(".", 1)
    if execution:
        subtypes = type_pattern.endswith("+")
        if subtypes:
            type_pattern = type_pattern[:-1]
        return Execution(ret, type_pattern, name, params, subtypes)
    return CallPattern(ret, type_pattern, name, params, throws)


def parse_aspect(text: str) -> AspectDoc:
    """Parse canonical aspect text back into a document."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("public aspect ") or not lines[0].endswith(" {"):
        raise AspectSyntaxError("missing aspect header")
    name = lines[0][len("public aspect "):-len(" {")]
    if not name.isidentifier():
        raise AspectSyntaxError(f"aspect name {name!r} is not an identifier")
    if not lines[-1] == "}":
        raise AspectSyntaxError("missing closing brace")
    body = [_dedent(line, 4) for line in lines[1:-1]]
    stanzas: list[Stanza] = []
    index = 0
    while index < len(body):
        line = body[index]
        if line == "":
            index += 1
            continue
        stanza, index = _parse_stanza(body, index)
        stanzas.append(stanza)
    return AspectDoc(name, tuple(stanzas))


def _dedent(line: str, width: int) -> str:
    if line == "":
        return ""
    if line.startswith(" " * width):
        return line[width:]
    raise AspectSyntaxError(f"bad indentation: {line!r}")


def _capture_block(body: list[str], index: int) -> tuple[tuple[str, ...], int]:
    block: list[str] = []
    while index < len(body):
        line = body[index]
        if line == "}":
            return tuple(block), index + 1
        block.append(_dedent(line, 4))
        index += 1
    raise AspectSyntaxError("unterminated block")


def _split_params(text: str) -> tuple[tuple[str, str], ...]:
    params = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            ptype, pvar = chunk.rsplit(" ", 1)
        except ValueError:
            raise AspectSyntaxError(f"bad parameter: {chunk!r}") from None
        params.append((ptype, pvar))
    return tuple(params)


def _parse_stanza(body: list[str], index: int) -> tuple[Stanza, int]:
    line = body[index]

    if line.startswith("//") :
        comments = []
        while index < len(body) and body[index].startswith("//"):
            text = body[index][2:]
            comments.append(text[1:] if text.startswith(" ") else text)
            index += 1
        return CommentStanza(tuple(comments)), index

    if line.startswith("declare parents : ") and line.endswith(";"):
        inner = line[len("declare parents : "):-1]
        type_name, role = inner.split(" implements ")
        return DeclareParents(type_name.strip(), role.strip()), index + 1

    if line.startswith("declare soft : ") and line.endswith(";"):
        inner = line[len("declare soft : "):-1]
        exception, rest = inner.split(" : ", 1)
        rest = rest.strip()
        if not (rest.startswith("(") and rest.endswith(")")):
            raise AspectSyntaxError(f"declare soft pointcut must be parenthesized: {line!r}")
        return DeclareSoft(exception.strip(), parse_expr(rest[1:-1])), index + 1

    if line.startswith("pointcut "):
        rest = line[len("pointcut "):]
        open_paren = rest.index("(")
        name = rest[:open_paren]
        close_paren = rest.index(")", open_paren)
        params = _split_params(rest[open_paren + 1:close_paren])
        after = rest[close_paren + 1:].strip()
        if not after.startswith(":"):
            raise AspectSyntaxError(f"bad pointcut definition: {line!r}")
        after = after[1:].strip()
        if after:
            if not after.endswith(";"):
                raise AspectSyntaxError(f"missing ';' in pointcut: {line!r}")
            return PointcutDef(name, params, parse_expr(after[:-1])), index + 1
        terms = []
        index += 1
        while index < len(body):
            part = _dedent(body[index], 4)
            done = part.endswith(";")
            if done:
                part = part[:-1]
            if part.startswith("&& "):
                part = part[len("&& "):]
            terms.append(parse_expr(part))
            index += 1
            if done:
                return PointcutDef(name, params, AndExpr(tuple(terms))), index
        raise AspectSyntaxError("unterminated pointcut definition")

    if line.startswith("public static class ") and line.endswith(" {"):
        head = line[len("public static class "):-len(" {")]
        if " extends " in head:
            name, extends = head.split(" extends ")
        else:
            name, extends = head, None
        block, index = _capture_block(body, index + 1)
        return MovedClass(name.strip(), extends.strip() if extends else None, block), index

    for kind in ("before", "after", "around"):
        marker = f"{kind}("
        at = line.find(marker)
        if at == -1:
            continue
        prefix = line[:at].strip()
        if prefix and kind != "around":
            continue
        if not line.endswith(" {"):
            continue
        close_paren = line.index(")", at)
        params = _split_params(line[at + len(marker):close_paren])
        after = line[close_paren + 1:-len(" {")].strip()
        if not after.startswith(":"):
            continue
        expr = parse_expr(after[1:].strip())
        block, index = _capture_block(body, index + 1)
        return Advice(kind, prefix or None, params, expr, block), index

    if line.endswith(" {") and "(" in line:
        head = line[:-len(" {")]
        open_paren = head.index("(")
        if not head.endswith(")"):
            raise AspectSyntaxError(f"bad member stanza: {line!r}")
        params = head[open_paren + 1:-1]
        before = head[:open_paren]
        parts = before.split(" ")
        if len(parts) == 3 and "." in parts[2]:
            owner, mname = parts[2].rsplit(".", 1)
            block, index = _capture_block(body, index + 1)
            return IntroMethod(parts[0], parts[1], owner, mname, params, block), index

    raise AspectSyntaxError(f"unrecognized stanza: {line!r}")
