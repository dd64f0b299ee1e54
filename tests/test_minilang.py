import gc
import hashlib
import random
import weakref

from conftest import CORPUS, CORPUS_FILES, model_from_source
from oracles import invocation_count, tokenize_per_character

from sortweaver.minilang import ExtractError, MiniLangSyntaxError, extract_facts, parse
from sortweaver.minilang.lexer import tokenize
from sortweaver.model import ReceiverKind, load_records, records_of


def extract(text, source="inline.mini"):
    return extract_facts([parse(text, source)])


def syntax_error(text, source=""):
    """The diagnostic that ``parse`` raises for ``text``; None if it parses."""
    try:
        parse(text, source)
    except MiniLangSyntaxError as exc:
        return exc.diagnostic
    return None


def test_minimal_class():
    unit = parse("class A { public void f() { } }")
    assert len(unit.types) == 1
    assert unit.types[0].name == "A"
    method = unit.types[0].methods[0]
    assert method.name == "f" and method.body == []


def test_unbalanced_brace_is_a_single_error_diagnostic():
    diagnostic = syntax_error("class A { public void f() { }")
    assert diagnostic.severity == "error"
    assert diagnostic.pos.line == 1


def test_arbitrary_bytes_never_crash():
    for garbage in ["\x00\x01\x02", "class {{{{", "interface", "/*", '"open',
                    "class A extends extends B {}", "}}}}", "1 + 1",
                    "class A { void m() { x = ²; } }"]:
        assert syntax_error(garbage) is not None, garbage
    # int literals are kept as written, so their length is no limit
    assert syntax_error("class A { void m() { x = " + "9" * 5000 + "; } }") is None


def test_consistency_check_transcription_super_call_at_ordinal_one():
    text = """
    class DrawRuntimeException { }
    interface Command { void execute(); }
    class AbstractCommand implements Command {
        private DrawingView fView;
        public DrawingView view() { return fView; }
        public void execute() {
            if (view() == null) {
                throw new DrawRuntimeException();
            }
        }
    }
    class PasteCommand extends AbstractCommand {
        public void execute() {
            super.execute();
            doPaste();
        }
        private void doPaste() { }
    }
    class DrawingView { }
    """
    model = load_records(records_of(extract(text).records))
    paste = model.resolve_method("PasteCommand.execute")
    base = model.resolve_method("AbstractCommand.execute")
    supers = [
        c for c in model.calls_of(paste.id)
        if c.receiver.kind is ReceiverKind.SUPER
    ]
    assert len(supers) == 1
    assert supers[0].static_target == base.id
    assert supers[0].ordinal == 1
    # the guard records its view() call at the if statement's ordinal
    guard_calls = model.calls_of(base.id)
    assert [c.ordinal for c in guard_calls] == [1]
    assert base.direct_throws == ("DrawRuntimeException",)


def test_anonymous_class_gets_synthesized_name_and_enclosing():
    text = """
    class AbstractCommand { public void execute() { } }
    class DrawApplication {
        public void setup() {
            AbstractCommand c = new AbstractCommand() {
                public void execute() { print(); }
            };
        }
        public void print() { }
    }
    """
    model = load_records(records_of(extract(text).records))
    anon = model.type_by_name("DrawApplication$anon1")
    assert anon is not None and anon.is_anonymous
    assert model.types[anon.enclosing_type].qualified_name == "DrawApplication"
    base = model.type_by_name("AbstractCommand")
    assert anon.supertypes == (base.id,)
    # the anonymous execute() resolves print() against the lexical encloser
    anon_execute = [m for m in model.methods_of(anon.id)][0]
    target = model.calls_of(anon_execute.id)[0].static_target
    assert model.method_sig(target) == "DrawApplication.print()"


def test_anonymous_classes_are_numbered_in_the_order_their_bodies_close():
    # Arguments before the enclosing ``new ... {}``, a receiver before its
    # arguments, ``if`` before ``else``, ``try`` before ``catch``, and an
    # anonymous class's own anonymous classes under it.
    text = """
    interface Listener { void fire(); }
    class Base {
        Base() { }
        Base(Object o) { }
        Base make(Object o) { return this; }
        void take(Object a, Object b) { }
    }
    class Outer extends Base {
        Listener field;
        void m() {
            take(new Listener() { public void fire() {
                     new Base() { void g() { take(new Listener() { public void fire() { } }, null); } };
                 } },
                 new Base(new Listener() { public void fire() { } }) { });
            if (new Base() { }.make(new Listener() { public void fire() { } }) == null) {
                new Base(new Listener() { public void fire() { } });
            } else {
                field = new Listener() { public void fire() { } };
            }
            try {
                return new Base() { Base make(Object o) { return new Base() { }; } }
                    .make(new Listener() { public void fire() { } });
            } catch (Exception e) {
                throw new Problem(new Listener() { public void fire() { } });
            }
        }
        class Inner {
            void n() { Listener l = (new Listener() { public void fire() { } }); }
        }
    }
    """
    extraction = extract(text)
    types = [(r["id"], r["name"], r["encl"], r["super"])
             for r in records_of(extraction.records) if r["k"] == "type"]
    assert types == [
        ("T1", "Listener", None, []),
        ("T2", "Base", None, []),
        ("T3", "Outer", None, ["T2"]),
        ("T4", "Outer$anon1", "T3", ["T1"]),
        ("T5", "Outer$anon1$anon1", "T4", ["T2"]),
        ("T6", "Outer$anon1$anon1$anon1", "T5", ["T1"]),
        ("T7", "Outer$anon2", "T3", ["T1"]),
        ("T8", "Outer$anon3", "T3", ["T2"]),
        ("T9", "Outer$anon4", "T3", ["T2"]),
        ("T10", "Outer$anon5", "T3", ["T1"]),
        ("T11", "Outer$anon6", "T3", ["T1"]),
        ("T12", "Outer$anon7", "T3", ["T1"]),
        ("T13", "Outer$anon8", "T3", ["T2"]),
        ("T14", "Outer$anon8$anon1", "T13", ["T2"]),
        ("T15", "Outer$anon9", "T3", ["T1"]),
        ("T16", "Outer$anon10", "T3", ["T1"]),
        ("T17", "Outer.Inner", "T3", []),
        ("T18", "Outer.Inner$anon1", "T17", ["T1"]),
        ("XT1", "Problem", None, []),
    ]
    assert extraction.warnings == []


def _anonymous_calls(text):
    """(target signature, receiver kind) of each call in an anonymous class."""
    extraction = extract(text)
    model = load_records(records_of(extraction.records))
    calls = [c for c in model.calls.values()
             if model.types[model.methods[c.caller].owner].is_anonymous]
    return [(model.method_sig(c.static_target), c.receiver.kind.value) for c in calls], \
        [str(w) for w in extraction.warnings]


def test_anonymous_class_sees_the_enclosing_parameters_and_locals():
    text = """
    interface Listener { void fire(); }
    class Problem { public void report() { } }
    class A {
        void m(Listener p) {
            Listener q = p;
            new Listener() { public void fire() {
                p.fire(); q.fire(); new Listener() { public void fire() { p.fire(); } };
            } };
            try { q.fire(); } catch (Problem e) {
                new Listener() { public void fire() { e.report(); } };
            }
        }
    }
    """
    assert _anonymous_calls(text) == ([
        ("Listener.fire()", "local"),
        ("Listener.fire()", "local"),
        ("Listener.fire()", "local"),  # from an anonymous class in an anonymous class
        ("Problem.report()", "local"),
    ], [])


def test_anonymous_class_scope_shadowing_each_way():
    text = """
    interface Listener { void fire(); }
    class Helper { public void go() { } }
    class Other { public void go() { } }
    class Base { Helper p; }
    class A {
        private Helper h;
        void m(Listener p, Other o) {
            Other h = o;
            new Listener() { public void fire() { h.go(); } };
            new Base() { void f() { p.go(); } };
        }
    }
    """
    # the enclosing local hides the enclosing class's field; the anonymous
    # class's inherited field hides the enclosing parameter
    assert _anonymous_calls(text) == ([
        ("Other.go()", "local"),
        ("Helper.go()", "field"),
    ], [])


def test_throws_clause_recorded():
    text = """
    class IOErr { }
    class Reader {
        public void read() throws IOErr { parse(); }
        public void parse() throws IOErr { throw new IOErr(); }
    }
    """
    model = load_records(records_of(extract(text).records))
    read = model.resolve_method("Reader.read")
    assert read.declared_throws == ("IOErr",)
    parse_m = model.resolve_method("Reader.parse")
    assert parse_m.direct_throws == ("IOErr",)


def test_unknown_call_target_becomes_external_stub_with_warning():
    text = """
    class A {
        private Widget fW;
        public void f() { fW.spin(); }
    }
    """
    extraction = extract(text)
    assert any("spin" in w.message for w in extraction.warnings)
    model = load_records(records_of(extraction.records))
    widget = model.type_by_name("Widget")
    assert widget is not None and widget.is_external
    stub = [m for m in model.methods_of(widget.id)]
    assert stub and stub[0].is_external and stub[0].name == "spin"
    # the call is still recorded against the stub
    caller = model.resolve_method("A.f")
    assert model.calls_of(caller.id)[0].static_target == stub[0].id


def test_external_stubs_are_typed_object_whatever_user_type_shares_the_name():
    text = """
    class Outer { class Object { } void run(Helper h) { h.help(); } }
    class Other { void go(Helper h) { h.assist(1); } }
    """
    records = list(records_of(extract(text).records))
    stubs = {r["name"]: (r["params"], r["ret"]) for r in records
             if r["k"] == "method" and r.get("ext")}
    assert stubs == {"help": ([], "Object"), "assist": (["Object"], "Object")}


def test_a_call_on_a_stub_result_looks_up_from_the_external_object():
    """A stub returns the literal ``Object``: the next call in the chain
    binds to a stub on the external ``Object``, not to a user type of that
    name where the call is."""
    text = """
    class Outer { class Object { void x() { } } void run(Helper h) { h.help().x(); } }
    class Other { void go(Helper h) { h.help().x(); } }
    """
    model = load_records(records_of(extract(text).records))
    for caller in ("Outer.run", "Other.go"):
        help_call, x_call = model.calls_of(model.resolve_method(caller).id)
        target = model.methods[x_call.static_target]
        owner = model.types[target.owner]
        assert (target.name, target.is_external) == ("x", True)
        assert (owner.qualified_name, owner.is_external) == ("Object", True)
    assert model.calls_to(model.resolve_method("Outer.Object.x").id) == ()


def test_names_resolve_by_unique_simple_name_and_bare_calls_through_enclosers():
    """A nested type named by its simple name from another type, a bare call
    bound two enclosing types out, and a call on a literal, which resolves
    to nothing and becomes an external stub."""
    text = """
    class Outer {
        void top() { }
        class Inner { void f() { } }
        class Middle { class Deep { void g() { top(); } } }
    }
    class User { void use(Inner x) { x.f(); "text".size(); } }
    """
    extraction = extract(text)
    assert [w.message for w in extraction.warnings] == [
        "cannot resolve method size/0 on <unknown>; recording an external stub"]
    model = load_records(records_of(extraction.records))
    use = model.resolve_method("User.use")
    assert use.param_types == ("Outer.Inner",)
    f_call, size_call = model.calls_of(use.id)
    assert f_call.static_target == model.resolve_method("Outer.Inner.f").id
    assert model.methods[size_call.static_target].is_external
    (top_call,) = model.calls_of(model.resolve_method("Outer.Middle.Deep.g").id)
    assert top_call.static_target == model.resolve_method("Outer.top").id


def test_duplicate_type_names_resolve_to_the_first_declaration():
    text = """
    class A { static void first() { } }
    class B { void go() { A.second(); A.first(); } }
    class A { static void second() { } }
    class Outer {
        class X { void a() { } }
        class X { X other; void b() { other.a(); } }
        void near(X x) { x.a(); x.b(); }
    }
    """
    extraction = extract(text)
    assert [w.message for w in extraction.warnings] == [
        "duplicate type name 'A'; references resolve to the first declaration",
        "duplicate type name 'Outer.X'; references resolve to the first declaration",
        "cannot resolve method second/0 on A; recording an external stub",
        "cannot resolve method b/0 on Outer.X; recording an external stub",
    ]
    model = load_records(records_of(extraction.records))
    first_a, _ = (t.id for t in model.types.values() if t.qualified_name == "A")
    first_x, _ = (t.id for t in model.types.values() if t.qualified_name == "Outer.X")

    def targets(caller):
        return [model.methods[c.static_target] for c in model.calls_of(caller.id)]

    second, first = targets(model.resolve_method("B.go"))
    assert second.is_external and first.owner == first_a
    # The nested name and the qualified name written for it agree.
    near = model.resolve_method("Outer.near")
    assert model.type_by_name(near.param_types[0]).id == first_x
    a, b = targets(near)
    assert a.owner == first_x and b.is_external
    # Inside the second Outer.X, its own name also means the first.
    (other_a,) = targets(model.methods[next(
        m.id for m in model.methods.values() if m.name == "b" and not m.is_external)])
    assert other_a == a


def test_receiver_classification():
    text = """
    class Helper { public void go() { } }
    class A {
        private Helper fHelper;
        public void f(Helper arg) {
            fHelper.go();
            arg.go();
            Helper local = makeHelper();
            local.go();
            this.touch();
            touch();
        }
        public void touch() { }
        private Helper makeHelper() { return fHelper; }
    }
    """
    model = load_records(records_of(extract(text).records))
    f = model.resolve_method("A.f")
    kinds = [c.receiver.kind.value for c in model.calls_of(f.id)]
    assert kinds == ["field", "param", "this", "local", "this", "this"]
    param_call = model.calls_of(f.id)[1]
    assert param_call.receiver.index == 0


def test_passthrough_pairs_recorded():
    text = """
    class Monitor { }
    class A {
        public void outer(Monitor m, int level) { inner(m); }
        public void inner(Monitor m) { }
    }
    """
    model = load_records(records_of(extract(text).records))
    outer = model.resolve_method("A.outer")
    assert model.calls_of(outer.id)[0].arg_passthrough == ((0, 0),)


def test_constructor_call_recorded_only_when_declared():
    text = """
    class WithCtor {
        public WithCtor() { init(); }
        public void init() { }
    }
    class Bare { }
    class User {
        public void f() {
            WithCtor a = new WithCtor();
            Bare b = new Bare();
        }
    }
    """
    model = load_records(records_of(extract(text).records))
    user = model.resolve_method("User.f")
    targets = [model.methods[c.static_target] for c in model.calls_of(user.id)]
    assert [t.is_constructor for t in targets] == [True]
    assert targets[0].owner == model.type_by_name("WithCtor").id


def test_nested_statement_ordinals_count_pre_order():
    text = """
    class A {
        public void f() {
            start();
            if (ready()) {
                work();
            } else {
                idle();
            }
            finish();
        }
        public void start() { }
        public boolean ready() { return true; }
        public void work() { }
        public void idle() { }
        public void finish() { }
    }
    """
    model = load_records(records_of(extract(text).records))
    f = model.resolve_method("A.f")
    assert f.body_stmt_count == 5
    by_name = {
        model.methods[c.static_target].name: c.ordinal for c in model.calls_of(f.id)
    }
    assert by_name == {"start": 1, "ready": 2, "work": 3, "idle": 4, "finish": 5}


def test_extraction_is_byte_stable():
    for name in CORPUS_FILES:
        text = (CORPUS / name).read_text()
        first = extract(text, name).to_jsonl()
        second = extract(text, name).to_jsonl()
        assert first == second


def test_every_corpus_file_loads_after_extraction():
    for name in CORPUS_FILES:
        extraction = extract_facts([parse((CORPUS / name).read_text(), name)])
        assert not extraction.warnings, (name, [str(w) for w in extraction.warnings])
        model = load_records(records_of(extraction.records))
        assert model.calls is not None


def test_call_record_count_matches_text_scan_per_corpus_file():
    for name in CORPUS_FILES:
        text = (CORPUS / name).read_text()
        records = records_of(extract(text, name).records)
        calls = sum(1 for r in records if r["k"] == "call")
        assert calls == invocation_count(text), name


def test_statement_counter_matches_parser_bodies():
    unit = parse(
        "class A { public void f() { a(); if (b()) { c(); } try { d(); } "
        "catch (E e) { g(); } } public void a() {} public boolean b() { return true; } "
        "public void c() {} public void d() {} public void g() {} }"
    )
    method = list(records_of(extract_facts([unit]).records))[1]
    assert (method["k"], method["name"]) == ("method", "f")
    # a(); if; c(); try; d(); g();  (try/catch is one statement)
    assert method["stmts"] == 6


# -- the tokenizer against the per-character scanner it replaced ------------------

_LEX_ALPHABET = ["²", "½", "Ⅻ", "١", "\x00", "\xa0", "\r", "\n", " ", "\t", '"', "//",
                 "/*", "*/", "a", "_", "é", "x1", "1", "07", "=", "!", "==", ".", "(",
                 ")", "{", "}", ";", ",", "class", "null", "*", "/"]


def _lexed(scan, text):
    try:
        return [(t.kind, t.value, t.pos.line, t.pos.col) for t in scan(text)]
    except MiniLangSyntaxError as exc:
        return ("error", exc.diagnostic.message, exc.diagnostic.pos.line, exc.diagnostic.pos.col)


def _digit_not_decimal(ch: str) -> bool:
    return ch.isdigit() and not ch.isdecimal()


def _lexer_inputs():
    rng = random.Random(8)
    sources = [(CORPUS / name).read_text() for name in CORPUS_FILES]
    yield from sources
    corpus = "".join(sources)
    points = [*range(0x800), *rng.sample(range(0x800, 0x110000), 3000)]
    for ch in map(chr, points):
        yield from (ch, "a" + ch, "1" + ch)
    for _ in range(3000):
        yield "".join(rng.choices(_LEX_ALPHABET, k=rng.randint(1, 30)))
    for _ in range(400):
        start = rng.randrange(len(corpus) - 300)
        text = corpus[start:start + 300]
        for _ in range(rng.randint(1, 4)):
            at = rng.randrange(len(text))
            cut = rng.choice((0, 1))  # insert, or replace one character
            text = text[:at] + rng.choice(_LEX_ALPHABET) + text[at + cut:]
        yield text


def test_tokenizer_matches_the_per_character_scanner():
    """Equal streams and errors, except where a digit that int() rejects
    (``²``, ``①``) made the old scanner emit an int token: there the new
    tokenizer stops with "unexpected character" at such a digit."""
    changed = 0
    for text in _lexer_inputs():
        old, new = _lexed(tokenize_per_character, text), _lexed(tokenize, text)
        if old == new:
            continue
        changed += 1
        assert any(map(_digit_not_decimal, text)), (text, old, new)
        kind, message, line, col = new
        assert kind == "error" and message.startswith("unexpected character"), (text, new)
        assert _digit_not_decimal(text.split("\n")[line - 1][col - 1]), (text, new)
    assert changed  # the one intended difference was exercised


def _type_nodes(units):
    """Every type node of the units: top-level, nested and anonymous."""
    nodes = [node for unit in units for node in unit.types]
    for node in nodes:  # ``nodes`` is also the queue
        nodes += node.nested
        nodes += [anon for method in node.methods for anon in method.anonymous]
    return nodes


#: Two supertype cycles: extraction refuses the first, A -> B -> A.  Each
#: cycle's types hold method bodies with anonymous classes, which a type
#: table left with a cycle would keep alive.
_TWO_CYCLES = """
class A extends B { class In { void f() { new A() { }; } } void m() { new B() { }; } }
class B extends A { }
class C extends D { void n() { new C() { void g() { new D() { }; } }; } }
class D extends C { }
"""


def test_extract_leaves_no_reference_cycles():
    # The corpus and the declaration source (nested and anonymous types),
    # then a refused supertype cycle: once the units and the result or the
    # error are dropped, reference counting alone must free every type node.
    sources = [((CORPUS / name).read_text(), name) for name in CORPUS_FILES]
    sources.append((_DECLARATION_SOURCE, "declarations.mini"))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        units = [parse(text, name) for text, name in sources]
        nodes = [weakref.ref(node) for node in _type_nodes(units)]
        assert sum(not ref().name for ref in nodes) == 4  # and 5 named nested types
        assert len(nodes) == sum(len(unit.types) for unit in units) + 9
        result = extract_facts(units)
        assert result.records
        del units, result
        assert [ref() for ref in nodes if ref() is not None] == []
        units = [parse(_TWO_CYCLES, "cycle.mini")]
        nodes = [weakref.ref(node) for node in _type_nodes(units)]
        assert len(nodes) == 9
        try:
            extract_facts(units)
        except ExtractError as exc:
            assert "cycle in supertype hierarchy: A -> B -> A" in str(exc)
        else:
            raise AssertionError("a supertype cycle extracted")
        del units
        assert [ref() for ref in nodes if ref() is not None] == []
    finally:
        gc.enable() if was_enabled else gc.disable()


# -- declarations: each path of the grammar, and a sweep over token mutants ------------


def _types(records):
    return [(r["id"], r["name"], r["kind"], r["abstract"], r["super"])
            for r in records if r["k"] == "type"]


def _methods(records):
    return [(r["owner"], r["name"], r["vis"], r["static"], r["abstract"], r["throws"])
            for r in records if r["k"] == "method"]


def test_interface_extends_a_list_and_its_members_take_a_visibility():
    records = list(records_of(extract(
        "interface A { void a(); } interface B { } interface C extends A, B {"
        " public void f(); protected int g(Object o); private void h(); void k(); }"
    ).records))
    assert _types(records) == [
        ("T1", "A", "interface", True, []),
        ("T2", "B", "interface", True, []),
        ("T3", "C", "interface", True, ["T1", "T2"]),
    ]
    assert _methods(records) == [
        ("T1", "a", "public", False, True, []),
        ("T3", "f", "public", False, True, []),
        ("T3", "g", "protected", False, True, []),
        ("T3", "h", "private", False, True, []),
        ("T3", "k", "public", False, True, []),
    ]
    assert [r["params"] for r in records if r["k"] == "method"] == [[], [], ["Object"], [], []]


def test_abstract_and_static_members_and_throws_lists():
    records = list(records_of(extract(
        "class X { } class Y { } class A { abstract void f(); public abstract int g();"
        " static abstract void h(); protected abstract void k();"
        " void t() throws X, Y { } void u() throws X, Y, Z; static int n; }"
    ).records))
    assert _types(records) == [
        ("T1", "X", "class", False, []),
        ("T2", "Y", "class", False, []),
        ("T3", "A", "class", True, []),
    ]
    assert _methods(records) == [
        ("T3", "f", "package", False, True, []),
        ("T3", "g", "public", False, True, []),
        ("T3", "h", "package", True, True, []),
        ("T3", "k", "protected", False, True, []),
        ("T3", "t", "package", False, False, ["X", "Y"]),
        ("T3", "u", "package", False, True, ["X", "Y", "Z"]),
    ]
    # ``static`` on a field is accepted and not recorded
    assert [r for r in records if r["k"] == "field"] == [
        {"k": "field", "id": "F1", "owner": "T3", "name": "n", "type": "int",
         "vis": "package", "src": "inline.mini"},
    ]


def test_a_top_level_type_may_carry_a_visibility():
    records = list(records_of(extract(
        "public class A { } private interface I { } protected class B extends A implements I { }"
    ).records))
    assert _types(records) == [
        ("T1", "A", "class", False, []),
        ("T2", "I", "interface", True, []),
        ("T3", "B", "class", False, ["T1", "T2"]),
    ]


def test_declaration_errors_stop_at_the_offending_token():
    cases = {
        "interface I {\n  void f() { }\n}": "error: 2:12: interface methods cannot have bodies",
        "class A {\n  abstract void f() { }\n}": "error: 2:21: abstract methods cannot have bodies",
        "class A { void m() { new A() { class In { } }; } }":
            "error: 1:46: anonymous classes cannot declare nested types",
        "class A { void m() { new A() { public interface In { } void g() { } }; } }":
            "error: 1:70: anonymous classes cannot declare nested types",
        "class A { public }": "error: 1:18: expected type or constructor name, found '}'",
        "class A { B() { } }": "error: 1:11: constructor name 'B' does not match class 'A'",
        "interface I extends A, { }": "error: 1:24: expected interface name, found '{'",
        "class A { void f() throws { } }": "error: 1:27: expected exception name, found '{'",
        "class C {\n  abstract C();\n}": "error: 2:3: constructors cannot be abstract",
        "class C { static abstract C() { } }": "error: 1:18: constructors cannot be abstract",
        "class C {\n  public C() throws E;\n}": "error: 2:22: constructors need a body",
    }
    for text, diagnostic in cases.items():
        assert str(syntax_error(text)) == diagnostic, text


_DECLARATION_SOURCE = """\
public interface Listener { void fire(); public void stop(Object why) throws Halt; }
interface Source extends Listener, Sink { protected Listener listener(); }
private interface Sink { void drain(int n, Object to); }
class Halt { }
class Fault extends Halt { }
protected class Base implements Listener, Sink {
    static int count;
    private Listener fOwner;
    public Base() { }
    Base(Listener owner) throws Halt, Fault { fOwner = owner; }
    public void fire() { fOwner.fire(); }
    public void stop(Object why) throws Halt { throw new Halt(); }
    public void drain(int n, Object to) { }
    abstract void reset();
    static abstract Base copy(Base from);
    public static Base make() { return new Base(); }
    public class Inner extends Base { void go() { fire(); } }
    interface Local extends Listener { }
    private class Holder { Listener held; }
}
class Use extends Base implements Source {
    public Listener listener() {
        Listener l = new Listener() {
            private Base fBase;
            public void fire() { fBase.fire(); }
            public void stop(Object why) { }
        };
        try { make().stop(l); } catch (Halt h) { fire(); }
        return new Base(l) { void reset() { } };
    }
}
"""

_MUTATION_WORDS = ("class", "interface", "extends", "implements", "public", "private",
                   "static", "abstract", "throws", "new", "A", "I", ",", ";", "{", "}",
                   "(", ")", "=", ".")


def _token_mutant(rng, tokens):
    """Delete, insert, replace or swap one to two tokens; each keeps its line."""
    words = [(tok.pos.line, f'"{tok.value}"' if tok.kind == "string" else tok.value)
             for tok in tokens[:-1]]
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(words) - 1)
        line, word = words[at]
        op = rng.randrange(4)
        if op == 0:
            del words[at]
        elif op == 1:
            words.insert(at, (line, rng.choice(_MUTATION_WORDS)))
        elif op == 2:
            words[at] = (line, rng.choice(_MUTATION_WORDS))
        else:
            words[at], words[at + 1] = words[at + 1], words[at]
    lines: dict[int, list[str]] = {}
    for line, word in words:
        lines.setdefault(line, []).append(word)
    return "\n".join(" ".join(ws) for ws in lines.values())


#: sha256 over the outcomes of the declaration sweep: each mutant's first
#: diagnostic, or the sha256 of its facts and warnings.  A change that alters
#: a diagnostic or a fact on purpose updates it and says so in CHANGES.md.
DECLARATION_SWEEP_SHA256 = "b7203add468ed691690548947f64b1a540fefa54870e9cc30f6a6db5282b3479"


def test_declaration_sweep_over_token_mutants_is_pinned():
    rng = random.Random(14)
    sources = [tokenize((CORPUS / name).read_text()) for name in CORPUS_FILES]
    sources.append(tokenize(_DECLARATION_SOURCE))
    outcomes, parsed = [], 0
    for _ in range(500):
        text = _token_mutant(rng, rng.choice(sources))
        try:
            unit = parse(text, "mutant.mini")
        except MiniLangSyntaxError as exc:
            outcomes.append(str(exc.diagnostic))
            continue
        parsed += 1
        extraction = extract_facts([unit])
        facts = extraction.to_jsonl() + "".join(f"{w}\n" for w in extraction.warnings)
        outcomes.append(hashlib.sha256(facts.encode()).hexdigest())
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert 0 < parsed < len(outcomes)
    assert digest == DECLARATION_SWEEP_SHA256, (digest, parsed)


# -- end of stream: every prefix of the corpus that ends at a token ---------------------


def _token_ends(text):
    """The offset just past each token of ``text``, the eof token included."""
    line_starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"]
    for tok in tokenize(text):
        start = line_starts[tok.pos.line - 1] + tok.pos.col - 1
        yield start + len(tok.value) + (2 if tok.kind == "string" else 0)


#: sha256 over the outcomes of the truncation sweep: each prefix's first
#: diagnostic, or the sha256 of its facts and warnings.  It guards what the
#: parser reads when it looks past the last token (``peek(1)``,
#: ``at("=", 2)``): the eof token.  A change that alters a diagnostic or a
#: fact on purpose updates it and says so in CHANGES.md.
TRUNCATION_SWEEP_SHA256 = "ef85776b6b245278f9e824131bbb281b609faec5c9fdc6dd54fd4426d86865b3"


def test_truncation_sweep_over_corpus_prefixes_is_pinned():
    outcomes, parsed = [], 0
    for name in CORPUS_FILES:
        text = (CORPUS / name).read_text()
        for end in _token_ends(text):
            try:
                unit = parse(text[:end], name)
            except MiniLangSyntaxError as exc:
                outcomes.append(str(exc.diagnostic))
                continue
            parsed += 1
            extraction = extract_facts([unit])
            facts = extraction.to_jsonl() + "".join(f"{w}\n" for w in extraction.warnings)
            outcomes.append(hashlib.sha256(facts.encode()).hexdigest())
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert 0 < parsed < len(outcomes)
    assert digest == TRUNCATION_SWEEP_SHA256, (digest, parsed, len(outcomes))
