"""Trigger / non-trigger scenario pairs for every risk-catalog code.

Each scenario builds a plan (or plan set) and returns the warning codes it
carries.  ``SCENARIOS`` holds one (code, trigger, absent) row per catalog
code; both the catalog test module and the acceptance suite iterate it, so
the 15 x 2 pairing is enforced in one place.
"""

from __future__ import annotations

from functools import lru_cache

from conftest import CORPUS, corpus_model, model_from_source

from sortweaver.queries import (
    query_cb,
    query_ec,
    query_ep,
    query_rl,
    query_rsi,
    query_sc,
)
from sortweaver.refactoring import (
    check_precedence,
    plan_for,
)


@lru_cache(maxsize=None)
def _corpus(name):
    return corpus_model(name)


@lru_cache(maxsize=None)
def _inline(text, source="inline.mini"):
    return model_from_source(text, source)


def _codes(plan) -> set[str]:
    return {w.code for w in plan.warnings}


# -- plan builders ------------------------------------------------------------------


def consistency_plan():
    model = _corpus("command")
    return plan_for(model, query_cb(model, "AbstractCommand.execute", "AbstractCommand"))


def notify_plan():
    model = _corpus("command")
    return plan_for(model, query_cb(model, "DrawingView.checkDamage", "Command"))


def undo_setup_plan():
    model = _corpus("undo")
    return plan_for(
        model, query_cb(model, "AbstractCommand.setUndoActivity", "PasteCommand")
    )


def undo_rsi_plan():
    model = _corpus("undo")
    return plan_for(model, query_rsi(model, "Undoable", "PasteCommand"))


def undo_sc_plan():
    model = _corpus("undo")
    return plan_for(model, query_sc(model, "PasteCommand"))


def pure_decorator_plan():
    model = _corpus("decorator")
    return plan_for(model, query_rl(model, "BorderDecorator", "Figure"))


_DECORATOR_EXTRA = """
interface Figure { void draw(); void moveBy(int dx, int dy); }
class Observer { }
class RectangleFigure implements Figure {
    public void draw() { }
    public void moveBy(int dx, int dy) { }
}
class BorderDecorator implements Figure {
    private Figure fInner;
    public void draw() { fInner.draw(); }
    public void moveBy(int dx, int dy) { fInner.moveBy(dx, dy); }
    public void addObserver(Observer o) { }
}
"""


def decorator_extra_roles_plan():
    model = _inline(_DECORATOR_EXTRA)
    return plan_for(model, query_rl(model, "BorderDecorator", "Figure"))


def decorator_direct_client_plan():
    text = (CORPUS / "decorator.mini").read_text() + """
class Canvas {
    private Figure fFigure;
    public void repaint() { fFigure.draw(); }
}
"""
    model = _inline(text, "decorator.mini")
    return plan_for(model, query_rl(model, "BorderDecorator", "Figure"))


def decorator_uncovered_receiver_plan():
    text = """
    class FigureBase {
        public void draw() { }
        public void moveBy(int dx, int dy) { }
        public void resize(int scale) { }
    }
    class BorderDecorator {
        private FigureBase fInner;
        public void draw() { fInner.draw(); }
        public void moveBy(int dx, int dy) { fInner.moveBy(dx, dy); }
    }
    """
    model = _inline(text)
    return plan_for(model, query_rl(model, "BorderDecorator", "FigureBase"))


def all_public_role_plan():
    text = """
    interface Storable { void write(); }
    class TextFigure implements Storable {
        public void write() { }
    }
    """
    model = _inline(text)
    return plan_for(model, query_rsi(model, "Storable", "*"))


def conflicting_role_plan():
    text = """
    interface Visitor { void visit(); }
    class Base { public void visit() { } }
    class Node extends Base implements Visitor {
        public void visit() { }
    }
    """
    model = _inline(text)
    return plan_for(model, query_rsi(model, "Visitor", "Node"))


def public_only_sc_plan():
    text = """
    class Logger { public void log() { } }
    class HostCommand {
        public Logger fLog;
        public class Helper {
            public void run() { fLog.log(); }
        }
    }
    """
    model = _inline(text)
    return plan_for(model, query_sc(model, "HostCommand"))


def exceptions_plan():
    model = _corpus("exceptions")
    return plan_for(model, query_ep(model, "IOErr"))


def sibling_override_ep_plan():
    text = (CORPUS / "exceptions.mini").read_text() + """
class AltLoader extends DrawingLoader {
    public Drawing load(String path) throws IOErr {
        return null;
    }
}
"""
    model = _inline(text, "exceptions.mini")
    return plan_for(model, query_ep(model, "IOErr"))


def monitor_plan():
    model = _corpus("monitor")
    return plan_for(model, query_ec(model, "ProgressMonitor"))


def overlapping_precedence_codes() -> set[str]:
    return {w.code for w in check_precedence([consistency_plan(), notify_plan()])}


def disjoint_precedence_codes() -> set[str]:
    return {w.code for w in check_precedence([undo_sc_plan(), undo_setup_plan()])}


#: (code, codes-of-triggering-scenario, codes-of-near-twin) — the twin never
#: carries the code.  SC_NOT_INTRODUCIBLE and EP_TYPE_LOST fire on every plan
#: of their sort, so their twins are same-concern plans of a different sort.
SCENARIOS = [
    ("ANON_CALLERS", lambda: _codes(consistency_plan()), lambda: _codes(notify_plan())),
    ("TANGLED", lambda: _codes(undo_setup_plan()), lambda: _codes(notify_plan())),
    ("SUPER_CALL", lambda: _codes(consistency_plan()), lambda: _codes(notify_plan())),
    ("ENCAPSULATION", lambda: _codes(notify_plan()), lambda: _codes(undo_setup_plan())),
    ("OMISSION_CHECK", lambda: _codes(notify_plan()), lambda: _codes(undo_setup_plan())),
    (
        "REDIR_EXTRA_ROLES",
        lambda: _codes(decorator_extra_roles_plan()),
        lambda: _codes(pure_decorator_plan()),
    ),
    (
        "REDIR_CLIENTS",
        lambda: _codes(decorator_direct_client_plan()),
        lambda: _codes(pure_decorator_plan()),
    ),
    (
        "REDIR_NEW_METHODS",
        lambda: _codes(decorator_uncovered_receiver_plan()),
        lambda: _codes(pure_decorator_plan()),
    ),
    (
        "VISIBILITY_CHANGE",
        lambda: _codes(undo_rsi_plan()),
        lambda: _codes(all_public_role_plan()),
    ),
    (
        "INTRO_CONFLICT",
        lambda: _codes(conflicting_role_plan()),
        lambda: _codes(undo_rsi_plan()),
    ),
    (
        "SC_NOT_INTRODUCIBLE",
        lambda: _codes(undo_sc_plan()),
        lambda: _codes(undo_rsi_plan()),
    ),
    (
        "SC_BROKEN_DEPS",
        lambda: _codes(undo_sc_plan()),
        lambda: _codes(public_only_sc_plan()),
    ),
    ("EP_TYPE_LOST", lambda: _codes(exceptions_plan()), lambda: _codes(monitor_plan())),
    (
        "EP_OVERRIDES",
        lambda: _codes(sibling_override_ep_plan()),
        lambda: _codes(exceptions_plan()),
    ),
    ("PRECEDENCE", overlapping_precedence_codes, disjoint_precedence_codes),
]
