"""Risk-catalog coverage: every code has a triggering fixture and a
non-triggering near-twin (30 checks for the 15 codes).  The two codes whose
evidence is gathered per hit or per call list a repeated id once."""

import pytest

from conftest import model_from_source
from warning_scenarios import SCENARIOS

from sortweaver.queries import query_cb, query_sc
from sortweaver.refactoring import WARNING_CATALOG, plan_for


def test_catalog_has_exactly_the_fifteen_codes():
    assert len(WARNING_CATALOG) == 15
    assert {code for code, _, _ in SCENARIOS} == set(WARNING_CATALOG)


@pytest.mark.parametrize("code,trigger,_", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_warning_triggers(code, trigger, _):
    assert code in trigger()


@pytest.mark.parametrize("code,_,absent", SCENARIOS, ids=[s[0] for s in SCENARIOS])
def test_warning_absent_on_near_twin(code, _, absent):
    assert code not in absent()


def _evidence(plan, code):
    return next(w.evidence for w in plan.warnings if w.code == code)


def test_encapsulation_lists_a_private_field_once_for_two_hits():
    model = model_from_source("""
    class View { public void repaint() { } }
    class Editor {
        private View fView;
        public void cut() { fView.repaint(); }
        public void paste() { fView.repaint(); }
    }
    """)
    plan = plan_for(model, query_cb(model, "View.repaint", "Editor"))
    (field,) = model.fields_of(model.require_type("Editor").id)
    assert len(plan.edits) == 2
    assert _evidence(plan, "ENCAPSULATION") == (field.id,)


def test_sc_broken_deps_lists_a_private_method_once_for_two_calls():
    model = model_from_source("""
    class Host {
        private void helper() { }
        public class Support {
            public void run() { helper(); helper(); }
        }
    }
    """)
    plan = plan_for(model, query_sc(model, "Host"))
    assert _evidence(plan, "SC_BROKEN_DEPS") == (model.resolve_method("Host.helper").id,)
