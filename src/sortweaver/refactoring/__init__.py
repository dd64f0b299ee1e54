"""Sort-based aspect refactoring: plans, aspect text, edits, risk warnings."""

from .aspect_text import AspectDoc, render_doc
from .plans import (
    EDIT_KINDS,
    WARNING_CATALOG,
    PlanError,
    RefactoringPlan,
    RiskWarning,
    SourceEdit,
    apply_edits,
    check_precedence,
    combine_plans,
    plan_for,
)

__all__ = [
    "AspectDoc",
    "EDIT_KINDS",
    "PlanError",
    "RefactoringPlan",
    "RiskWarning",
    "SourceEdit",
    "WARNING_CATALOG",
    "apply_edits",
    "check_precedence",
    "combine_plans",
    "plan_for",
    "render_doc",
]
