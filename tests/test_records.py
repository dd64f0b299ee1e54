"""Records equal only records of their own class.

A record is a named tuple or a ``Record`` (``sortweaver._util``).  Two
named tuples of equal items compare equal whatever their classes, so
without the records' own equality ``AndExpr(terms) == OrExpr(terms)`` would
hold and a set or ``dict.fromkeys`` would keep one of the two.
"""

from __future__ import annotations

import importlib
import pkgutil
from itertools import combinations

import pytest

import sortweaver
from sortweaver._util import Record
from sortweaver.refactoring import RefactoringPlan, combine_plans
from sortweaver.refactoring.aspect_text import (
    AndExpr,
    Args,
    AspectDoc,
    Execution,
    OrExpr,
    PointcutDef,
    ThisBinding,
)


def _record_classes() -> dict[type, tuple[str, ...]]:
    """Every record class of the package -> its field names."""
    classes = {}
    for info in pkgutil.walk_packages(sortweaver.__path__, "sortweaver."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if not isinstance(value, type) or value.__module__ != module.__name__:
                continue
            if issubclass(value, tuple) and hasattr(value, "_fields"):
                classes[value] = value._fields
            elif issubclass(value, Record) and value is not Record:
                classes[value] = value.__slots__
    return classes


RECORDS = _record_classes()


def _built(cls: type, values: tuple):
    """An instance of ``cls`` whose fields hold ``values``, built without its
    constructor, which may refuse them."""
    if issubclass(cls, tuple):
        return tuple.__new__(cls, values)
    record = object.__new__(cls)
    for name, value in zip(RECORDS[cls], values):
        setattr(record, name, value)
    return record


def _values(count: int) -> tuple:
    return tuple(f"v{i}" for i in range(count))


def test_the_walk_finds_the_records_of_every_layer():
    names = {cls.__name__ for cls in RECORDS}
    assert {"CallSite", "Token", "Diagnostic", "TypeNode", "This", "CallExpr", "MiningConfig",
            "Seed", "CbHit", "QueryResult", "Instance", "Group", "InstanceRun", "SourceEdit",
            "RefactoringPlan", "AndExpr", "OrExpr", "ThisBinding", "Args"} <= names


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: f"{cls.__module__}.{cls.__name__}")
def test_a_record_equals_one_of_its_class_with_equal_fields(cls):
    values = _values(len(RECORDS[cls]))
    first, second = _built(cls, values), _built(cls, values)
    assert first == second and not first != second
    if issubclass(cls, tuple):
        assert hash(first) == hash(second) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(first)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(RECORDS[cls], values))
    assert repr(first) == f"{cls.__qualname__}({fields})"


def test_no_record_equals_a_record_of_another_class():
    equal = []
    for first, second in combinations(RECORDS, 2):
        if len(RECORDS[first]) != len(RECORDS[second]):
            continue
        values = _values(len(RECORDS[first]))
        a, b = _built(first, values), _built(second, values)
        if a == b or b == a or not a != b or not b != a:
            equal.append(f"{first.__name__} and {second.__name__}")
    assert equal == []


def _plan(*stanzas) -> RefactoringPlan:
    return RefactoringPlan("CB", AspectDoc("Part", stanzas), (), ())


_TERMS = (Execution("void", "Figure", "draw"), Execution("void", "Figure", "erase"))


@pytest.mark.parametrize("left, right", [
    (AndExpr(_TERMS), OrExpr(_TERMS)),
    (AndExpr((_TERMS[0], ThisBinding("c"))), AndExpr((_TERMS[0], Args("c")))),
], ids=["and-or", "this-args"])
def test_combined_plans_keep_stanzas_that_differ_only_in_a_class(left, right):
    one, other = PointcutDef("drawn", (), left), PointcutDef("drawn", (), right)
    combined = combine_plans("Both", [_plan(one), _plan(other)])
    assert combined.doc.stanzas == (one, other)
    assert combined.aspect_text.count("pointcut drawn()") == 2
