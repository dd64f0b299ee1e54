from __future__ import annotations

import gc
from pathlib import Path

import pytest

from sortweaver.minilang import extract_facts, parse
from sortweaver.model import SourceModel, load_records, records_of

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.mini"))


def young_objects(objects) -> list:
    """Those of ``objects`` that the collector keeps in generation 0 or 1."""
    wanted = set(map(id, objects))
    return [obj for gen in (0, 1) for obj in gc.get_objects(gen) if id(obj) in wanted]


def model_from_source(text: str, source: str = "inline.mini") -> SourceModel:
    return load_records(records_of(extract_facts([parse(text, source)]).records))


def corpus_model(name: str) -> SourceModel:
    return model_from_source((CORPUS / f"{name}.mini").read_text(), f"{name}.mini")


@pytest.fixture(scope="session")
def command_model() -> SourceModel:
    return corpus_model("command")


@pytest.fixture(scope="session")
def decorator_model() -> SourceModel:
    return corpus_model("decorator")


@pytest.fixture(scope="session")
def exceptions_model() -> SourceModel:
    return corpus_model("exceptions")


@pytest.fixture(scope="session")
def monitor_model() -> SourceModel:
    return corpus_model("monitor")


@pytest.fixture(scope="session")
def undo_model() -> SourceModel:
    return corpus_model("undo")
