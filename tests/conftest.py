from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest
from randmodels import random_model

from sortweaver.minilang import extract_facts, parse
from sortweaver.model import DEFAULT_POLICY, DispatchPolicy, SourceModel, load_records, records_of
from sortweaver.queries import query_cb, query_ec, query_ep, query_rl, query_rsi, query_sc

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

CORPUS_FILES = sorted(p.name for p in CORPUS.glob("*.mini"))


def young_objects(objects) -> list:
    """Those of ``objects`` that the collector keeps in generation 0 or 1."""
    wanted = set(map(id, objects))
    return [obj for gen in (0, 1) for obj in gc.get_objects(gen) if id(obj) in wanted]


def model_from_source(text: str, source: str = "inline.mini",
                      policy: DispatchPolicy = DEFAULT_POLICY) -> SourceModel:
    return load_records(records_of(extract_facts([parse(text, source)]).records), policy=policy)


def corpus_model(name: str, policy: DispatchPolicy = DEFAULT_POLICY) -> SourceModel:
    return model_from_source((CORPUS / f"{name}.mini").read_text(), f"{name}.mini", policy)


def sample_models(seed: int, count: int):
    """The corpus models and ``count`` random models, each under every policy."""
    rng = random.Random(seed)
    for policy in DispatchPolicy:
        for name in CORPUS_FILES:
            yield corpus_model(name.removesuffix(".mini"), policy)
        for _ in range(count):
            yield random_model(rng, policy=policy)


def each_sort_result(model: SourceModel):
    """Results of every sort, bound as a user binds them: each method as a
    CB target (model-wide and over its owner's subtree), each pair of types
    as an RL binding, each parameter type as an EC context, each type as an
    RSI role and an SC scope, and each declared exception as an EP binding,
    alone and rooted at each declarer by its printed signature."""
    types = [t.qualified_name for t in model.types.values()]
    methods = model.methods.values()
    for m in methods:
        yield query_cb(model, m.id)
        yield query_cb(model, m.id, model.types[m.owner].qualified_name)
    for redirector in types:
        for receiver in types:
            yield query_rl(model, redirector, receiver)
    for context in sorted({p for m in methods for p in m.param_types}):
        yield query_ec(model, context)
    yield query_sc(model)
    for name in types:
        yield query_rsi(model, name)
        yield query_sc(model, name)
    for exception in sorted({e for m in methods for e in m.declared_throws}):
        yield query_ep(model, exception)
        for m in methods:
            if exception in m.declared_throws:
                yield query_ep(model, exception, model.method_sig(m.id))


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
