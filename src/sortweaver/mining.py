"""Idiom-driven mining of crosscutting-concern seeds.

Three techniques over a :class:`~sortweaver.model.SourceModel`:

* fan-in analysis: methods invoked by many distinct callers,
* grouped-calls analysis: maximal callee sets shared by enough callers that
  sit in one hierarchy, enumerated as closed itemsets in the manner of LCM,
* redirection-layer detection: types whose methods consistently forward to
  same-named methods of one wrapped field.

Each result is a scored :class:`Seed` carrying technique-specific evidence;
all output orders are deterministic for a given (model, config); every
technique follows the model's dispatch policy.
"""

from __future__ import annotations

import re
from fnmatch import fnmatchcase
from typing import NamedTuple

from ._util import TYPED_EQUALITY, natural_key
from .model import CallSite, DispatchPolicy, MethodDecl, ReceiverKind, SourceModel

_ACCESSOR_NAME = re.compile(r"^(get|set|is)([A-Z_].*)?$")


class _MiningFields(NamedTuple):
    fanin_threshold: int = 10
    accessor_filter: bool = True
    utility_names: tuple[str, ...] = ()
    grouped_min_callers: int = 3
    grouped_min_group: int = 2
    redirect_coverage: float = 0.5
    redirect_min_methods: int = 2
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class MiningConfig(_MiningFields):
    """The mining thresholds; building one refuses a threshold below 1 and
    a redirect coverage outside (0, 1]."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> MiningConfig:
        config = super().__new__(cls, *args, **kwargs)
        if config.fanin_threshold < 1 or config.grouped_min_callers < 1 \
                or config.grouped_min_group < 1 or config.redirect_min_methods < 1:
            raise ValueError("mining thresholds must be >= 1")
        if not 0 < config.redirect_coverage <= 1:
            raise ValueError("redirect_coverage must be in (0, 1]")
        return config


class Seed(NamedTuple):
    """A scored set of program elements suspected to form one concern."""

    sort_hint: str  # CB | RL | EC | RSI | SC | EP
    elements: frozenset[str]
    score: float
    evidence: dict
    technique: str
    policy: DispatchPolicy
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def to_json(self) -> dict:
        return {
            "sort_hint": self.sort_hint,
            "technique": self.technique,
            "policy": self.policy.value,
            "score": self.score,
            "elements": sorted(self.elements, key=natural_key),
            "evidence": self.evidence,
        }


def is_accessor(method: MethodDecl) -> bool:
    """Name looks like get*/set*/is* and the body is at most one statement."""
    return bool(_ACCESSOR_NAME.match(method.name)) and method.body_stmt_count <= 1


def matches_utility(model: SourceModel, method: MethodDecl, patterns: tuple[str, ...]) -> bool:
    qualified = f"{model.types[method.owner].qualified_name}.{method.name}"
    return any(
        fnmatchcase(method.name, pat) or fnmatchcase(qualified, pat) for pat in patterns
    )


def _kept(model: SourceModel, method: MethodDecl, config: MiningConfig) -> bool:
    if config.accessor_filter and is_accessor(method):
        return False
    return not matches_utility(model, method, config.utility_names)


def fan_in_analysis(model: SourceModel, config: MiningConfig = MiningConfig()) -> list[Seed]:
    """One CB-hinted seed per method whose filtered fan-in meets the threshold.

    Sorted by fan-in descending, ties by qualified method name ascending.
    """
    seeds = []
    for mid in model.methods:
        method = model.methods[mid]
        if not _kept(model, method, config):
            continue
        callers = model.callers_of(mid)
        if len(callers) < config.fanin_threshold:
            continue
        seeds.append(
            Seed(
                sort_hint="CB",
                elements=frozenset(callers) | {mid},
                score=len(callers),
                evidence={
                    "method": mid,
                    "method_sig": model.method_sig(mid),
                    "fan_in": len(callers),
                    "callers": sorted(callers, key=natural_key),
                },
                technique="fanin",
                policy=model.policy,
            )
        )
    seeds.sort(key=lambda s: (-s.score, s.evidence["method_sig"]))
    return seeds


def grouped_calls_analysis(model: SourceModel, config: MiningConfig = MiningConfig()) -> list[Seed]:
    """Maximal shared-callee groups whose supporting callers share an ancestor.

    Each caller is a transaction of its distinct lifted callees (accessor and
    utility filters applied).  A group G is reported when |G| >= min_group,
    its supporter set S has |S| >= min_callers, S sits under one common
    ancestor type, and no superset of G has the same supporters.

    The closed groups are enumerated as in LCM (Uno, Kiyomi & Arimura, FIMI
    2004): depth first, a group is extended by one callee ranked above its
    core, closed by intersecting the extension's supporters' transactions,
    and kept only if the closure adds no callee ranked below that one.  Each
    closed group is reached once, from its one prefix-preserving parent.
    """
    # Callees are ranked by position in the model, which keeps id order.
    method_ids = list(model.methods)
    rank = {mid: i for i, (mid, m) in enumerate(model.methods.items())
            if _kept(model, m, config)}
    callee_sets: dict[str, set[int]] = {}
    for caller, callee in model.lifted_edges():
        if caller != callee and callee in rank:
            callee_sets.setdefault(caller, set()).add(rank[callee])
    callers = list(callee_sets)
    rows = [frozenset(callees) for callees in callee_sets.values()]

    seeds = []
    # (closed group, core rank, supporter rows); the root is the closure of {}.
    stack = []
    if len(rows) >= config.grouped_min_callers:
        stack.append((frozenset.intersection(*rows), -1, range(len(rows))))
    while stack:
        closed, core, occurrences = stack.pop()
        extensions: dict[int, list[int]] = {}
        for t in occurrences:
            for item in rows[t]:
                if item > core and item not in closed:
                    extensions.setdefault(item, []).append(t)
        for item, occ in extensions.items():
            if len(occ) >= config.grouped_min_callers:
                closure = frozenset.intersection(*(rows[t] for t in occ))
                if min(closure - closed) == item:
                    stack.append((closure, item, occ))

        if len(closed) < config.grouped_min_group:
            continue
        group = frozenset(method_ids[i] for i in closed)
        supporters = frozenset(callers[t] for t in occurrences)
        ancestor = model.common_ancestor(model.methods[mid].owner for mid in supporters)
        if ancestor is None:
            continue
        seeds.append(
            Seed(
                sort_hint="CB",
                elements=group | supporters,
                score=len(supporters),
                evidence={
                    "group": sorted(group, key=natural_key),
                    "group_sigs": sorted(model.method_sig(m) for m in group),
                    "callers": sorted(supporters, key=natural_key),
                    "ancestor": ancestor,
                    "ancestor_name": model.types[ancestor].qualified_name,
                    # this technique is a concretization: closed shared-callee
                    # sets with a hierarchy-coherence constraint on callers
                    "definition": "closed-itemset grouped calls",
                },
                technique="grouped",
                policy=model.policy,
            )
        )
    # Two groups can share signatures when types share a qualified name.
    seeds.sort(key=lambda s: (-s.score, s.evidence["group_sigs"],
                              [natural_key(m) for m in s.evidence["group"]]))
    return seeds


def forwarding_calls(model: SourceModel, method: MethodDecl) -> list[CallSite]:
    """Calls in the method's body through a field receiver to a same-named,
    same-arity target: the calls by which a wrapper forwards."""
    return [
        call
        for call in model.calls_of(method.id)
        if call.receiver.kind is ReceiverKind.FIELD
        and model.methods[call.static_target].name == method.name
        and model.methods[call.static_target].arity == method.arity
    ]


def find_redirectors(model: SourceModel, config: MiningConfig = MiningConfig()) -> list[Seed]:
    """Types that forward enough of their methods to one wrapped field.

    A method redirects when its body calls a same-named, same-arity method
    through a field receiver; the field must be the same across the type's
    redirecting methods ("pair methods in receiver").
    """
    seeds = []
    for tid, type_decl in model.types.items():
        candidates = [m for m in model.methods_of(tid) if not m.is_constructor]
        if not candidates:
            continue
        by_field: dict[str, list[tuple[str, str, str]]] = {}
        for method in candidates:
            for call in forwarding_calls(model, method):
                by_field.setdefault(call.receiver.field, []).append(
                    (method.id, call.static_target, call.id)
                )
        if not by_field:
            continue
        field_id = max(
            by_field,
            key=lambda f: (len({m for m, _, _ in by_field[f]}), natural_key(f)),
        )
        pairs = sorted(set(by_field[field_id]), key=lambda p: natural_key(p[2]))
        redirecting = {m for m, _, _ in pairs}
        coverage = len(redirecting) / len(candidates)
        if len(redirecting) < config.redirect_min_methods:
            continue
        if coverage < config.redirect_coverage:
            continue
        wrapped = model.fields[field_id]
        receiver_type = model.type_by_name(wrapped.declared_type)
        seeds.append(
            Seed(
                sort_hint="RL",
                elements=frozenset({tid, field_id})
                | redirecting
                | {t for _, t, _ in pairs},
                score=coverage,
                evidence={
                    "redirector": tid,
                    "redirector_name": type_decl.qualified_name,
                    "field": field_id,
                    "receiver_type": receiver_type.id if receiver_type else None,
                    "receiver_type_name": wrapped.declared_type,
                    "pairs": [list(p) for p in pairs],
                    "coverage": coverage,
                },
                technique="redirect",
                policy=model.policy,
            )
        )
    seeds.sort(key=lambda s: (-s.score, s.evidence["redirector_name"]))
    return seeds


#: Technique name -> (its function in this module, every MiningConfig field
#: it reads).  The first field is the one the CLI's ``--threshold`` sets.
TECHNIQUES: dict[str, tuple[str, tuple[str, ...]]] = {
    "fanin": ("fan_in_analysis", ("fanin_threshold", "accessor_filter", "utility_names")),
    "grouped": ("grouped_calls_analysis", ("grouped_min_callers", "grouped_min_group",
                                           "accessor_filter", "utility_names")),
    "redirect": ("find_redirectors", ("redirect_min_methods", "redirect_coverage")),
}


def mine(model: SourceModel, technique: str, config: MiningConfig = MiningConfig()) -> list[Seed]:
    """Run a technique by name under the model's dispatch policy."""
    function, _ = TECHNIQUES[technique]
    # Looked up at call time, so a wrapper installed on this module applies.
    return globals()[function](model, config)
