"""The six sort queries and seed expansion.

Each query evaluates one crosscutting-concern idiom over a
:class:`~sortweaver.model.SourceModel`:

CB   consistent behavior: call sites consistently invoking one method
RL   redirection layer: wrapper methods forwarding to a wrapped receiver
EC   expose context: pass-through parameter chains
RSI  role superimposition: types implementing a secondary role
SC   support classes: nested classes realizing a role for their encloser
EP   exception propagation: rethrow chains of one declared exception

Results are deduplicated, chains are maximal at both ends, and hit order is
deterministic: (source file of the primary entity, natural id order).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from ._util import TYPED_EQUALITY, natural_key
from .mining import Seed, forwarding_calls
from .model import DispatchPolicy, FactError, SourceModel


class SortKind(str, Enum):
    CB = "CB"
    RL = "RL"
    EC = "EC"
    RSI = "RSI"
    SC = "SC"
    EP = "EP"


class QueryBinding(NamedTuple):
    """A sort query parameterized for one concrete concern.

    Params are stored by name (qualified type and method names), so a
    binding stays valid across re-extraction of the same sources.
    """

    sort: SortKind
    params: tuple[tuple[str, str], ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    @staticmethod
    def make(sort: SortKind | str, **params: str) -> "QueryBinding":
        items = tuple(sorted((k, v) for k, v in params.items() if v is not None))
        return QueryBinding(SortKind(sort), items)

    def param(self, key: str, default: str | None = None) -> str | None:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def to_json(self) -> dict:
        return {"sort": self.sort.value, "params": dict(self.params)}


# -- hits ---------------------------------------------------------------------
#
# Every hit class has ``key`` (the drift key), ``order_key`` (hit order) and
# ``to_json``.


class CbHit(NamedTuple):
    call: str
    caller: str
    target: str
    ordinal: int
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def key(self, model):
        return f"{model.method_sig(self.caller)} -> {model.method_sig(self.target)} @{self.ordinal}"

    def order_key(self, model):
        return (model.calls[self.call].src, natural_key(self.call))

    def to_json(self, model):
        return {
            "call": self.call,
            "caller": model.method_sig(self.caller),
            "target": model.method_sig(self.target),
            "ordinal": self.ordinal,
        }


class RlHit(NamedTuple):
    redirector_method: str
    receiver_method: str
    call: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def key(self, model):
        return (
            f"{model.method_sig(self.redirector_method)} => "
            f"{model.method_sig(self.receiver_method)}"
        )

    def order_key(self, model):
        return (model.calls[self.call].src, natural_key(self.call))

    def to_json(self, model):
        return {
            "redirector_method": model.method_sig(self.redirector_method),
            "receiver_method": model.method_sig(self.receiver_method),
            "call": self.call,
        }


class ChainHit(NamedTuple):
    """A maximal chain of methods (used by EC and EP)."""

    methods: tuple[str, ...]
    calls: tuple[str, ...]  # linking call sites, len(methods) - 1
    param_indices: tuple[int, ...] = ()  # EC: context parameter per method
    root_raises: bool = False  # EP: chain ends at a direct thrower
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def key(self, model):
        return " -> ".join(model.method_sig(m) for m in self.methods)

    def order_key(self, model):
        return (model.methods[self.methods[0]].src, tuple(natural_key(m) for m in self.methods))

    def to_json(self, model):
        out = {
            "methods": [model.method_sig(m) for m in self.methods],
            "calls": list(self.calls),
        }
        if self.param_indices:
            out["param_indices"] = list(self.param_indices)
        else:
            out["root_raises"] = self.root_raises
        return out


class RsiHit(NamedTuple):
    type_id: str
    member: str  # role type id for "declares_role", method id for "role_member"
    kind: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def key(self, model):
        if self.kind == "declares_role":
            return (
                f"{model.types[self.type_id].qualified_name} implements "
                f"{model.types[self.member].qualified_name}"
            )
        return f"{model.method_sig(self.member)} realizes role"

    def order_key(self, model):
        return (
            model.types[self.type_id].src,
            natural_key(self.type_id),
            self.kind,
            natural_key(self.member),
        )

    def to_json(self, model):
        out = {"type": model.types[self.type_id].qualified_name, "kind": self.kind}
        if self.kind == "declares_role":
            out["role"] = model.types[self.member].qualified_name
        else:
            out["member"] = model.method_sig(self.member)
        return out


class ScHit(NamedTuple):
    enclosing: str
    nested: str
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def key(self, model):
        return (
            f"{model.types[self.enclosing].qualified_name} encloses "
            f"{model.types[self.nested].qualified_name}"
        )

    def order_key(self, model):
        return (model.types[self.nested].src, natural_key(self.nested))

    def to_json(self, model):
        return {
            "enclosing": model.types[self.enclosing].qualified_name,
            "nested": model.types[self.nested].qualified_name,
        }


class QueryResult(NamedTuple):
    sort: SortKind
    binding: QueryBinding
    policy: DispatchPolicy
    hits: tuple[CbHit | RlHit | ChainHit | RsiHit | ScHit, ...]
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def keys(self, model: SourceModel) -> tuple[str, ...]:
        return tuple(h.key(model) for h in self.hits)

    def to_json(self, model: SourceModel) -> dict:
        return {
            "sort": self.sort.value,
            "binding": self.binding.to_json(),
            "policy": self.policy.value,
            "hits": [h.to_json(model) for h in self.hits],
        }


def _result(model, sort, binding, hits) -> QueryResult:
    unique = sorted(set(hits), key=lambda h: h.order_key(model))
    return QueryResult(sort, binding, model.policy, tuple(unique))


# -- scopes --------------------------------------------------------------------


def scope_test(model: SourceModel, scope: str) -> Callable[[str], bool]:
    """The test on a type id that a scope expression makes.

    ``*`` (or ``""``) matches every type; a trailing-dot string matches types
    by qualified-name prefix; a type name matches that type and its
    subtypes under subtype-of*.
    """
    if scope == "*" or scope == "":
        return model.types.__contains__
    if scope.endswith("."):
        return lambda tid: model.types[tid].qualified_name.startswith(scope)
    scoped = model.type_by_name(scope)
    if scoped is None:
        raise FactError(f"unknown scope: {scope!r}")
    return model.subtype_test(scoped.id)


# -- the six queries -------------------------------------------------------------


def query_cb(model: SourceModel, target: str, scope: str = "*") -> QueryResult:
    """Call sites whose lifted callee is ``target`` with callers in scope."""
    target_decl = model.resolve_method(target)
    in_scope = scope_test(model, scope)
    binding = QueryBinding.make(SortKind.CB, target=model.method_sig(target_decl.id), scope=scope)
    hits = [
        CbHit(call.id, call.caller, target_decl.id, call.ordinal)
        for call in model.calls_to(target_decl.id)
        if call.caller != target_decl.id  # self-call
        and in_scope(model.methods[call.caller].owner)
    ]
    return _result(model, SortKind.CB, binding, hits)


def query_rl(model: SourceModel, redirector: str, receiver: str) -> QueryResult:
    """(redirector method, receiver method, call) delegation triples."""
    red = model.require_type(redirector)
    rec = model.require_type(receiver)
    binding = QueryBinding.make(
        SortKind.RL, redirector=red.qualified_name, receiver=rec.qualified_name
    )
    hits = []
    for method in model.methods_of(red.id):
        if method.is_constructor:
            continue
        for call in forwarding_calls(model, method):
            wrapped = model.fields[call.receiver.field]
            field_type = model.type_by_name(wrapped.declared_type)
            if field_type is None or not model.is_subtype(rec.id, field_type.id):
                continue
            hits.append(RlHit(method.id, call.static_target, call.id))
    return _result(model, SortKind.RL, binding, hits)


def _chain_graph(model: SourceModel, links: Callable, nodes=()) -> dict[str, dict[str, str]]:
    """Caller -> {callee: linking call id} over the calls that ``links``
    accepts, read once in id order, so each pair keeps its smallest call;
    ``nodes`` join the graph without edges."""
    graph: dict[str, dict[str, str]] = {node: {} for node in nodes}
    for call in model.calls.values():
        if links(call):
            graph.setdefault(call.caller, {}).setdefault(call.static_target, call.id)
    return graph


def _components(nodes, succ) -> dict:
    """Node -> a representative of its strongly connected component.

    Tarjan (1972) with an explicit stack of successor iterators, so graph
    depth is not bounded by recursion.  ``succ`` maps node -> neighbors.
    """
    index: dict = {}
    low: dict = {}
    component: dict = {}
    open_nodes: list = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        open_nodes.append(root)
        work = [(root, iter(succ.get(root, ())))]
        while work:
            node, pending = work[-1]
            for child in pending:
                if child not in index:
                    index[child] = low[child] = len(index)
                    open_nodes.append(child)
                    work.append((child, iter(succ.get(child, ()))))
                    break
                if child not in component:  # still open: same component
                    low[node] = min(low[node], index[child])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = open_nodes.pop()
                        component[member] = node
                        if member == node:
                            break
    return component


def _maximal_chains(graph, stop_at=frozenset()):
    """Maximal simple paths over a chain graph, in natural id order.

    ``graph`` maps node -> {neighbor: linking call id}, as ``_chain_graph``
    builds it; the nodes are its keys and every neighbor.  Stop nodes
    terminate chains (a stop tail is a valid end of any length, and a stop
    node never extends a chain leftward); otherwise a path is reported when
    it has at least two nodes, cannot grow right (no unvisited successor)
    and cannot grow left (no unvisited non-stop predecessor).

    A chain's non-stop predecessors of its head must all lie on it, so they
    share the head's strongly connected component over the edges leaving
    non-stop nodes; the search starts only at nodes where they do.  Each
    search walks one shared path with a stack of successor iterators, so on
    acyclic inputs the cost is about V + E plus the length of the output.
    """
    # Each node's (neighbor, call) pairs, sorted once for every search.
    succ = {node: sorted(callees.items(), key=lambda pair: natural_key(pair[0]))
            for node, callees in graph.items()}
    preds: dict = {node: [] for node in graph}
    for node, callees in graph.items():
        for neighbor in callees:
            preds.setdefault(neighbor, []).append(node)
    nodes = sorted(preds, key=natural_key)
    component = _components(nodes, {
        node: callees for node, callees in graph.items() if node not in stop_at
    })

    def successors(node):
        return iter(()) if node in stop_at else iter(succ.get(node, ()))

    chains = []
    for start in nodes:
        blockers = [p for p in preds[start] if p not in stop_at]
        if any(component[p] != component[start] for p in blockers):
            continue
        path, calls, seen = [start], [], {start}
        # One frame per path node: its successor iterator, and whether the
        # path has grown past it.
        frames = [[successors(start), False]]
        while frames:
            frame = frames[-1]
            for neighbor, call in frame[0]:
                if neighbor not in seen:
                    frame[1] = True
                    path.append(neighbor)
                    calls.append(call)
                    seen.add(neighbor)
                    frames.append([successors(neighbor), False])
                    break
            else:
                frames.pop()
                if not frame[1] and (len(path) >= 2 or path[-1] in stop_at) \
                        and all(p in seen for p in blockers):
                    chains.append((tuple(path), tuple(calls)))
                seen.discard(path.pop())
                if calls:
                    calls.pop()
    return chains


def query_ec(model: SourceModel, context_type: str, scope: str = "*") -> QueryResult:
    """Maximal pass-through chains of a context-typed parameter."""
    in_scope = scope_test(model, scope)
    binding = QueryBinding.make(SortKind.EC, context=context_type, scope=scope)

    # Context-parameter indices of each in-scope method that has one.
    context_params = {
        mid: frozenset(i for i, p in enumerate(m.param_types) if p == context_type)
        for mid, m in model.methods.items()
        if context_type in m.param_types and in_scope(m.owner)
    }

    # The one EC rule: a call links its caller to its callee by its first
    # pass-through of a context parameter to a context argument; that
    # (parameter, argument) pair is kept by call id for the chain's indices.
    passes: dict[str, tuple[int, int]] = {}

    def links(call):
        src_params = context_params.get(call.caller)
        dst_params = context_params.get(call.static_target)
        if src_params is not None and dst_params is not None:
            for arg_index, param_index in call.arg_passthrough:
                if param_index in src_params and arg_index in dst_params:
                    passes[call.id] = (param_index, arg_index)
                    return True
        return False

    hits = [
        ChainHit(
            methods=path,
            calls=calls,
            param_indices=(passes[calls[0]][0], *(passes[call][1] for call in calls)),
        )
        for path, calls in _maximal_chains(_chain_graph(model, links))
    ]
    return _result(model, SortKind.EC, binding, hits)


def query_ep(model: SourceModel, exception: str, root: str | None = None) -> QueryResult:
    """Maximal rethrow chains of one declared exception type.

    Chain members declare the exception in their throws clause and call the
    next member; a chain ends at a method that throws the exception directly
    (its root), or at the deepest declarer for chains of two or more.  A
    method that neither throws directly nor reaches a thrower through calls
    of declarers can only appear mid-chain, never alone.
    """
    binding = QueryBinding.make(SortKind.EP, exception=exception, root=root)
    root_id = model.resolve_method(root).id if root is not None else None
    declarers = {
        mid for mid, m in model.methods.items() if exception in m.declared_throws
    }
    raisers = frozenset(
        mid for mid in declarers if exception in model.methods[mid].direct_throws
    )
    graph = _chain_graph(
        model,
        lambda call: call.caller in declarers and call.static_target in declarers
        and call.caller != call.static_target,
        nodes=raisers,
    )
    hits = [
        ChainHit(methods=path, calls=calls, root_raises=path[-1] in raisers)
        for path, calls in _maximal_chains(graph, stop_at=raisers)
        if root_id is None or root_id in path
    ]
    return _result(model, SortKind.EP, binding, hits)


def query_rsi(model: SourceModel, role: str, scope: str = "*") -> QueryResult:
    """Types carrying a secondary role, and their role-realizing members."""
    role_decl = model.require_type(role)
    in_scope = scope_test(model, scope)
    has_role = model.subtype_test(role_decl.id)
    binding = QueryBinding.make(SortKind.RSI, role=role_decl.qualified_name, scope=scope)
    hits = []
    for tid in model.types:
        if tid == role_decl.id or not in_scope(tid):
            continue
        if not has_role(tid):
            continue
        hits.append(RsiHit(tid, role_decl.id, "declares_role"))
        for method in model.methods_of(tid):
            # The role is a proper supertype, so declaring the signature
            # there is overriding it.
            if model.declared_method(role_decl.id, method.signature) is not None:
                hits.append(RsiHit(tid, method.id, "role_member"))
    return _result(model, SortKind.RSI, binding, hits)


def query_sc(model: SourceModel, scope: str = "*", role: str | None = None) -> QueryResult:
    """(enclosing, nested) pairs, optionally filtered by the nested role."""
    in_scope = scope_test(model, scope)
    role_decl = model.require_type(role) if role else None
    binding = QueryBinding.make(
        SortKind.SC, scope=scope, role=role_decl.qualified_name if role_decl else None
    )
    hits = []
    for tid, t in model.types.items():
        if t.enclosing_type is None:
            continue
        if not in_scope(t.enclosing_type):
            continue
        if role_decl is not None and not model.is_subtype(tid, role_decl.id):
            continue
        hits.append(ScHit(t.enclosing_type, tid))
    return _result(model, SortKind.SC, binding, hits)


# -- binding execution ------------------------------------------------------------


class Param(NamedTuple):
    """One named parameter of a sort's binding."""

    name: str
    required: bool = False
    default: str | None = None
    choices: tuple[str, ...] = ()
    #: Read by the planner only; not an argument of the query.
    plan_only: bool = False
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


#: Advice kinds a CB binding (or ``plan --advice``) may ask for.
ADVICE_KINDS = ("before", "after", "around")

#: The parameters of each sort, in the positional order of its ``query_*``
#: function; plan-only parameters come last.
SORT_PARAMS: dict[SortKind, tuple[Param, ...]] = {
    SortKind.CB: (
        Param("target", required=True),
        Param("scope", default="*"),
        Param("advice", choices=ADVICE_KINDS, plan_only=True),
    ),
    SortKind.RL: (Param("redirector", required=True), Param("receiver", required=True)),
    SortKind.EC: (Param("context", required=True), Param("scope", default="*")),
    SortKind.RSI: (Param("role", required=True), Param("scope", default="*")),
    SortKind.SC: (Param("scope", default="*"), Param("role")),
    SortKind.EP: (Param("exception", required=True), Param("root")),
}


def query_params(sort: SortKind) -> tuple[Param, ...]:
    """The parameters a sort's query function takes, in order."""
    return tuple(p for p in SORT_PARAMS[sort] if not p.plan_only)


def check_params(sort: SortKind, params: dict) -> None:
    """Raise ValueError unless ``params`` suits the sort's parameter table:
    known keys only, string values, every required key present and every
    value among its choices."""
    table = {p.name: p for p in SORT_PARAMS[sort]}
    for key, value in params.items():
        if key not in table:
            raise ValueError(
                f"unknown {sort.value} parameter {key!r}; expected one of {', '.join(table)}"
            )
        if not isinstance(value, str):
            raise ValueError(f"{sort.value} parameter {key!r} must be a string, not {value!r}")
        if table[key].choices and value not in table[key].choices:
            raise ValueError(
                f"{sort.value} parameter {key!r} must be one of "
                f"{', '.join(table[key].choices)}, not {value!r}"
            )
    for p in table.values():
        if p.required and p.name not in params:
            raise ValueError(f"{sort.value} binding needs parameter {p.name!r}")


def execute_binding(model: SourceModel, binding: QueryBinding) -> QueryResult:
    """Run the query a binding describes; raises FactError on bad parameters."""
    # Looked up at call time, so a wrapper installed on this module applies.
    query = globals()[f"query_{binding.sort.value.lower()}"]
    return query(model, *(binding.param(p.name, p.default) for p in query_params(binding.sort)))


# -- seed expansion -----------------------------------------------------------------


class BindingSuggestion(NamedTuple):
    binding: QueryBinding
    coverage: float
    covered: int
    total: int
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


def expand_seed(model: SourceModel, seed: Seed) -> list[BindingSuggestion]:
    """Propose query bindings that turn a mining seed into a documented concern.

    Fan-in seeds: candidate scopes are the minimal common ancestors covering
    at least half of the callers (each reported with coverage),
    plus the whole-model scope.  Redirector seeds map onto an RL binding;
    grouped seeds yield one CB binding per callee in the group.
    """
    if seed.technique == "fanin":
        return _expand_fanin(model, seed)
    if seed.technique == "redirect":
        binding = QueryBinding.make(
            SortKind.RL,
            redirector=seed.evidence["redirector_name"],
            receiver=seed.evidence["receiver_type_name"],
        )
        return [BindingSuggestion(binding, 1.0, len(seed.evidence["pairs"]),
                                  len(seed.evidence["pairs"]))]
    if seed.technique == "grouped":
        scope = seed.evidence["ancestor_name"]
        callers = len(seed.evidence["callers"])
        return [
            BindingSuggestion(
                QueryBinding.make(SortKind.CB, target=model.method_sig(callee), scope=scope),
                1.0,
                callers,
                callers,
            )
            for callee in seed.evidence["group"]
        ]
    raise FactError(f"cannot expand seeds of technique {seed.technique!r}")


def _expand_fanin(model, seed):
    target = seed.evidence["method"]
    callers = seed.evidence["callers"]
    total = len(callers)
    # Each caller covers every ancestor of its owner.
    under: dict[str, set[str]] = {}
    for caller in callers:
        for tid in model.ancestors(model.methods[caller].owner):
            under.setdefault(tid, set()).add(caller)
    covered_by = {tid: under[tid] for tid in model.types
                  if tid in under and 2 * len(under[tid]) >= total}
    # Drop an ancestor when a proper subtype covers the same caller set.
    keep = {}
    for tid, covered in covered_by.items():
        redundant = any(
            other != tid and model.is_subtype(other, tid) and covered_by[other] == covered
            for other in covered_by
        )
        if not redundant:
            keep[tid] = covered
    suggestions = [
        BindingSuggestion(
            QueryBinding.make(
                SortKind.CB,
                target=model.method_sig(target),
                scope=model.types[tid].qualified_name,
            ),
            len(covered) / total,
            len(covered),
            total,
        )
        for tid, covered in keep.items()
    ]
    suggestions.append(
        BindingSuggestion(
            QueryBinding.make(SortKind.CB, target=model.method_sig(target), scope="*"),
            1.0,
            total,
            total,
        )
    )
    suggestions.sort(key=lambda s: (-s.coverage, s.binding.param("scope")))
    return suggestions
