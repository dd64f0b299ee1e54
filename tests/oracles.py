"""Brute-force relational oracles for the sort queries and mining.

Everything here is computed with nested loops straight over the entity
tables (decl fields only), independently of the library's derived
relations, so test comparisons are meaningful.  Chain enumeration recurses
over explicitly constructed edge sets and re-states the maximality rules in
the simplest possible form.
"""

from __future__ import annotations

import json
import re
from itertools import combinations

from sortweaver.minilang.ast import MiniLangSyntaxError, Position
from sortweaver.minilang.lexer import KEYWORDS, Token
from sortweaver.model import (
    DEFAULT_POLICY,
    CallSite,
    FactError,
    FieldDecl,
    MethodDecl,
    Receiver,
    ReceiverKind,
    SourceModel,
    TypeDecl,
    TypeKind,
    Visibility,
)

_KEYWORDS = {"if", "catch", "while", "for", "return", "throw", "new", "else", "try"}


def invocation_count(text: str) -> int:
    """Count method invocations with a text scan, independent of the parser.

    Strips comments and strings, then classifies every ``name(`` site by
    what precedes it: a dot or an expression boundary means an invocation, a
    type name means a declaration.  ``new Name(`` counts only when the file
    declares a constructor for ``Name``.
    """
    text = re.sub(r"//[^\n]*", " ", text)
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    text = re.sub(r'"[^"\n]*"', '""', text)
    ctor_names = set(re.findall(r"(?:public|protected|private)\s+(\w+)\s*\(", text))
    class_names = set(re.findall(r"class\s+(\w+)", text))
    ctor_names &= class_names
    count = 0
    for match in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", text):
        name = match.group(1)
        if name in _KEYWORDS:
            continue
        before = text[: match.start()].rstrip()
        if before.endswith("."):
            count += 1
            continue
        prev_word = re.search(r"(\w+)$", before)
        if prev_word and prev_word.group(1) == "new":
            count += 1 if name in ctor_names else 0
            continue
        if prev_word and prev_word.group(1) in ("return", "throw"):
            count += 1
            continue
        if not before or before[-1] in ";{}=(,!":
            count += 1
            continue
        # otherwise a declaration: "void f(" / "Type name("
    return count


def subtype_pairs(model: SourceModel) -> set[tuple[str, str]]:
    """Reflexive-transitive (subtype, supertype) pairs by fixpoint iteration."""
    pairs = {(tid, tid) for tid in model.types}
    for tid, decl in model.types.items():
        for sup in decl.supertypes:
            pairs.add((tid, sup))
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def overrides_full(model: SourceModel) -> set[tuple[str, str]]:
    pairs = subtype_pairs(model)
    out = set()
    for m1, d1 in model.methods.items():
        for m2, d2 in model.methods.items():
            if m1 == m2 or d1.owner == d2.owner:
                continue
            if (d1.owner, d2.owner) not in pairs:
                continue
            if d1.name == d2.name and d1.param_types == d2.param_types:
                out.add((m1, m2))
    return out


def lifted(model: SourceModel, policy) -> set[tuple[str, str]]:
    full = overrides_full(model)
    edges = set()
    for call in model.calls.values():
        edges.add((call.caller, call.static_target))
        if policy in ("lift_to_ancestors", "lift_both"):
            for a, b in full:
                if a == call.static_target:
                    edges.add((call.caller, b))
        if policy == "lift_both":
            for a, b in full:
                if b == call.static_target:
                    edges.add((call.caller, a))
    return edges


def fan_in(model: SourceModel, method_id: str, policy) -> int:
    return len(
        {c for c, t in lifted(model, policy) if t == method_id and c != method_id}
    )


def scope_ids(model: SourceModel, scope: str) -> set[str] | None:
    if scope in ("*", ""):
        return None
    if scope.endswith("."):
        return {t for t, d in model.types.items() if d.qualified_name.startswith(scope)}
    pairs = subtype_pairs(model)
    anchor = None
    for tid, decl in model.types.items():
        if decl.qualified_name == scope or tid == scope:
            anchor = tid
            break
    if anchor is None:
        hits = [t for t, d in model.types.items()
                if d.qualified_name.rsplit(".", 1)[-1] == scope]
        anchor = hits[0] if len(hits) == 1 else None
    if anchor is None:
        raise ValueError(f"oracle: unknown scope {scope!r}")
    return {a for a, b in pairs if b == anchor}


def common_ancestor(model: SourceModel, type_ids, pairs=None) -> str | None:
    """The most specific type above every given type: of the shared
    ancestors, the one with the fewest subtypes, then the least qualified
    name; ``None`` when they share none or none are given."""
    pairs = subtype_pairs(model) if pairs is None else pairs
    type_ids = set(type_ids)
    shared = [b for b in model.types if all((a, b) in pairs for a in type_ids)]
    if not type_ids or not shared:
        return None
    return min(shared, key=lambda b: (sum((a, b) in pairs for a in model.types),
                                      model.types[b].qualified_name))


def fanin_suggestions(model: SourceModel, seed) -> list[tuple]:
    """(scope, target, coverage, covered, total) of each CB binding that
    expanding a fan-in seed suggests: every type above at least half of the
    callers' owners, less those with a proper subtype above the same
    callers, plus ``*``; most coverage first, then by scope."""
    pairs = subtype_pairs(model)
    target = model.methods[seed.evidence["method"]]
    sig = f"{model.types[target.owner].qualified_name}.{target.name}({','.join(target.param_types)})"
    callers = seed.evidence["callers"]
    total = len(callers)
    covered = {}
    for tid in model.types:
        under = frozenset(c for c in callers if (model.methods[c].owner, tid) in pairs)
        if under and 2 * len(under) >= total:
            covered[tid] = under
    out = [(model.types[tid].qualified_name, sig, len(under) / total, len(under), total)
           for tid, under in covered.items()
           if not any(other != tid and (other, tid) in pairs and covered[other] == under
                      for other in covered)]
    out.append(("*", sig, 1.0, total, total))
    return sorted(out, key=lambda s: (-s[2], s[0]))


def cb_hits(model: SourceModel, target_id: str, scope: str, policy) -> set[str]:
    ids = scope_ids(model, scope)
    full = overrides_full(model)
    out = set()
    for call in model.calls.values():
        if call.caller == target_id:
            continue
        callees = {call.static_target}
        if policy in ("lift_to_ancestors", "lift_both"):
            callees |= {b for a, b in full if a == call.static_target}
        if policy == "lift_both":
            callees |= {a for a, b in full if b == call.static_target}
        if target_id not in callees:
            continue
        owner = model.methods[call.caller].owner
        if ids is None or owner in ids:
            out.add(call.id)
    return out


def rl_triples(model: SourceModel, red_id: str, rec_id: str) -> set[tuple[str, str, str]]:
    pairs = subtype_pairs(model)
    out = set()
    for method in model.methods.values():
        if method.owner != red_id or method.is_constructor:
            continue
        for call in model.calls.values():
            if call.caller != method.id:
                continue
            if call.receiver.kind is not ReceiverKind.FIELD:
                continue
            target = model.methods[call.static_target]
            if target.name != method.name or len(target.param_types) != len(method.param_types):
                continue
            field_decl = model.fields[call.receiver.field]
            field_type = None
            for tid, decl in model.types.items():
                if decl.qualified_name == field_decl.declared_type:
                    field_type = tid
                    break
            if field_type is None:
                named = [
                    tid for tid, decl in model.types.items()
                    if decl.qualified_name.rsplit(".", 1)[-1] == field_decl.declared_type
                ]
                field_type = named[0] if len(named) == 1 else None
            if field_type is None:
                continue
            if (rec_id, field_type) in pairs:
                out.add((method.id, call.static_target, call.id))
    return out


def _all_chains(nodes, edges, stop_at=frozenset(), min_len=2):
    """Maximal simple paths, restated: extend right until a stop node or no
    fresh successor, then keep paths long enough whose head has no fresh
    non-stop predecessor."""
    succs = {n: sorted({b for a, b in edges if a == n}) for n in nodes}
    preds = {n: sorted({a for a, b in edges if b == n}) for n in nodes}
    found = set()

    def walk(path):
        tail = path[-1]
        fresh = [] if tail in stop_at else [s for s in succs[tail] if s not in path]
        if fresh:
            for nxt in fresh:
                walk(path + [nxt])
            return
        if len(path) < min_len and tail not in stop_at:
            return
        if any(p not in path and p not in stop_at for p in preds[path[0]]):
            return
        found.add(tuple(path))

    for node in nodes:
        walk([node])
    return found


def maximal_chains_recursive(succ, pred, stop_at=None, min_len=2):
    """Maximal simple paths by the recursive search the chain queries used.

    It starts a walk at every node and copies the path and the visited set
    at every step; kept to check ``queries._maximal_chains`` on graphs whose
    edges carry call ids.  ``succ``/``pred`` map node -> list of (neighbor,
    call id), several calls per node pair allowed: the smallest call id of
    a pair links it.  Returns sorted, distinct (path, calls) pairs.
    """
    stop_at = stop_at or frozenset()

    def smallest_calls(relation):
        out = {}
        for node, pairs in relation.items():
            best = {}
            for neighbor, call in pairs:
                if neighbor not in best \
                        or natural_key_chunks(call) < natural_key_chunks(best[neighbor]):
                    best[neighbor] = call
            out[node] = sorted(best.items(), key=lambda pair: natural_key_chunks(pair[0]))
        return out

    succ = smallest_calls(succ)
    pred = smallest_calls(pred)
    chains = []

    def extend(path, calls, seen):
        tail = path[-1]
        nxt = [] if tail in stop_at else [
            (n, c) for n, c in succ.get(tail, ()) if n not in seen
        ]
        if nxt:
            for n, c in nxt:
                extend(path + [n], calls + [c], seen | {n})
            return
        if len(path) < min_len and tail not in stop_at:
            return
        head = path[0]
        grows_left = any(
            n not in seen and n not in stop_at for n, _ in pred.get(head, ())
        )
        if not grows_left:
            chains.append((tuple(path), tuple(calls)))

    for node in sorted(succ.keys() | pred.keys(), key=natural_key_chunks):
        extend([node], [], {node})
    return sorted(set(chains), key=lambda c: tuple(natural_key_chunks(m) for m in c[0]))


def _smallest_links(links) -> dict[tuple[str, str], tuple]:
    """(caller, callee) -> the (call id, ...) of its smallest call, from
    (caller, callee, call id, ...) tuples in any order."""
    out: dict[tuple[str, str], tuple] = {}
    for caller, callee, *link in links:
        best = out.get((caller, callee))
        if best is None or natural_key_chunks(link[0]) < natural_key_chunks(best[0]):
            out[caller, callee] = tuple(link)
    return out


def _ec_links(model: SourceModel, context: str, scope: str):
    """The methods with a context parameter in scope, and (caller, callee) ->
    (call id, caller parameter, callee argument) of the smallest call that
    passes a context parameter on, by its first such pass."""
    ids = scope_ids(model, scope)

    def ctx_params(mid):
        decl = model.methods[mid]
        if ids is not None and decl.owner not in ids:
            return []
        return [i for i, p in enumerate(decl.param_types) if p == context]

    nodes = {mid for mid in model.methods if ctx_params(mid)}
    links = []
    for call in model.calls.values():
        if call.caller in nodes and call.static_target in nodes \
                and call.caller != call.static_target:
            passes = [(param_index, arg_index) for arg_index, param_index in call.arg_passthrough
                      if param_index in ctx_params(call.caller)
                      and arg_index in ctx_params(call.static_target)]
            if passes:
                links.append((call.caller, call.static_target, call.id, *passes[0]))
    return nodes, _smallest_links(links)


def ec_chains(model: SourceModel, context: str, scope: str) -> set[tuple[str, ...]]:
    nodes, links = _ec_links(model, context, scope)
    return _all_chains(nodes, set(links), min_len=2)


def ec_hits(model: SourceModel, context: str, scope: str) -> set[tuple]:
    """(methods, calls, param_indices) of each EC chain."""
    _, links = _ec_links(model, context, scope)
    out = set()
    for path in ec_chains(model, context, scope):
        hops = [links[pair] for pair in zip(path, path[1:])]
        out.add((path, tuple(h[0] for h in hops), (hops[0][1], *(h[2] for h in hops))))
    return out


def _ep_links(model: SourceModel, exception: str):
    """The declarers, the direct raisers among them and (caller, callee) ->
    (call id,) of the smallest call between two declarers."""
    nodes = {
        mid for mid, decl in model.methods.items() if exception in decl.declared_throws
    }
    raisers = frozenset(
        mid for mid in nodes if exception in model.methods[mid].direct_throws
    )
    links = _smallest_links(
        (call.caller, call.static_target, call.id) for call in model.calls.values()
        if call.caller in nodes and call.static_target in nodes
        and call.caller != call.static_target)
    return nodes, raisers, links


def ep_chains(model: SourceModel, exception: str) -> set[tuple[str, ...]]:
    nodes, raisers, links = _ep_links(model, exception)
    return _all_chains(nodes, set(links), stop_at=raisers, min_len=2)


def ep_hits(model: SourceModel, exception: str) -> set[tuple]:
    """(methods, calls, root_raises) of each EP chain."""
    _, raisers, links = _ep_links(model, exception)
    return {(path, tuple(links[pair][0] for pair in zip(path, path[1:])), path[-1] in raisers)
            for path in ep_chains(model, exception)}


def rsi_hits(model: SourceModel, role_id: str, scope: str) -> set[tuple[str, str, str]]:
    ids = scope_ids(model, scope)
    pairs = subtype_pairs(model)
    full = overrides_full(model)
    out = set()
    for tid in model.types:
        if tid == role_id or (ids is not None and tid not in ids):
            continue
        if (tid, role_id) not in pairs:
            continue
        out.add((tid, role_id, "declares_role"))
        for method in model.methods.values():
            if method.owner != tid:
                continue
            for a, b in full:
                if a == method.id and model.methods[b].owner == role_id:
                    out.add((tid, method.id, "role_member"))
    return out


def sc_hits(model: SourceModel, scope: str, role_id: str | None) -> set[tuple[str, str]]:
    ids = scope_ids(model, scope)
    pairs = subtype_pairs(model)
    out = set()
    for tid, decl in model.types.items():
        if decl.enclosing_type is None:
            continue
        if ids is not None and decl.enclosing_type not in ids:
            continue
        if role_id is not None and (tid, role_id) not in pairs:
            continue
        out.add((decl.enclosing_type, tid))
    return out


def filtered_out(model: SourceModel, callee: str, config) -> bool:
    """Whether the accessor or utility filter drops a callee from mining."""
    from sortweaver.mining import is_accessor, matches_utility

    decl = model.methods[callee]
    return (config.accessor_filter and is_accessor(decl)) \
        or matches_utility(model, decl, config.utility_names)


def grouped(model: SourceModel, config, policy) -> set[tuple[frozenset, frozenset]]:
    """Exponential enumeration of every callee subset; desk scale only."""
    edges = lifted(model, policy)
    transactions: dict[str, set[str]] = {}
    for caller, callee in edges:
        if caller == callee or filtered_out(model, callee, config):
            continue
        transactions.setdefault(caller, set()).add(callee)

    pairs = subtype_pairs(model)
    universe = sorted({c for t in transactions.values() for c in t})
    out = set()
    for size in range(config.grouped_min_group, len(universe) + 1):
        for combo in combinations(universe, size):
            group = frozenset(combo)
            supporters = frozenset(
                caller for caller, callees in transactions.items() if group <= callees
            )
            if len(supporters) < config.grouped_min_callers:
                continue
            bigger = any(
                frozenset(
                    caller
                    for caller, callees in transactions.items()
                    if (group | {extra}) <= callees
                )
                == supporters
                for extra in universe
                if extra not in group
            )
            if bigger:
                continue
            owners = {model.methods[mid].owner for mid in supporters}
            shared = [
                tid
                for tid in model.types
                if all((owner, tid) in pairs for owner in owners)
            ]
            if not shared:
                continue
            out.add((group, supporters))
    return out


def grouped_pairwise(model: SourceModel, config) -> list[dict]:
    """Seed JSON of grouped-calls mining by the pairwise closure it replaced.

    Closes the transactions under intersection by meeting every new set with
    every set found so far (quadratic in the closed sets), then scans every
    transaction for each group's supporters.  Unlike the rest of this module
    it reads the library's lifted edges and filters, so it checks the
    closed-set search and the choice of ancestor, at sizes ``grouped``
    cannot reach.
    """
    from sortweaver.mining import Seed

    pairs = subtype_pairs(model)

    transactions: dict[str, frozenset[str]] = {}
    for caller, callee in sorted(model.lifted_edges()):
        if caller == callee or filtered_out(model, callee, config):
            continue
        transactions.setdefault(caller, frozenset())
        transactions[caller] |= {callee}

    closed: set[frozenset[str]] = set(transactions.values())
    worklist = list(closed)
    while worklist:
        current = worklist.pop()
        for other in list(closed):
            meet = current & other
            if len(meet) >= config.grouped_min_group and meet not in closed:
                closed.add(meet)
                worklist.append(meet)

    seeds = []
    for group in closed:
        if len(group) < config.grouped_min_group:
            continue
        supporters = frozenset(
            caller for caller, callees in transactions.items() if group <= callees
        )
        if len(supporters) < config.grouped_min_callers:
            continue
        meet = frozenset.intersection(*(transactions[c] for c in supporters))
        if meet != group:
            continue  # a superset has the same supporters
        ancestor = common_ancestor(model, {model.methods[c].owner for c in supporters}, pairs)
        if ancestor is None:
            continue
        seeds.append(
            Seed(
                sort_hint="CB",
                elements=group | supporters,
                score=len(supporters),
                evidence={
                    "group": sorted(group, key=natural_key_chunks),
                    "group_sigs": sorted(model.method_sig(m) for m in group),
                    "callers": sorted(supporters, key=natural_key_chunks),
                    "ancestor": ancestor,
                    "ancestor_name": model.types[ancestor].qualified_name,
                    "definition": "closed-itemset grouped calls",
                },
                technique="grouped",
                policy=model.policy,
            )
        )
    seeds.sort(key=lambda s: (-s.score, s.evidence["group_sigs"],
                              [natural_key_chunks(m) for m in s.evidence["group"]]))
    return [s.to_json() for s in seeds]


# -- the record decoder before the schema tables -----------------------------------
#
# One hand-written function per record kind, as the loader had them.  They
# differ from ``sortweaver.model`` in three places, on purpose: ``src`` is
# passed through ``str`` and ``ext`` through ``bool`` whatever their type,
# and a ``param`` receiver accepts a bool as its index.  A list or an object
# as the receiver kind raises TypeError here.  ``refused_by_the_tables``
# names those cases, and ``decode_record_as_tables`` refuses them as the
# model's decoder does.

_VIS_VALUES = {v.value for v in Visibility}
_KIND_VALUES = {k.value for k in TypeKind}
_RECV_VALUES = {r.value for r in ReceiverKind}


def decode_record(rec: dict, line: int | None):
    kind = rec.get("k")
    if kind == "type":
        return _type_from_record(rec, line)
    if kind == "method":
        return _method_from_record(rec, line)
    if kind == "field":
        return _field_from_record(rec, line)
    if kind == "call":
        return _call_from_record(rec, line)
    raise FactError(f"unknown record kind {kind!r}", line)


def refused_by_the_tables(rec):
    """(case, error) where the table decoder refuses a record that
    ``decode_record`` accepts or crashes on, else (None, None)."""
    recv = rec.get("recv")
    if rec.get("k") in ("type", "method") and "ext" in rec and not isinstance(rec["ext"], bool):
        return "ext", f"bad value for 'ext': {rec['ext']!r}"
    if "src" in rec and not isinstance(rec["src"], str):
        return "src", f"bad value for 'src': {rec['src']!r}"
    if isinstance(recv, dict) and isinstance(recv.get("kind"), (list, dict)):
        return "receiver kind", f"bad receiver kind {recv['kind']!r}"
    if isinstance(recv, dict) and recv.get("kind") == "param" \
            and isinstance(recv.get("index"), bool):
        return "index", "param receiver without a parameter index"
    return None, None


def decode_record_as_tables(rec: dict, line: int | None):
    """``decode_record``, but a record that only the table decoder refuses
    raises that decoder's error; a fault ``decode_record`` finds comes
    first."""
    case, error = refused_by_the_tables(rec)
    try:
        decl = decode_record(rec, line)
    except TypeError:
        if case is None:
            raise
    if case is not None:
        raise FactError(error, line)
    return decl


def _need(rec: dict, key: str, types_: tuple, line: int | None, allow_none: bool = False):
    if key not in rec:
        raise FactError(f"missing key {key!r} in {rec.get('k', '?')} record", line)
    value = rec[key]
    if value is None and allow_none:
        return None
    if not isinstance(value, types_) or (isinstance(value, bool) and bool not in types_):
        raise FactError(f"bad value for {key!r}: {value!r}", line)
    return value


def _str_list(rec: dict, key: str, line: int | None) -> tuple[str, ...]:
    value = _need(rec, key, (list,), line)
    if not all(isinstance(v, str) for v in value):
        raise FactError(f"bad value for {key!r}: {value!r}", line)
    return tuple(value)


def _type_from_record(rec: dict, line: int | None) -> TypeDecl:
    kind = _need(rec, "kind", (str,), line)
    if kind not in _KIND_VALUES:
        raise FactError(f"bad type kind {kind!r}", line)
    return TypeDecl(
        id=_need(rec, "id", (str,), line),
        qualified_name=_need(rec, "name", (str,), line),
        kind=TypeKind(kind),
        is_abstract=_need(rec, "abstract", (bool,), line),
        is_anonymous=_need(rec, "anon", (bool,), line),
        enclosing_type=_need(rec, "encl", (str,), line, allow_none=True),
        supertypes=_str_list(rec, "super", line),
        is_external=bool(rec.get("ext", False)),
        src=str(rec.get("src", "")),
    )


def _method_from_record(rec: dict, line: int | None) -> MethodDecl:
    vis = _need(rec, "vis", (str,), line)
    if vis not in _VIS_VALUES:
        raise FactError(f"bad visibility {vis!r}", line)
    stmts = _need(rec, "stmts", (int,), line)
    if stmts < 0:
        raise FactError(f"negative statement count {stmts}", line)
    raises = rec.get("raises", [])
    if not isinstance(raises, list) or not all(isinstance(v, str) for v in raises):
        raise FactError(f"bad value for 'raises': {raises!r}", line)
    return MethodDecl(
        id=_need(rec, "id", (str,), line),
        owner=_need(rec, "owner", (str,), line),
        name=_need(rec, "name", (str,), line),
        param_types=_str_list(rec, "params", line),
        return_type=_need(rec, "ret", (str,), line),
        visibility=Visibility(vis),
        is_static=_need(rec, "static", (bool,), line),
        is_abstract=_need(rec, "abstract", (bool,), line),
        is_constructor=_need(rec, "ctor", (bool,), line),
        declared_throws=_str_list(rec, "throws", line),
        body_stmt_count=stmts,
        direct_throws=tuple(raises),
        is_external=bool(rec.get("ext", False)),
        src=str(rec.get("src", "")),
    )


def _field_from_record(rec: dict, line: int | None) -> FieldDecl:
    vis = _need(rec, "vis", (str,), line)
    if vis not in _VIS_VALUES:
        raise FactError(f"bad visibility {vis!r}", line)
    return FieldDecl(
        id=_need(rec, "id", (str,), line),
        owner=_need(rec, "owner", (str,), line),
        name=_need(rec, "name", (str,), line),
        declared_type=_need(rec, "type", (str,), line),
        visibility=Visibility(vis),
        src=str(rec.get("src", "")),
    )


def _call_from_record(rec: dict, line: int | None) -> CallSite:
    recv = _need(rec, "recv", (dict,), line)
    recv_kind = recv.get("kind")
    if recv_kind not in _RECV_VALUES:
        raise FactError(f"bad receiver kind {recv_kind!r}", line)
    receiver = Receiver(
        kind=ReceiverKind(recv_kind),
        field=recv.get("field"),
        index=recv.get("index"),
    )
    if receiver.kind is ReceiverKind.FIELD and not isinstance(receiver.field, str):
        raise FactError("field receiver without a field id", line)
    if receiver.kind is ReceiverKind.PARAM and not isinstance(receiver.index, int):
        raise FactError("param receiver without a parameter index", line)
    ord_ = _need(rec, "ord", (int,), line)
    passes = _need(rec, "pass", (list,), line)
    pairs: list[tuple[int, int]] = []
    for pair in passes:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in pair)
        ):
            raise FactError(f"bad pass-through pair {pair!r}", line)
        pairs.append((pair[0], pair[1]))
    return CallSite(
        id=_need(rec, "id", (str,), line),
        caller=_need(rec, "caller", (str,), line),
        static_target=_need(rec, "target", (str,), line),
        receiver=receiver,
        ordinal=ord_,
        arg_passthrough=tuple(pairs),
        src=str(rec.get("src", "")),
    )


# -- the natural sort key before odd-index runs -------------------------------------
#
# Each chunk of the split that ``str.isdigit`` passes became a number, so an
# id holding "²" (a digit to ``isdigit``, not to ``int``) or a digit run
# longer than ``int()`` converts raised ``ValueError``.

_CHUNKS = re.compile(r"(\d+)")


def natural_key_chunks(text: str) -> tuple:
    return tuple([(0, int(chunk)) if chunk.isdigit() else (1, chunk)
                  for chunk in _CHUNKS.split(text) if chunk != ""])


# -- the model's checks before they read whole columns ------------------------------
#
# ``SourceModel``'s per-row loops as they stood before its checks tested whole
# columns, copied unchanged: each table in natural id order, the members
# grouped by owner, then the references, the structure and the supertype
# closure checked one row at a time.  ``SourceModel(...)`` must raise the
# same error, text and line, for every fact set, and none where these raise
# none.


class ModelChecks:
    """The per-row checks of four tables of declarations."""

    def __init__(self, types, methods, fields, calls):
        self._types = {t.id: t for t in sorted(types, key=lambda t: natural_key_chunks(t.id))}
        self._methods = {m.id: m for m in sorted(methods, key=lambda m: natural_key_chunks(m.id))}
        self._fields = {f.id: f for f in sorted(fields, key=lambda f: natural_key_chunks(f.id))}
        self._calls = {c.id: c for c in sorted(calls, key=lambda c: natural_key_chunks(c.id))}
        self._methods_by_owner = _by_owner(self._methods.values())
        self._fields_by_owner = _by_owner(self._fields.values())

    def check(self, lines) -> None:
        """Raise the first fault, as ``SourceModel`` did."""
        self._validate_references(lines)
        self._validate_structure(lines)
        self._compute_ancestors()

    def _validate_references(self, lines: Mapping[str, int | None]):
        for t in self._types.values():
            if t.enclosing_type is not None and t.enclosing_type not in self._types:
                raise FactError(f"type {t.id}: unknown enclosing type id {t.enclosing_type!r}",
                                lines.get(t.id))
            for sup in t.supertypes:
                if sup not in self._types:
                    raise FactError(f"type {t.id}: unknown supertype id {sup!r}", lines.get(t.id))
        for m in self._methods.values():
            if m.owner not in self._types:
                raise FactError(f"method {m.id}: unknown owner id {m.owner!r}", lines.get(m.id))
        for f in self._fields.values():
            if f.owner not in self._types:
                raise FactError(f"field {f.id}: unknown owner id {f.owner!r}", lines.get(f.id))
        for c in self._calls.values():
            if c.caller not in self._methods:
                raise FactError(f"call {c.id}: unknown caller id {c.caller!r}", lines.get(c.id))
            if c.static_target not in self._methods:
                raise FactError(f"call {c.id}: unknown target id {c.static_target!r}",
                                lines.get(c.id))
            if c.receiver.kind is ReceiverKind.FIELD and c.receiver.field not in self._fields:
                raise FactError(f"call {c.id}: unknown receiver field id {c.receiver.field!r}",
                                lines.get(c.id))

    def _validate_structure(self, lines: Mapping[str, int | None]):
        """Check the structural invariants, and index each method by
        (owner, signature) in the same pass over the owners."""
        for t in self._types.values():
            if t.is_anonymous and t.enclosing_type is None:
                raise FactError(f"type {t.id}: anonymous type without enclosing type",
                                lines.get(t.id))
            seen = {t.id}
            cursor = t.enclosing_type
            while cursor is not None:
                if cursor in seen:
                    raise FactError(f"type {t.id}: cyclic enclosing-type chain", lines.get(t.id))
                seen.add(cursor)
                cursor = self._types[cursor].enclosing_type
        by_sig: dict[tuple[str, tuple], str] = {}
        self._method_by_owner_sig = by_sig
        for owner, methods in self._methods_by_owner.items():
            for m in methods:
                if m.is_abstract and m.body_stmt_count != 0:
                    raise FactError(f"method {m.id}: abstract method with a body",
                                    lines.get(m.id))
                key = (owner, m.signature)
                if key in by_sig:
                    raise FactError(
                        f"method {m.id}: duplicate signature "
                        f"{m.name}({','.join(m.param_types)}) in type {owner} "
                        f"(already declared by {by_sig[key]})",
                        lines.get(m.id),
                    )
                by_sig[key] = m.id
        for owner, fields in self._fields_by_owner.items():
            names: dict[str, str] = {}
            for f in fields:
                if f.name in names:
                    raise FactError(
                        f"field {f.id}: duplicate field name {f.name!r} in type {owner}",
                        lines.get(f.id),
                    )
                names[f.name] = f.id
        for c in self._calls.values():
            caller = self._methods[c.caller]
            target = self._methods[c.static_target]
            if not 1 <= c.ordinal <= caller.body_stmt_count:
                raise FactError(
                    f"call {c.id}: ordinal {c.ordinal} outside caller body "
                    f"(1..{caller.body_stmt_count})",
                    lines.get(c.id),
                )
            for arg_index, param_index in c.arg_passthrough:
                if not 0 <= arg_index < target.arity:
                    raise FactError(f"call {c.id}: pass-through argument index {arg_index} "
                                    f"outside callee arity {target.arity}", lines.get(c.id))
                if not 0 <= param_index < caller.arity:
                    raise FactError(f"call {c.id}: pass-through parameter index {param_index} "
                                    f"outside caller arity {caller.arity}", lines.get(c.id))
            if c.receiver.kind is ReceiverKind.PARAM and not (
                c.receiver.index is not None and 0 <= c.receiver.index < caller.arity
            ):
                raise FactError(f"call {c.id}: parameter receiver index out of range", lines.get(c.id))

    def _compute_ancestors(self) -> dict[str, frozenset[str]]:
        resolved: dict[str, frozenset[str]] = {}
        for start in self._types:
            # Depth-first with an explicit path (type -> iterator over its
            # supertypes), so hierarchy depth is not bounded by recursion.
            path = {} if start in resolved else {start: iter(self._types[start].supertypes)}
            while path:
                tid, pending = next(reversed(path.items()))
                sup = next((s for s in pending if s not in resolved), None)
                if sup is None:
                    path.popitem()
                    ups = (resolved[s] for s in self._types[tid].supertypes)
                    resolved[tid] = frozenset({tid}.union(*ups))
                elif sup in path:
                    keys = list(path)
                    names = " -> ".join(self._types[x].qualified_name
                                        for x in keys[keys.index(sup):] + [sup])
                    raise FactError(f"cycle in supertype hierarchy: {names}")
                else:
                    path[sup] = iter(self._types[sup].supertypes)
        return resolved


def _by_owner(members) -> dict[str, tuple]:
    grouped: dict[str, list] = {}
    for member in members:
        grouped.setdefault(member.owner, []).append(member)
    return {owner: tuple(group) for owner, group in grouped.items()}


# -- the fact loader before the column checks ---------------------------------------
#
# ``json.loads`` per line and ``decode_record_as_tables`` per record, as the
# loader had them.  ``sortweaver.model.load_facts`` and ``load_records`` must
# give the same model, or the same error text and line, for every input.


def load_facts_per_record(lines, policy=DEFAULT_POLICY) -> SourceModel:
    records = []
    for lineno, raw in enumerate(lines, start=1):
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FactError(f"not valid UTF-8 ({exc.reason})", lineno) from None
        text = raw.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FactError(f"invalid JSON: {exc.msg}", lineno) from None
        except ValueError:
            raise FactError("invalid JSON: integer has too many digits", lineno) from None
        except RecursionError:
            raise FactError("input nests too deeply", lineno) from None
        if not isinstance(rec, dict):
            raise FactError("record is not a JSON object", lineno)
        records.append((lineno, rec))
    return load_records_per_record(records, policy)


def load_records_per_record(records, policy=DEFAULT_POLICY) -> SourceModel:
    decls: dict[str, list] = {"type": [], "method": [], "field": [], "call": []}
    seen_ids: dict[str, int | None] = {}
    for item in records:
        line, rec = item if isinstance(item, tuple) else (None, item)
        decl = decode_record_as_tables(rec, line)
        if decl.id in seen_ids:
            raise FactError(f"duplicate id {decl.id!r}", line)
        seen_ids[decl.id] = line
        decls[rec["k"]].append(decl)
    types = decls["type"]
    known = {t.id for t in types}
    for decl in tuple(types):
        for sup in decl.supertypes:
            if sup not in known:
                types.append(TypeDecl(id=sup, qualified_name=sup, kind=TypeKind.CLASS,
                                      is_external=True))
                known.add(sup)
    return SourceModel(types, decls["method"], decls["field"], decls["call"], policy, seen_ids)


# -- the MiniLang tokenizer before the master pattern -------------------------------
#
# A per-character scanner, as the lexer had it.  It differs from
# ``sortweaver.minilang.lexer`` in one place, on purpose: an int literal is a
# run of ``str.isdigit`` characters, so ``²`` or ``①`` starts or continues one
# although ``int()`` rejects it.

_PUNCT = {"{", "}", "(", ")", ",", ";", "."}


def tokenize_per_character(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def pos() -> Position:
        return Position(line, col)

    def advance(count: int):
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("//", i):
            end = text.find("\n", i)
            advance((end - i) if end != -1 else (n - i))
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end == -1:
                raise MiniLangSyntaxError(pos(), "unterminated block comment")
            advance(end + 2 - i)
            continue
        if ch == '"':
            start = pos()
            j = i + 1
            while j < n and text[j] not in ('"', "\n"):
                j += 1
            if j >= n or text[j] != '"':
                raise MiniLangSyntaxError(start, "unterminated string literal")
            tokens.append(Token("string", text[i + 1:j], start))
            advance(j + 1 - i)
            continue
        if ch.isdigit():
            start = pos()
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], start))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            start = pos()
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            tokens.append(Token("keyword" if word in KEYWORDS else "ident", word, start))
            advance(j - i)
            continue
        if text.startswith("==", i) or text.startswith("!=", i):
            tokens.append(Token("op", text[i:i + 2], pos()))
            advance(2)
            continue
        if ch == "=":
            tokens.append(Token("op", "=", pos()))
            advance(1)
            continue
        if ch in _PUNCT:
            tokens.append(Token("punct", ch, pos()))
            advance(1)
            continue
        raise MiniLangSyntaxError(pos(), f"unexpected character {ch!r}")

    tokens.append(Token("eof", "", Position(line, col)))
    return tokens

