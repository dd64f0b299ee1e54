"""Sort-specific refactoring plans: aspect text, source edits, risk warnings.

``plan_for``, the one planning entry, turns one query result into a
:class:`RefactoringPlan` through its sort's planner: a renderable aspect
document, a machine-readable edit list against the fact model, and the
warnings from the risk catalog.  Each planner gathers evidence per catalog
code, and a warning fires exactly when its evidence is non-empty;
``combine_plans`` adds the ``PRECEDENCE`` warnings of a group.  Edits are not
applied to source text; ``apply_edits`` replays the deletion edits on the
fact model so closure properties can be checked (a consistent-behavior plan
drives its originating query to empty).
"""

from __future__ import annotations

from typing import NamedTuple

from .._util import TYPED_EQUALITY, id_order, lower_first, upper_first
from ..model import DispatchPolicy, ReceiverKind, SourceModel, Visibility
from ..queries import ADVICE_KINDS, CbHit, QueryResult, SortKind
from .aspect_text import (
    Advice,
    AndExpr,
    Args,
    AspectDoc,
    CallPattern,
    Cflow,
    CommentStanza,
    DeclareParents,
    DeclareSoft,
    Execution,
    IntroMethod,
    MovedClass,
    NotExpr,
    OrExpr,
    PointcutDef,
    PointcutRef,
    ThisBinding,
    Within,
    render_doc,
)


class PlanError(ValueError):
    pass


#: Stable risk catalog: code -> (severity, message).  A planner warns with a
#: code exactly when it found evidence for it; ``PRECEDENCE`` comes from
#: ``check_precedence`` over the plans of a group.
WARNING_CATALOG: dict[str, tuple[str, str]] = {
    "ANON_CALLERS": (
        "caution",
        "anonymous classes cannot be referred to consistently; the generic "
        "pointcut excludes their enclosing context",
    ),
    "TANGLED": (
        "caution",
        "matched calls sit mid-body; a high degree of tangling may prevent "
        "automatic refactoring",
    ),
    "SUPER_CALL": (
        "caution",
        "calls to superclass functionality cannot be migrated into advice; "
        "the advice body must inline the behavior",
    ),
    "ENCAPSULATION": (
        "caution",
        "the advice needs access to non-public members; requires a privileged "
        "aspect or weaker encapsulation",
    ),
    "OMISSION_CHECK": (
        "info",
        "methods matched by the pointcut never perform the action; check that "
        "the omissions are not on purpose",
    ),
    "REDIR_EXTRA_ROLES": (
        "caution",
        "the redirector implements members beyond the delegated pairs; "
        "replacing it drops those roles",
    ),
    "REDIR_CLIENTS": (
        "caution",
        "the receiver is also called directly; advised calls must be filtered "
        "to those previously routed through the redirector",
    ),
    "REDIR_NEW_METHODS": (
        "info",
        "receiver methods without a redirecting pair; new receiver methods "
        "are not covered by the aspect automatically",
    ),
    "VISIBILITY_CHANGE": (
        "caution",
        "a non-public role member cannot be introduced with its original "
        "visibility; it is introduced as public",
    ),
    "INTRO_CONFLICT": (
        "blocker",
        "a role member also overrides a non-role member; introducing it from "
        "the aspect would clash",
    ),
    "SC_NOT_INTRODUCIBLE": (
        "caution",
        "nested classes cannot be introduced; the support class is moved "
        "into the aspect, weakening its tie to the enclosing class",
    ),
    "SC_BROKEN_DEPS": (
        "caution",
        "the moved support class uses private members of its enclosing "
        "class; the enclosing interface must widen",
    ),
    "EP_TYPE_LOST": (
        "caution",
        "softening loses the declared exception type; top-of-chain handlers "
        "must unwrap the soft exception",
    ),
    "EP_OVERRIDES": (
        "caution",
        "override-related methods declare the same exception outside the "
        "chain; their throws clauses need refactoring too",
    ),
    "PRECEDENCE": (
        "info",
        "plans advise overlapping join points; advice precedence is "
        "unspecified and may interfere",
    ),
}

EDIT_KINDS = (
    "delete_call_site",
    "delete_throws_clause",
    "move_member_to_aspect",
    "move_nested_class_to_aspect",
    "replace_type_removal",
    "remove_param",
)


class RiskWarning(NamedTuple):
    code: str
    severity: str
    message: str
    evidence: tuple[str, ...] = ()
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    def to_json(self) -> dict:
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "evidence": list(self.evidence),
        }


def warn(code: str, evidence=()) -> RiskWarning:
    severity, message = WARNING_CATALOG[code]
    return RiskWarning(code, severity, message, tuple(sorted(evidence, key=id_order)))


class _SourceEditFields(NamedTuple):
    kind: str
    target: str
    description: str
    detail: tuple[tuple[str, str], ...] = ()
    __eq__, __ne__, __hash__ = TYPED_EQUALITY


class SourceEdit(_SourceEditFields):
    """One edit of the source; building one refuses a kind that is not in
    ``EDIT_KINDS``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SourceEdit:
        edit = super().__new__(cls, *args, **kwargs)
        if edit.kind not in EDIT_KINDS:
            raise PlanError(f"unknown edit kind {edit.kind!r}")
        return edit

    def detail_value(self, key: str) -> str | None:
        for k, v in self.detail:
            if k == key:
                return v
        return None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "target": self.target,
            "description": self.description,
            "detail": dict(self.detail),
        }


class RefactoringPlan(NamedTuple):
    sort: str
    doc: AspectDoc
    edits: tuple[SourceEdit, ...]
    warnings: tuple[RiskWarning, ...]
    instance_path: str = ""
    notes: tuple[str, ...] = ()
    advised_methods: frozenset[str] = frozenset()
    __eq__, __ne__, __hash__ = TYPED_EQUALITY

    @property
    def aspect_name(self) -> str:
        return self.doc.name

    @property
    def aspect_text(self) -> str:
        return render_doc(self.doc)

    def to_json(self) -> dict:
        return {
            "instance_path": self.instance_path,
            "aspect_name": self.aspect_name,
            "sort": self.sort,
            "aspect_text": self.aspect_text,
            "edits": [e.to_json() for e in self.edits],
            "warnings": [w.to_json() for w in self.warnings],
            "notes": list(self.notes),
        }


def _sorted_warnings(warnings) -> tuple[RiskWarning, ...]:
    return tuple(sorted(set(warnings), key=lambda w: (w.code, w.evidence, w.message)))


def _warnings(evidence: dict[str, list[str]]) -> tuple[RiskWarning, ...]:
    """One warning per catalog code with non-empty evidence, sorted; an id
    the evidence repeats is listed once."""
    return _sorted_warnings(warn(code, dict.fromkeys(ids))
                            for code, ids in evidence.items() if ids)


def _execution(model: SourceModel, mid: str) -> Execution:
    m = model.methods[mid]
    return Execution(m.return_type, model.types[m.owner].qualified_name, m.name,
                     ",".join(m.param_types))


def _any_of(terms):
    """The single term, or their disjunction."""
    return terms[0] if len(terms) == 1 else OrExpr(tuple(terms))


# -- consistent behavior ---------------------------------------------------------


def _plan_cb(
    model: SourceModel,
    result: QueryResult,
    *,
    advice: str | None = None,
    enumerate_callers: bool = False,
) -> RefactoringPlan:
    """Pointcut-and-advice plan for a consistent-behavior result.

    The advice kind is proposed from hit positions (all first -> before,
    all last -> after, otherwise around) and can be overridden.  The default
    pointcut is generic over the scope type with subtree ``+`` and
    ``!within`` exclusions for anonymous callers; ``enumerate_callers``
    switches to one execution term per caller.
    """
    hits = result.hits
    target = model.methods[hits[0].target]
    target_sig = model.method_sig(target.id)
    scope_name = result.binding.param("scope", "*")
    callers = sorted({h.caller for h in hits}, key=model.method_rank)
    named = [c for c in callers if not model.types[model.methods[c].owner].is_anonymous]
    anonymous = [c for c in callers if model.types[model.methods[c].owner].is_anonymous]

    proposed = _advice_kind(model, hits)
    kind = advice or proposed
    if kind not in ADVICE_KINDS:
        raise PlanError(f"unknown advice kind {kind!r}")
    tangled = []
    if proposed == "around":
        tangled = [h.call for h in hits if not _first_or_last(model, h)] or [h.call for h in hits]
    receivers = [model.calls[h.call].receiver for h in hits]
    encapsulation = [target.id] if target.visibility is not Visibility.PUBLIC else []
    encapsulation += [r.field for r in receivers if r.kind is ReceiverKind.FIELD
                      and model.fields[r.field].visibility is Visibility.PRIVATE]

    scope_type = None
    if scope_name not in ("", "*") and not scope_name.endswith("."):
        scope_type = model.type_by_name(scope_name)

    shared = _shared_signature(model, callers)
    advised: set[str] = set(named)
    omissions: list[str] = []
    notes: list[str] = []

    if enumerate_callers or scope_type is None or shared is None:
        if not enumerate_callers:
            notes.append(
                "callers do not share a scope type and signature; "
                "emitted an enumerated pointcut"
            )
        if anonymous:
            notes.append("anonymous callers cannot be enumerated and are left out")
        if not named:
            raise PlanError("no named callers to enumerate")
        pointcut_name = f"{target.name}Callers"
        pointcut = PointcutDef(pointcut_name, (), _any_of([_execution(model, c) for c in named]))
        advice_params: tuple[tuple[str, str], ...] = ()
        ref = PointcutRef(pointcut_name, ())
    else:
        name, params, ret = shared
        var = lower_first(scope_type.simple_name)
        pointcut_name = f"{name}{upper_first(scope_type.simple_name)}"
        subtypes = any(model.methods[c].owner != scope_type.id for c in callers)
        terms = [
            ThisBinding(var),
            Execution(ret, scope_type.qualified_name, name, ",".join(params), subtypes),
        ]
        for encl in sorted({
            model.types[model.types[model.methods[c].owner].enclosing_type].simple_name
            for c in anonymous
        }):
            terms.append(NotExpr(Within(f"*..{encl}.*")))
        pointcut = PointcutDef(pointcut_name, ((scope_type.qualified_name, var),),
                               AndExpr(tuple(terms)))
        advice_params = ((scope_type.qualified_name, var),)
        ref = PointcutRef(pointcut_name, (var,))
        matching = [
            m.id
            for tid in model.types if model.is_subtype(tid, scope_type.id)
            for m in model.methods_of(tid)
            if (m.name, m.param_types, m.return_type) == shared
        ]
        caller_set = set(callers)
        omissions = [
            mid for mid in matching
            if mid not in caller_set and mid != target.id
            and model.methods[mid].body_stmt_count > 0
        ]
        advised = {m for m in matching if not model.types[model.methods[m].owner].is_anonymous}

    body = [f"// crosscut action: invoke {target_sig}"]
    if kind == "around":
        body.append("proceed();")
    stanzas = (pointcut, Advice(kind, "void" if kind == "around" else None,
                                advice_params, ref, tuple(body)))

    edits = tuple(
        SourceEdit(
            "delete_call_site",
            h.call,
            f"delete the call to {target_sig} in {model.method_sig(h.caller)}",
        )
        for h in hits
    )
    return RefactoringPlan(
        sort="CB",
        doc=AspectDoc(f"{upper_first(target.name)}Aspect", stanzas),
        edits=edits,
        warnings=_warnings({
            "TANGLED": tangled,
            "SUPER_CALL": [h.call for h, r in zip(hits, receivers)
                           if r.kind is ReceiverKind.SUPER],
            "ENCAPSULATION": encapsulation,
            "ANON_CALLERS": anonymous,
            "OMISSION_CHECK": omissions,
        }),
        notes=tuple(notes),
        advised_methods=frozenset(advised),
    )


def _advice_kind(model: SourceModel, hits) -> str:
    if all(h.ordinal == 1 for h in hits):
        return "before"
    if all(h.ordinal == model.methods[h.caller].body_stmt_count for h in hits):
        return "after"
    return "around"


def _first_or_last(model: SourceModel, hit: CbHit) -> bool:
    return hit.ordinal in (1, model.methods[hit.caller].body_stmt_count)


def _shared_signature(model: SourceModel, callers) -> tuple | None:
    sigs = {
        (model.methods[c].name, model.methods[c].param_types, model.methods[c].return_type)
        for c in callers
    }
    return next(iter(sigs)) if len(sigs) == 1 else None


# -- redirection layer --------------------------------------------------------------


def _plan_rl(model: SourceModel, result: QueryResult) -> RefactoringPlan:
    """Around-advice per receiver method of the delegation pairs, however
    many redirector methods reach it; the redirector type is retired."""
    hits = result.hits
    redirector = model.require_type(result.binding.param("redirector"))
    receiver = model.require_type(result.binding.param("receiver"))

    pairs = sorted(
        {(h.redirector_method, h.receiver_method) for h in hits},
        key=lambda p: (model.method_rank(p[0]), model.method_rank(p[1])),
    )
    delegating = {r for r, _ in pairs}
    receiver_methods = dict.fromkeys(r for _, r in pairs)  # in order of first pair

    filtered = PointcutDef(
        "filteredCallers", (), NotExpr(Within(redirector.qualified_name))
    )
    stanzas: list = [filtered]
    for receiver_mid in receiver_methods:
        m = model.methods[receiver_mid]
        owner = model.types[m.owner].qualified_name
        stanzas.append(
            Advice(
                "around",
                m.return_type,
                (),
                AndExpr(
                    (
                        CallPattern(m.return_type, owner, m.name, ",".join(m.param_types)),
                        PointcutRef("filteredCallers", ()),
                    )
                ),
                (
                    f"// addBehavior1: what {redirector.simple_name} did before redirecting",
                    "proceed();",
                    "// addBehavior2: what it did after redirecting",
                ),
            )
        )

    warnings = _warnings({
        "REDIR_EXTRA_ROLES": [
            m.id
            for m in model.methods_of(redirector.id)
            if not m.is_constructor and m.id not in delegating
        ],
        "REDIR_CLIENTS": [
            call.id
            for mid in receiver_methods
            for call in model.calls_to(mid, DispatchPolicy.STATIC_ONLY)
            if model.methods[call.caller].owner != redirector.id
        ],
        "REDIR_NEW_METHODS": [
            m.id
            for m in model.methods_of(receiver.id)
            if not m.is_constructor
            and m.visibility is Visibility.PUBLIC
            and m.id not in receiver_methods
        ],
    })

    edits = (
        SourceEdit(
            "replace_type_removal",
            redirector.id,
            f"retire redirector type {redirector.qualified_name}; its behavior "
            "moves into around advice",
        ),
    )
    return RefactoringPlan(
        sort="RL",
        doc=AspectDoc(f"{redirector.simple_name}Layer", tuple(stanzas)),
        edits=edits,
        warnings=warnings,
        advised_methods=frozenset(receiver_methods),
    )


# -- expose context -------------------------------------------------------------------


def _plan_ec(model: SourceModel, result: QueryResult) -> RefactoringPlan:
    """Wormhole plan: caller-space and callee-space pointcuts replace the
    threaded parameter; intermediate signatures lose the parameter."""
    chains = result.hits
    context = result.binding.param("context")

    heads: dict[str, int] = {}
    tails: list[str] = []
    for chain in chains:
        heads.setdefault(chain.methods[0], chain.param_indices[0])
        tails.append(chain.methods[-1])

    head_terms = []
    for mid in sorted(heads, key=model.method_rank):
        m = model.methods[mid]
        slots = ["*"] * m.arity
        slots[heads[mid]] = "ctx"
        head_terms.append(AndExpr((_execution(model, mid), Args(", ".join(slots)))))
    caller_space = PointcutDef("callerSpace", ((context, "ctx"),), _any_of(head_terms))
    tail_terms = [_execution(model, mid) for mid in sorted(set(tails), key=model.method_rank)]
    callee_space = PointcutDef("calleeSpace", (), _any_of(tail_terms))
    advice = Advice(
        "around",
        "void",
        ((context, "ctx"),),
        AndExpr((Cflow(PointcutRef("callerSpace", ("ctx",))), PointcutRef("calleeSpace", ()))),
        ("// the context flows from the caller space; the parameter chain is gone",),
    )

    intermediates: dict[str, int] = {}
    call_edits: dict[str, SourceEdit] = {}
    notes: list[str] = []
    for chain in chains:
        if len(chain.methods) == 2:
            notes.append(
                "chain "
                + " -> ".join(model.method_sig(m) for m in chain.methods)
                + " has no intermediate methods; no signature edits"
            )
        for position in range(1, len(chain.methods) - 1):
            intermediates.setdefault(chain.methods[position], chain.param_indices[position])
        for position, call_id in enumerate(chain.calls):
            caller, callee = chain.methods[position], chain.methods[position + 1]
            if (callee in intermediates or caller in intermediates) \
                    and call_id not in call_edits:
                call_edits[call_id] = SourceEdit(
                    "remove_param",
                    call_id,
                    f"drop the {context} argument from the call "
                    f"{model.method_sig(caller)} -> {model.method_sig(callee)}",
                    (("arg_index", str(chain.param_indices[position + 1])),),
                )
    param_edits = [
        SourceEdit(
            "remove_param",
            mid,
            f"drop the pass-through {context} parameter from {model.method_sig(mid)}",
            (("param_index", str(intermediates[mid])),),
        )
        for mid in sorted(intermediates, key=model.method_rank)
    ]

    return RefactoringPlan(
        sort="EC",
        doc=AspectDoc(
            f"{context.rsplit('.', 1)[-1]}Wormhole", (caller_space, callee_space, advice)
        ),
        edits=(*call_edits.values(), *param_edits),
        warnings=(),
        notes=tuple(notes),
        advised_methods=frozenset(heads) | frozenset(tails),
    )


# -- role superimposition -----------------------------------------------------------


def _plan_rsi(model: SourceModel, result: QueryResult) -> RefactoringPlan:
    """Declare-parents plus inter-type members for a secondary role."""
    hits = result.hits
    role = model.require_type(result.binding.param("role"))

    stanzas: list = []
    edits: list[SourceEdit] = []
    altered: list[str] = []
    conflicts: list[str] = []

    for hit in hits:
        if hit.kind != "declares_role":
            continue
        stanzas.append(
            DeclareParents(model.types[hit.type_id].qualified_name, role.qualified_name)
        )
    for hit in hits:
        if hit.kind != "role_member":
            continue
        member = model.methods[hit.member]
        owner = model.types[member.owner].qualified_name
        if member.visibility is not Visibility.PUBLIC:
            altered.append(member.id)
        if any(not model.is_subtype(role.id, model.methods[overridden].owner)
               for overridden in model.overrides_all(member.id)):
            conflicts.append(member.id)
        stanzas.append(
            IntroMethod(
                "public",
                member.return_type,
                owner,
                member.name,
                ",".join(member.param_types),
                (f"// moved from {model.method_sig(member.id)}",),
            )
        )
        edits.append(
            SourceEdit(
                "move_member_to_aspect",
                member.id,
                f"move role member {model.method_sig(member.id)} into the aspect",
            )
        )

    return RefactoringPlan(
        sort="RSI",
        # Implementors or members that share a qualified name share a stanza.
        doc=AspectDoc(f"{role.simple_name}Role", tuple(dict.fromkeys(stanzas))),
        edits=tuple(edits),
        warnings=_warnings({"VISIBILITY_CHANGE": altered, "INTRO_CONFLICT": conflicts}),
    )


# -- support classes -------------------------------------------------------------------


def _plan_sc(model: SourceModel, result: QueryResult) -> RefactoringPlan:
    """Move nested support classes into the aspect (no introduction exists)."""
    hits = result.hits

    stanzas: list = []
    edits: list[SourceEdit] = []
    broken: list[str] = []
    for hit in hits:
        nested = model.types[hit.nested]
        enclosing = model.types[hit.enclosing]
        supertype = None
        if nested.supertypes:
            supertype = model.types[nested.supertypes[0]].qualified_name
        stanzas.append(
            MovedClass(
                nested.simple_name,
                supertype,
                (f"// moved from {nested.qualified_name}",),
            )
        )
        edits.append(
            SourceEdit(
                "move_nested_class_to_aspect",
                nested.id,
                f"move support class {nested.qualified_name} into the aspect",
            )
        )
        for method in model.methods_of(nested.id):
            for call in model.calls_of(method.id):
                recv = call.receiver
                if recv.kind is ReceiverKind.FIELD:
                    fld = model.fields[recv.field]
                    if fld.owner == enclosing.id and fld.visibility is Visibility.PRIVATE:
                        broken.append(fld.id)
                target = model.methods[call.static_target]
                if target.owner == enclosing.id and target.visibility is Visibility.PRIVATE:
                    broken.append(target.id)

    enclosing_name = model.types[hits[0].enclosing].simple_name
    return RefactoringPlan(
        sort="SC",
        doc=AspectDoc(f"{enclosing_name}Support", tuple(stanzas)),
        edits=tuple(edits),
        warnings=_warnings({
            "SC_NOT_INTRODUCIBLE": [hit.nested for hit in hits],
            "SC_BROKEN_DEPS": broken,
        }),
    )


# -- exception propagation ----------------------------------------------------------------


def _plan_ep(model: SourceModel, result: QueryResult) -> RefactoringPlan:
    """Declare-soft keyed on the chain roots; non-root throws clauses go."""
    chains = result.hits
    exception = result.binding.param("exception")

    roots = sorted({c.methods[-1] for c in chains}, key=model.method_rank)
    members = sorted({m for c in chains for m in c.methods}, key=model.method_rank)
    non_roots = [m for m in members if m not in roots]

    stanzas: list = []
    for root in roots:
        m = model.methods[root]
        stanzas.append(
            DeclareSoft(
                exception,
                CallPattern(
                    "*", model.types[m.owner].qualified_name, m.name, "..", exception
                ),
            )
        )
    stanzas = list(dict.fromkeys(stanzas))  # overloaded roots share one: `..` matches both

    catch_notes: list[str] = []
    heads = sorted({c.methods[0] for c in chains}, key=model.method_rank)
    for head in heads:
        catchers = sorted(
            {
                call.caller
                for call in model.calls_to(head, DispatchPolicy.STATIC_ONLY)
                if exception not in model.methods[call.caller].declared_throws
            },
            key=model.method_rank,
        )
        for catcher in catchers:
            catch_notes.append(
                f"capture SoftException at the top of the call chain: rewrite "
                f"the {exception} catch in {model.method_sig(catcher)}"
            )
        if not catchers:
            catch_notes.append(
                f"no catch site found above {model.method_sig(head)}; the soft "
                "exception surfaces to callers"
            )
    catch_notes = list(dict.fromkeys(catch_notes))  # a catcher shared by heads is named once
    stanzas.append(CommentStanza(tuple(catch_notes)))

    edits = tuple(
        SourceEdit(
            "delete_throws_clause",
            mid,
            f"remove {exception} from the throws clause of {model.method_sig(mid)}",
            (("exception", exception),),
        )
        for mid in non_roots
    )
    notes = list(catch_notes)
    if any(len(c.methods) == 1 for c in chains):
        notes.append("single-method chain: nothing to unthread, only the root remains")

    member_set = set(members)
    related = [
        other
        for mid in members
        for other in model.overrides_all(mid) | model.overridden_by(mid)
        if other not in member_set and exception in model.methods[other].declared_throws
    ]

    return RefactoringPlan(
        sort="EP",
        doc=AspectDoc(f"{exception.rsplit('.', 1)[-1]}Softening", tuple(stanzas)),
        edits=edits,
        warnings=_warnings({"EP_TYPE_LOST": [exception], "EP_OVERRIDES": related}),
        notes=tuple(notes),
    )


# -- composition, application, interference ------------------------------------------------


_PLANNERS = {SortKind.CB: _plan_cb, SortKind.RL: _plan_rl, SortKind.EC: _plan_ec,
             SortKind.RSI: _plan_rsi, SortKind.SC: _plan_sc, SortKind.EP: _plan_ep}


def plan_for(
    model: SourceModel,
    result: QueryResult,
    *,
    advice: str | None = None,
    enumerate_callers: bool = False,
    instance_path: str = "",
) -> RefactoringPlan:
    """The one planning entry: refuse an empty result, run the sort's
    planner and place its plan at ``instance_path``.  The aspect keeps the
    planner's name; ``combine_plans`` names the aspect a command prints.
    ``advice`` and ``enumerate_callers`` apply to CB results only."""
    sort = result.sort
    if not result.hits:
        raise PlanError(f"cannot plan an empty {sort.value} result")
    options = {"advice": advice, "enumerate_callers": enumerate_callers} \
        if sort is SortKind.CB else {}
    return _PLANNERS[sort](model, result, **options)._replace(instance_path=instance_path)


def combine_plans(
    aspect_name: str, plans: list[RefactoringPlan], instance_path: str = ""
) -> RefactoringPlan:
    """Merge several plans into one aspect (e.g. an undo aspect holding the
    moved support class, the role introductions and the execute advice).
    Duplicate stanzas, edits and notes are kept once; the plans' sorted
    warnings are followed by their ``PRECEDENCE`` warnings."""
    if not plans:
        raise PlanError("nothing to combine")
    warnings = _sorted_warnings(w for plan in plans for w in plan.warnings)
    return RefactoringPlan(
        sort="+".join(dict.fromkeys(p.sort for p in plans)),
        doc=AspectDoc(aspect_name, tuple(dict.fromkeys(
            stanza for plan in plans for stanza in plan.doc.stanzas))),
        edits=tuple(dict.fromkeys(edit for plan in plans for edit in plan.edits)),
        warnings=warnings + tuple(check_precedence(plans)),
        instance_path=instance_path,
        notes=tuple(dict.fromkeys(note for plan in plans for note in plan.notes)),
        advised_methods=frozenset().union(*(plan.advised_methods for plan in plans)),
    )


def apply_edits(model: SourceModel, edits) -> SourceModel:
    """Replay deletion edits on the fact model and rebuild it.

    ``delete_call_site`` removes the call record; ``delete_throws_clause``
    removes the named exception from the method's throws list.  Structural
    move edits change no facts (the moved member still exists, now aspect
    side), so they are accepted and ignored here.
    """
    drop_calls = {e.target for e in edits if e.kind == "delete_call_site"}
    unthrow: dict[str, set[str]] = {}
    for e in edits:
        if e.kind == "delete_throws_clause":
            unthrow.setdefault(e.target, set()).add(e.detail_value("exception"))
    methods = [
        m._replace(declared_throws=tuple(t for t in m.declared_throws if t not in unthrow[m.id]))
        if m.id in unthrow else m
        for m in model.methods.values()
    ]
    calls = [c for c in model.calls.values() if c.id not in drop_calls]
    return SourceModel(model.types.values(), methods, model.fields.values(), calls, model.policy)


def check_precedence(plans: list[RefactoringPlan]) -> list[RiskWarning]:
    """Pairwise interference: plans whose advice shares join points."""
    warnings = []
    for i, first in enumerate(plans):
        for second in plans[i + 1:]:
            overlap = first.advised_methods & second.advised_methods
            if overlap:
                warnings.append(
                    RiskWarning(
                        "PRECEDENCE",
                        WARNING_CATALOG["PRECEDENCE"][0],
                        f"aspects {first.aspect_name} and {second.aspect_name} advise "
                        "overlapping join points; advice precedence is unspecified",
                        tuple(sorted(overlap, key=id_order)),
                    )
                )
    return warnings
