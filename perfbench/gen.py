"""Seeded input generator for the benchmark workloads.

Every input file is a pure function of (workload, seed, size): the same
arguments always give byte-identical files.  The seed only chooses *which*
entities are linked and how they are named; every count (types, methods,
call sites, chain lengths, script lines) is fixed by the size, so the cost
of a workload does not depend on the seed.

Each ``*_inputs`` function returns ``(files, script)``: ``files`` maps a
file name to its text; ``script`` is the workload, a list of
``(kind, argv[, stdin file])`` operations that ``worker.py`` runs in order.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

WORDS = (
    "Anchor Badge Cable Canvas Chart Cursor Dial Drawer Easel Frame Gauge Glyph Grid "
    "Handle Hinge Label Lamp Layer Lens Ledger Marker Meter Panel Pixel Plot Prism "
    "Quill Ruler Scale Shape Sketch Slate Spool Stamp Stencil Stroke Swatch Tablet "
    "Tile Token Tool Tracer Vertex Widget"
).split()
ADJECTIVES = (
    "Bold Bright Clear Crisp Dark Deep Dense Dim Dull Fine Flat Fresh Full Grand "
    "Hollow Keen Light Loose Lucid Mild Neat Pale Plain Prime Quick Quiet Rapid Rough "
    "Round Sharp Sheer Slim Smooth Soft Solid Sound Spare Stark Steep Still Stout"
).split()
VERBS = (
    "adjust align apply attach bind build check clear close compose copy create "
    "draw fill find flush format grow hide layout link load lock mark merge move "
    "notify open paint parse place plot print push read refresh release render "
    "reset resize restore rotate save scale scan select send show snap sort split "
    "store sync toggle trace update validate wrap write"
).split()
SERVICES = (
    "DrawingView EventLog UndoManager Clipboard Settings Metrics Security Cache "
    "Scheduler Registry Locale Printer"
).split()
PARAM_SHAPES = ((), ("int",), ("int", "int"), ("java.lang.String",), ("boolean",))


class FactWriter:
    """Fact records with sequential ids; statement counts cover every call."""

    def __init__(self):
        self.types: list[dict] = []
        self.methods: list[dict] = []
        self.fields: list[dict] = []
        self.calls: list[dict] = []
        self._ncalls: dict[str, int] = {}
        self.type_names: dict[str, str] = {}
        self.method_refs: dict[str, str] = {}

    def add_type(self, name, kind="class", supers=(), encl=None, abstract=False) -> str:
        tid = f"T{len(self.types) + 1}"
        self.types.append({
            "k": "type", "id": tid, "name": name, "kind": kind, "abstract": abstract,
            "anon": False, "encl": encl, "super": list(supers),
        })
        self.type_names[tid] = name
        return tid

    def add_super(self, tid: str, sup: str):
        self.types[int(tid[1:]) - 1]["super"].append(sup)

    def add_method(self, owner, name, params=(), stmts=2, throws=(), raises=(),
                   abstract=False) -> str:
        mid = f"M{len(self.methods) + 1}"
        rec = {
            "k": "method", "id": mid, "owner": owner, "name": name, "params": list(params),
            "ret": "void", "vis": "public", "static": False, "abstract": abstract,
            "ctor": False, "throws": list(throws), "stmts": 0 if abstract else stmts,
        }
        if raises:
            rec["raises"] = list(raises)
        self.methods.append(rec)
        self.method_refs[mid] = f"{self.type_names[owner]}.{name}"
        return mid

    def add_field(self, owner, name, type_name) -> str:
        fid = f"F{len(self.fields) + 1}"
        self.fields.append({
            "k": "field", "id": fid, "owner": owner, "name": name, "type": type_name,
            "vis": "private",
        })
        return fid

    def add_call(self, caller, target, recv=None, passthrough=()) -> str:
        cid = f"C{len(self.calls) + 1}"
        ordinal = self._ncalls.get(caller, 0) + 1
        self._ncalls[caller] = ordinal
        self.calls.append({
            "k": "call", "id": cid, "caller": caller, "target": target,
            "recv": recv or {"kind": "local"}, "ord": ordinal,
            "pass": [list(p) for p in passthrough],
        })
        return cid

    def arity(self, mid: str) -> int:
        return len(self.methods[int(mid[1:]) - 1]["params"])

    def text(self) -> str:
        for rec in self.methods:
            if not rec["abstract"]:
                rec["stmts"] = max(rec["stmts"], self._ncalls.get(rec["id"], 0))
        records = self.types + self.methods + self.fields + self.calls
        return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def _model(groups: dict[str, list[tuple[str, str, dict]]]) -> str:
    """Concern-model file: {group path: [(instance name, sort, params)]}."""
    root = {"name": "concerns", "children": []}
    for path, instances in groups.items():
        node = root
        for part in path.split("/"):
            found = next((c for c in node["children"] if c["name"] == part), None)
            if found is None:
                found = {"name": part, "children": []}
                node["children"].append(found)
            node = found
        for name, sort, params in instances:
            node["children"].append(
                {"name": name, "sort": sort, "params": params, "snapshot": None, "note": ""}
            )
    return json.dumps(root, sort_keys=True, indent=2) + "\n"


# -- system: a synthetic whole system -----------------------------------------------


@dataclass(frozen=True)
class SystemSize:
    families: int = 10
    classes: int = 48        # concrete classes per family, below its abstract base
    depth: int = 6           # class levels below the base (interface + base on top)
    api: int = 4             # methods declared by each family interface
    own: int = 5             # own methods per concrete class
    services: int = 12
    service_methods: int = 12
    groups: int = 20         # planted shared callee sets of three service methods
    group_callers: int = 12
    redirectors: int = 8
    contexts: int = 3
    ctx_threads: int = 10
    ctx_len: int = 6
    exceptions: int = 5
    ep_chains: int = 10
    ep_len: int = 5
    roles: int = 8
    role_impls: int = 10
    nested: int = 40
    calls_per_method: tuple = (2, 3, 3, 2, 2, 3)
    repl_lines: int = 1000


SYSTEM_FULL = SystemSize()
#: Small enough for the brute-force oracles of tests/oracles.py.
SYSTEM_REDUCED = SystemSize(
    families=2, classes=4, depth=2, api=2, own=2, services=3, service_methods=3,
    groups=2, group_callers=3, redirectors=1, contexts=1, ctx_threads=2, ctx_len=3,
    exceptions=1, ep_chains=2, ep_len=3, roles=2, role_impls=2, nested=2,
    calls_per_method=(1, 2), repl_lines=40,
)
#: Small enough that grouped mining's exponential oracle finishes.
SYSTEM_TINY = SystemSize(
    families=1, classes=3, depth=2, api=1, own=1, services=1, service_methods=4,
    groups=1, group_callers=3, redirectors=0, contexts=1, ctx_threads=0, ctx_len=2,
    exceptions=1, ep_chains=0, ep_len=2, roles=1, role_impls=1, nested=1,
    calls_per_method=(1,), repl_lines=10,
)


def system_inputs(seed: int, size: SystemSize = SYSTEM_FULL):
    rng = random.Random(f"system/{seed}")
    fw = FactWriter()

    # Core services: the fan-in hotspots and the members of shared callee sets.
    service_methods: list[str] = []
    for s in range(size.services):
        tid = fw.add_type(f"core.{SERVICES[s % len(SERVICES)]}{s // len(SERVICES) or ''}")
        for name in rng.sample(VERBS, size.service_methods):
            service_methods.append(fw.add_method(tid, name, rng.choice(PARAM_SHAPES)))
    hot = service_methods[:]
    rng.shuffle(hot)
    hot_weights = [1.0 / (rank + 1) for rank in range(len(hot))]

    roles = []
    for r in range(size.roles):
        tid = fw.add_type(f"role.{rng.choice(ADJECTIVES)}Role{r}", kind="interface")
        roles.append((tid, [fw.add_method(tid, f"{v}Role{r}", abstract=True)
                            for v in rng.sample(VERBS, 2)]))
    contexts = [fw.add_type(f"ctx.Context{c}") for c in range(size.contexts)]
    exceptions = [fw.add_type(f"err.{rng.choice(WORDS)}Error{e}")
                  for e in range(size.exceptions)]

    # Families: interface -> abstract base -> tree of concrete classes.
    families = []
    nouns = rng.sample(WORDS, size.families)
    for f, noun in enumerate(nouns):
        pkg = f"app.{noun.lower()}"
        iface = fw.add_type(f"{pkg}.{noun}", kind="interface")
        api = [(v, rng.choice(PARAM_SHAPES)) for v in rng.sample(VERBS, size.api)]
        api_ids = [fw.add_method(iface, v, p, abstract=True) for v, p in api]
        base = fw.add_type(f"{pkg}.Abstract{noun}", supers=[iface], abstract=True)
        base_api = [fw.add_method(base, v, p, stmts=3) for v, p in api]
        levels = [[base]]
        classes = []
        adjectives = rng.sample(ADJECTIVES, len(ADJECTIVES))
        for c in range(size.classes):
            level = min(1 + c * size.depth // max(size.classes, 1), size.depth)
            parent = rng.choice(levels[level - 1])
            tid = fw.add_type(f"{pkg}.{adjectives[c % len(adjectives)]}{noun}{c}",
                              supers=[parent])
            while len(levels) <= level:
                levels.append([])
            levels[level].append(tid)
            overrides = [fw.add_method(tid, *api[i], stmts=rng.randint(2, 6))
                         for i in sorted(rng.sample(range(len(api)), max(1, len(api) // 2)))]
            own = [fw.add_method(tid, f"{v}{noun}", rng.choice(PARAM_SHAPES),
                                 stmts=rng.randint(2, 8))
                   for v in rng.sample(VERBS, size.own)]
            fw.add_field(tid, f"f{noun}State", "int")
            getter = fw.add_method(tid, f"get{noun}State{c}", stmts=1)
            fw.add_method(tid, f"set{noun}State{c}", ("int",), stmts=1)
            classes.append({"id": tid, "own": own, "overrides": overrides, "getter": getter})
        families.append({"noun": noun, "pkg": pkg, "iface": iface, "base": base,
                         "api": api_ids, "base_api": base_api, "classes": classes})

    # Redirection layers: Wrapper forwards every method to a Target field.
    redirectors = []
    for r in range(size.redirectors):
        noun = rng.choice(WORDS)
        target = fw.add_type(f"wrap.{noun}Target{r}", kind="interface")
        sigs = [(v, rng.choice(PARAM_SHAPES)) for v in rng.sample(VERBS, 4)]
        target_ms = [fw.add_method(target, v, p, abstract=True) for v, p in sigs]
        plain = fw.add_type(f"wrap.Plain{noun}{r}", supers=[target])
        for v, p in sigs:
            fw.add_method(plain, v, p, stmts=1)
        wrapper = fw.add_type(f"wrap.{noun}Wrapper{r}", supers=[target])
        inner = fw.add_field(wrapper, "fInner", f"wrap.{noun}Target{r}")
        wrapper_ms = []
        for (v, p), tm in zip(sigs, target_ms):
            wm = fw.add_method(wrapper, v, p, stmts=1)
            fw.add_call(wm, tm, {"kind": "field", "field": inner},
                        [(i, i) for i in range(len(p))])
            wrapper_ms.append(wm)
        redirectors.append((wrapper, target, wrapper_ms))

    all_classes = [c for fam in families for c in fam["classes"]]

    # Role superimposition: classes take on a secondary role and implement it.
    for tid, role_ms in roles:
        for cls in rng.sample(all_classes, size.role_impls):
            fw.add_super(cls["id"], tid)
            for rm in role_ms:
                name = fw.methods[int(rm[1:]) - 1]["name"]
                cls["own"].append(fw.add_method(cls["id"], name, stmts=2))

    # Support classes: nested in family classes, realizing the first role.
    nested_in = rng.sample(all_classes, size.nested)
    support_role = roles[0][0] if roles else None
    helpers = {}
    for k, cls in enumerate(nested_in):
        encl_name = fw.type_names[cls["id"]]
        tid = fw.add_type(f"{encl_name}.Support{k}", encl=cls["id"],
                          supers=[support_role] if support_role else [])
        for rm in (roles[0][1] if roles else []):
            fw.add_method(tid, fw.methods[int(rm[1:]) - 1]["name"], stmts=1)
        helpers[cls["id"]] = fw.add_method(tid, "assist", stmts=2)
        fw.add_call(cls["own"][0], helpers[cls["id"]])

    # Expose context: a Context parameter threaded down a call chain.
    for t in range(size.ctx_threads):
        ctx = contexts[t % len(contexts)]
        ctx_name = fw.type_names[ctx]
        chain = []
        for j in range(size.ctx_len):
            owner = rng.choice(all_classes)
            chain.append(fw.add_method(owner["id"], f"handle{t}x{j}", ("int", ctx_name)))
        for a, b in zip(chain, chain[1:]):
            fw.add_call(a, b, passthrough=[(1, 1)])

    # Exception propagation: short rethrow chains ending at a direct thrower.
    ep_chains = []
    for e in range(size.ep_chains):
        exc = fw.type_names[exceptions[e % len(exceptions)]]
        chain = []
        for j in range(size.ep_len):
            owner = rng.choice(all_classes)
            last = j == size.ep_len - 1
            chain.append(fw.add_method(owner["id"], f"load{e}x{j}", ("java.lang.String",),
                                       throws=[exc], raises=[exc] if last else ()))
        for a, b in zip(chain, chain[1:]):
            fw.add_call(a, b, passthrough=[(0, 0)])
        catcher = rng.choice(all_classes)["own"][0]
        fw.add_call(catcher, chain[0])
        ep_chains.append((exc, chain))

    # Planted shared callee sets, each used by callers of one family.
    for g in range(size.groups):
        fam = families[g % len(families)]
        members = rng.sample(service_methods, 3)
        callers = rng.sample([m for c in fam["classes"] for m in c["own"]],
                             min(size.group_callers, sum(len(c["own"]) for c in fam["classes"])))
        for caller in callers:
            for m in members:
                fw.add_call(caller, m)

    # Ordinary calls: a fixed number per method; the mix of target kinds is
    # exact (shuffled), so only the choice of targets depends on the seed.
    cycle = size.calls_per_method
    slots = sum(cycle[(ci + k) % len(cycle)]
                for fam in families for ci, cls in enumerate(fam["classes"])
                for k in range(len(cls["overrides"]) + len(cls["own"])))
    mix = (("hot", 35), ("api", 15), ("own", 20), ("getter", 10), ("foreign", 10),
           ("service", 10))
    kinds = [kind for kind, share in mix for _ in range(slots * share // 100)]
    kinds += ["hot"] * (slots - len(kinds))
    rng.shuffle(kinds)
    slot = 0
    for f, fam in enumerate(families):
        for ci, cls in enumerate(fam["classes"]):
            callers = cls["overrides"] + cls["own"]
            for k, caller in enumerate(callers):
                for _ in range(cycle[(ci + k) % len(cycle)]):
                    kind = kinds[slot]
                    if kind == "hot":
                        target = rng.choices(hot, hot_weights)[0]
                    elif kind == "api":
                        target = rng.choice(fam["api"] + fam["base_api"])
                    elif kind == "own":
                        target = rng.choice(rng.choice(fam["classes"])["own"])
                    elif kind == "getter":
                        target = rng.choice(fam["classes"])["getter"]
                    elif kind == "foreign":
                        target = rng.choice(rng.choice(families)["api"])
                    else:
                        target = rng.choice(service_methods)
                    recv = {"kind": "other"} if slot % 2 and fw.arity(target) else None
                    fw.add_call(caller, target, recv)
                    slot += 1
            for caller in cls["overrides"][:1]:
                parent_api = [m for m in fam["base_api"]
                              if fw.methods[int(m[1:]) - 1]["name"]
                              == fw.methods[int(caller[1:]) - 1]["name"]]
                fw.add_call(caller, parent_api[0], {"kind": "super"})
        for wrapper, _, wrapper_ms in redirectors[f::len(families)]:
            for caller in rng.sample(fam["classes"], min(3, len(fam["classes"]))):
                fw.add_call(caller["own"][-1], rng.choice(wrapper_ms))

    facts = fw.text()
    ref = fw.method_refs.__getitem__
    tname = fw.type_names.__getitem__

    # Concern model: about 100 instances over all six sorts, in groups.
    groups: dict[str, list] = {}
    for h, mid in enumerate(hot[:10]):
        for fam in families[:3]:
            groups.setdefault("consistency", []).append(
                (f"hot{h} in {fam['noun']}", "CB",
                 {"target": ref(mid), "scope": tname(fam["iface"])}))
    groups["redirection"] = [
        (f"layer{r}", "RL", {"redirector": tname(w), "receiver": tname(t)})
        for r, (w, t, _) in enumerate(redirectors)
    ]
    groups["context"] = [
        (f"thread{c}", "EC", {"context": tname(ctx), "scope": "*"})
        for c, ctx in enumerate(contexts)
    ] + [
        (f"thread{c} in {fam['noun']}", "EC",
         {"context": tname(ctx), "scope": f"{fam['pkg']}."})
        for c, ctx in enumerate(contexts) for fam in families[:2]
    ]
    groups["exceptions"] = [
        (f"chain{e}", "EP", {"exception": exc, "root": ref(chain[-1])})
        for e, (exc, chain) in enumerate(ep_chains)
    ]
    groups["roles"] = [
        (f"role{r}", "RSI", {"role": tname(tid), "scope": "*"}) for r, (tid, _) in enumerate(roles)
    ] + [
        (f"role{r} in {fam['noun']}", "RSI", {"role": tname(tid), "scope": tname(fam["iface"])})
        for r, (tid, _) in enumerate(roles) for fam in families[:1]
    ]
    groups["support"] = [
        (f"support in {fam['noun']}", "SC", {"scope": tname(fam["iface"])}) for fam in families
    ]
    undo_groups = []
    for cls in nested_in[:5]:
        path = f"undo/{fw.type_names[cls['id']].rsplit('.', 1)[-1]}Undo"
        groups[path] = [
            ("support class", "SC", {"scope": tname(cls["id"])}),
            ("helper calls", "CB", {"target": ref(helpers[cls["id"]]), "scope": tname(cls["id"])}),
        ]
        undo_groups.append(path)
    if support_role:
        for path in undo_groups:
            groups[path].insert(1, ("role", "RSI", {"role": tname(support_role), "scope": "*"}))
    model = _model(groups)

    # REPL session: many small reads over one loaded model, in an exact mix.
    repl = [] if not redirectors else ["mine redirect"]
    expands = (size.repl_lines - 100) // 200 if redirectors else 0
    mix = (("callers", 35), ("members", 15), ("ancestors", 15), ("rsi", 8), ("sc", 8),
           ("rl", 9), ("cb", 10))
    lines = size.repl_lines - len(repl) - expands
    kinds = [kind for kind, share in mix for _ in range(lines * share // 100)]
    kinds += ["callers"] * (lines - len(kinds))
    rng.shuffle(kinds)
    typed = [c["id"] for c in all_classes]
    for kind in kinds:
        if redirectors and len(repl) % 200 == 100 and expands:
            repl.append(f"seedexpand S{len(repl) // 200 % len(redirectors) + 1}")
            expands -= 1
        fam = rng.choice(families)
        if kind == "callers":
            repl.append(f"callers {ref(rng.choice(hot[:len(hot) // 2] + fam['base_api']))}")
        elif kind in ("members", "ancestors"):
            repl.append(f"{kind} {tname(rng.choice(typed))}")
        elif kind == "rsi":
            repl.append(f"rsi {tname(rng.choice(roles)[0])} {tname(fam['iface'])}")
        elif kind == "sc":
            repl.append(f"sc {tname(fam['iface'])}")
        elif kind == "rl" and redirectors:
            w, t, _ = rng.choice(redirectors)
            repl.append(f"rl {tname(w)} {tname(t)}")
        elif kind == "rl":
            repl.append(f"members {tname(rng.choice(typed))}")
        else:
            repl.append(f"cb {ref(rng.choice(hot[:len(hot) // 2]))} {tname(fam['iface'])}")
    repl_text = "\n".join(repl) + "\n"

    first_ctx = tname(contexts[0])
    exc0, _ = ep_chains[0] if ep_chains else (tname(exceptions[0]), None)
    w0, t0, _ = redirectors[0] if redirectors else (None, None, None)
    fam0 = families[0]
    script = [
        ("mine_fanin", ["mine", "fanin", "facts.jsonl"]),
        ("mine_grouped", ["mine", "grouped", "facts.jsonl"]),
        ("mine_redirect", ["mine", "redirect", "facts.jsonl"]),
        ("query", ["query", "cb", "facts.jsonl", "--target", ref(hot[0]),
                   "--scope", tname(fam0["iface"])]),
        ("query", ["query", "rl", "facts.jsonl", "--redirector", tname(w0) if w0 else "x",
                   "--receiver", tname(t0) if t0 else "x"]),
        ("query", ["query", "ec", "facts.jsonl", "--context", first_ctx]),
        ("query", ["query", "rsi", "facts.jsonl", "--role", tname(roles[0][0])]),
        ("query", ["query", "sc", "facts.jsonl", "--scope", tname(fam0["iface"])]),
        ("query", ["query", "ep", "facts.jsonl", "--exception", exc0]),
        ("model_run", ["model", "run", "--commit", "concerns.json", "facts.jsonl"]),
        ("model_run", ["model", "run", "concerns.json", "facts.jsonl"]),
        ("plan", ["plan", "concerns.json", undo_groups[0], "facts.jsonl",
                  "-o", "undo.aj", "--edits", "undo-edits.json"]),
        ("plan", ["plan", "concerns.json", "redirection/layer0", "facts.jsonl",
                  "-o", "layer0.aj", "--edits", "layer0-edits.json"]),
        ("repl", ["repl", "facts.jsonl"], "repl.txt"),
    ]
    if not redirectors:
        script = [op for op in script if "rl" not in op[1] and "redirection/layer0" not in op[1]]
    files = {"facts.jsonl": facts, "concerns.json": model, "repl.txt": repl_text}
    return files, script


# -- frontend: the MiniLang corpus replicated with renamed types ---------------------


FRONTEND_COPIES = 88  # about 50k MiniLang lines from the 565-line corpus
_DECLARED = re.compile(r"\b(?:class|interface)\s+(\w+)")


def frontend_inputs(seed: int, corpus_dir: Path, copies: int = FRONTEND_COPIES):
    """Every corpus file ``copies`` times; each copy renames its declared types.

    The corpus concern models are rewritten to the names of copy 0 of the
    file they document, so their queries select exactly that copy.
    """
    rng = random.Random(f"frontend/{seed}")
    files: dict[str, str] = {}
    renames: dict[tuple[str, int], dict[str, str]] = {}
    for path in sorted(corpus_dir.glob("*.mini")):
        text = path.read_text(encoding="utf-8")
        names = sorted(set(_DECLARED.findall(text)))
        pattern = re.compile(r"\b(" + "|".join(map(re.escape, names)) + r")\b")
        for c in range(copies):
            tag = "".join(rng.choice("BCDFGHJKLMNPQRSTVWXZ") for _ in range(2)) + str(c)
            mapping = {n: f"{n}{tag}" for n in names}
            renames[(path.stem, c)] = mapping
            files[f"{path.stem}_{c:03d}.mini"] = pattern.sub(lambda m: mapping[m.group(1)], text)
    order = sorted(files)
    rng.shuffle(order)

    def rewrite(model_name: str, stem: str) -> str:
        mapping = renames[(stem, 0)]
        pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
        data = json.loads((corpus_dir / model_name).read_text(encoding="utf-8"))

        def visit(node):
            for child in node.get("children", ()):
                visit(child)
            if "params" in node:
                node["params"] = {k: pattern.sub(lambda m: mapping[m.group(1)], v)
                                  for k, v in node["params"].items()}

        visit(data)
        return json.dumps(data, sort_keys=True, indent=2) + "\n"

    files["command-model.json"] = rewrite("command-model.json", "command")
    files["undo-model.json"] = rewrite("undo-model.json", "undo")
    script = [
        ("extract", ["extract", *order, "-o", "facts.jsonl"]),
        ("model_run", ["model", "run", "--commit", "command-model.json", "facts.jsonl"]),
        ("model_run", ["model", "run", "undo-model.json", "facts.jsonl"]),
        ("plan", ["plan", "command-model.json", "Command support", "facts.jsonl",
                  "-o", "command.aj", "--edits", "command-edits.json"]),
        ("plan", ["plan", "undo-model.json", "PasteCommandUndo", "facts.jsonl",
                  "-o", "undo.aj", "--edits", "undo-edits.json"]),
    ]
    return files, script


# -- chains: deep closures and long or dense chains ------------------------------------


@dataclass(frozen=True)
class ChainsSize:
    hierarchy: int = 600     # levels, declared child-first
    ec_threads: int = 4
    ec_len: int = 120
    ep_chains: int = 2
    ep_len: int = 500
    layers: int = 8          # layered EP graph: width ** layers maximal chains
    width: int = 3
    holders: int = 40        # types that own the chain methods


CHAINS_FULL = ChainsSize()
CHAINS_REDUCED = ChainsSize(hierarchy=25, ec_threads=2, ec_len=8, ep_chains=2, ep_len=15,
                            layers=3, width=3, holders=6)


def chains_inputs(seed: int, size: ChainsSize = CHAINS_FULL):
    rng = random.Random(f"chains/{seed}")
    fw = FactWriter()
    words = rng.sample(WORDS, len(WORDS))

    # A single-inheritance chain declared leaf first, so resolving the leaf's
    # supertypes walks the whole chain.
    n = size.hierarchy
    level_ids = [f"T{i + 1}" for i in range(n)]
    for i in range(n):
        fw.add_type(f"deep.{words[i % len(words)]}Level{i}",
                    kind="interface" if i == n - 1 else "class",
                    supers=[level_ids[i + 1]] if i + 1 < n else [])
    role = fw.add_type("deep.Visitable", kind="interface")
    fw.add_super(level_ids[-1], role)
    fw.add_method(role, "accept", abstract=True)
    fw.add_method(level_ids[-1], "visit", abstract=True)
    steps = []
    for i in range(n - 1):
        fw.add_method(level_ids[i], "visit", stmts=1)
        if i % 3 == 0:
            fw.add_method(level_ids[i], "accept", stmts=1)
        steps.append(fw.add_method(level_ids[i], f"step{i}", stmts=1))
    for a, b in zip(steps[1:], steps):
        fw.add_call(a, b, {"kind": "super"})

    holders = [fw.add_type(f"flow.{words[i % len(words)]}Stage{i}") for i in range(size.holders)]
    contexts = [fw.add_type(f"ctx.Session{k}") for k in range(size.ec_threads)]
    ec_heads = []
    for t, ctx in enumerate(contexts):
        ctx_name = fw.type_names[ctx]
        chain = [fw.add_method(rng.choice(holders), f"relay{t}x{j}", ("int", ctx_name))
                 for j in range(size.ec_len)]
        for a, b in zip(chain, chain[1:]):
            fw.add_call(a, b, passthrough=[(1, 1)])
        ec_heads.append(chain[0])

    def ep_method(name, exc, raises):
        return fw.add_method(rng.choice(holders), name, ("java.lang.String",),
                             throws=[exc], raises=[exc] if raises else ())

    ep_exceptions = []
    for e in range(size.ep_chains):
        exc = fw.type_names[fw.add_type(f"err.{words[e]}Unwind{e}")]
        chain = [ep_method(f"unwind{e}x{j}", exc, j == size.ep_len - 1)
                 for j in range(size.ep_len)]
        for a, b in zip(chain, chain[1:]):
            fw.add_call(a, b, passthrough=[(0, 0)])
        catcher = fw.add_method(rng.choice(holders), f"recover{e}", stmts=2)
        fw.add_call(catcher, chain[0])
        ep_exceptions.append(exc)

    fan = fw.type_names[fw.add_type("err.FanOut")]
    layers = [[ep_method(f"fan{l}x{w}", fan, l == size.layers - 1) for w in range(size.width)]
              for l in range(size.layers)]
    for upper, lower in zip(layers, layers[1:]):
        for a in upper:
            for b in lower:
                fw.add_call(a, b, passthrough=[(0, 0)])
    fw.add_call(fw.add_method(rng.choice(holders), "recoverFan", stmts=1), layers[0][0])

    tname = fw.type_names.__getitem__
    model = _model({
        "propagation": [(f"unwind{e}", "EP", {"exception": exc})
                        for e, exc in enumerate(ep_exceptions)]
        + [("fan out", "EP", {"exception": fan})],
        "context": [(f"session{k}", "EC", {"context": tname(ctx), "scope": "*"})
                    for k, ctx in enumerate(contexts)],
        "roles": [("visitable", "RSI", {"role": tname(role), "scope": "*"})],
    })
    script = [
        ("query", ["query", "ec", "facts.jsonl", "--context", tname(contexts[0])]),
        ("query", ["query", "ep", "facts.jsonl", "--exception", ep_exceptions[0]]),
        ("query", ["query", "ep", "facts.jsonl", "--exception", fan]),
        ("query", ["query", "rsi", "facts.jsonl", "--role", tname(role)]),
        ("plan", ["plan", "concerns.json", "propagation/unwind1", "facts.jsonl",
                  "-o", "ep.aj", "--edits", "ep-edits.json"]),
        ("plan", ["plan", "concerns.json", "context/session0", "facts.jsonl",
                  "-o", "ec.aj", "--edits", "ec-edits.json"]),
        ("closure", ["concerns.json", "propagation/unwind0", "facts.jsonl"]),
    ]
    return {"facts.jsonl": fw.text(), "concerns.json": model}, script


# -- frontend-chains: the two workloads no mining technique touches ------------------


def frontend_chains_inputs(seed: int, corpus_dir: Path):
    """The frontend script followed by the chains script on its own fact file."""
    files, script = frontend_inputs(seed, corpus_dir)
    chain_files, chain_script = chains_inputs(seed)
    rename = {"facts.jsonl": "chains.jsonl", "concerns.json": "chains-model.json"}
    files.update({rename[name]: text for name, text in chain_files.items()})
    script += [(kind, [rename.get(arg, arg) for arg in argv]) for kind, argv in chain_script]
    return files, script


# -- probes: known defects, reported on every run but kept out of the workloads ------


PROBE_DEPTH = 3000
PROBE_HASH_SEEDS = ("1", "2", "3", "4")


def probe_inputs() -> list[tuple[str, dict[str, str], list[str], tuple[str, ...]]]:
    """(name, files, CLI argv, hash seeds) for each probe.

    The two deep shapes exceed the interpreter's recursion limit.  The group
    plan merges warnings that share a code but not their evidence; it runs
    once per ``PYTHONHASHSEED`` in ``hash seeds`` to show whether its output
    depends on the interpreter's hash seed.
    """
    fw = FactWriter()
    ids = [f"T{i + 1}" for i in range(PROBE_DEPTH)]
    for i in range(PROBE_DEPTH):
        fw.add_type(f"probe.Level{i}", supers=[ids[i + 1]] if i + 1 < PROBE_DEPTH else [])
    hierarchy = fw.text()

    fw = FactWriter()
    owner = fw.add_type("probe.Holder")
    chain = [fw.add_method(owner, f"unwind{j}", ("java.lang.String",), throws=["probe.Err"],
                           raises=["probe.Err"] if j == PROBE_DEPTH - 1 else ())
             for j in range(PROBE_DEPTH)]
    for a, b in zip(chain, chain[1:]):
        fw.add_call(a, b, passthrough=[(0, 0)])
    ep_chain = fw.text()

    fw = FactWriter()
    owner = fw.add_type("probe.Loader")
    instances = []
    for e, word in enumerate(("Alpha", "Bravo", "Delta", "Gamma", "Kappa")):
        exc = f"probe.{word}Error"
        head = fw.add_method(owner, f"load{e}", throws=[exc])
        fw.add_call(head, fw.add_method(owner, f"read{e}", throws=[exc], raises=[exc]))
        instances.append((f"chain{e}", "EP", {"exception": exc}))
    merged = {"probe.jsonl": fw.text(), "concerns.json": _model({"exceptions": instances})}
    return [
        ("hierarchy3000", {"probe.jsonl": hierarchy}, ["query", "sc", "probe.jsonl"], ()),
        ("ep_chain3000", {"probe.jsonl": ep_chain},
         ["query", "ep", "probe.jsonl", "--exception", "probe.Err"], ()),
        ("group_plan_order", merged, ["plan", "concerns.json", "exceptions", "probe.jsonl"],
         PROBE_HASH_SEEDS),
    ]
