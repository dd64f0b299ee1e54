"""Seeded random fact-model generator for oracle-equivalence testing."""

from __future__ import annotations

import random

from sortweaver.model import DispatchPolicy, SourceModel, load_records

METHOD_NAMES = ["run", "execute", "close", "open", "update", "draw", "getValue",
                "setValue", "isReady", "parse", "write"]
PARAM_TYPES = ["int", "Ctx", "Str"]
RETURN_TYPES = ["void", "int", "Ctx"]
VISIBILITIES = ["public", "protected", "package", "private"]
EXCEPTIONS = ["IOErr", "NetErr"]


def random_model(
    rng: random.Random,
    *,
    max_types: int = 8,
    max_methods_per_type: int = 4,
    max_fields_per_type: int = 2,
    max_calls: int = 40,
    callee_pool: int | None = None,
    policy: DispatchPolicy = DispatchPolicy.LIFT_TO_ANCESTORS,
) -> SourceModel:
    records: list[dict] = []
    n_types = rng.randint(2, max_types)
    type_ids = []
    simple_names = {}
    for i in range(1, n_types + 1):
        tid = f"T{i}"
        interface = rng.random() < 0.25
        anon = not interface and rng.random() < 0.1 and type_ids
        encl = rng.choice(type_ids) if (anon or (type_ids and rng.random() < 0.15)) else None
        supers = [
            t for t in type_ids if rng.random() < 0.25
        ][:2]
        name = f"p{i % 3}.T{i}" if rng.random() < 0.5 else f"T{i}"
        records.append(
            {
                "k": "type",
                "id": tid,
                "name": name,
                "kind": "interface" if interface else "class",
                "abstract": interface or rng.random() < 0.1,
                "anon": bool(anon),
                "encl": encl,
                "super": supers,
            }
        )
        type_ids.append(tid)
        simple_names[tid] = name.rsplit(".", 1)[-1]

    method_ids = []
    method_meta = {}
    counter = 0
    for tid in type_ids:
        interface = next(r for r in records if r["id"] == tid)["kind"] == "interface"
        sigs_seen = set()
        for _ in range(rng.randint(0, max_methods_per_type)):
            counter += 1
            mid = f"M{counter}"
            is_ctor = not interface and rng.random() < 0.1
            name = simple_names[tid] if is_ctor else rng.choice(METHOD_NAMES)
            params = tuple(
                rng.choice(PARAM_TYPES) for _ in range(rng.randint(0, 2))
            )
            if (name, params) in sigs_seen:
                continue
            sigs_seen.add((name, params))
            abstract = interface or (not is_ctor and rng.random() < 0.15)
            stmts = 0 if abstract else rng.randint(1, 5)
            throws = [e for e in EXCEPTIONS if rng.random() < 0.15]
            raises = [e for e in throws if rng.random() < 0.4]
            rec = {
                "k": "method",
                "id": mid,
                "owner": tid,
                "name": name,
                "params": list(params),
                "ret": "void" if is_ctor else rng.choice(RETURN_TYPES),
                "vis": rng.choice(VISIBILITIES),
                "static": rng.random() < 0.1,
                "abstract": abstract,
                "ctor": is_ctor,
                "throws": throws,
                "stmts": stmts,
            }
            if raises:
                rec["raises"] = raises
            records.append(rec)
            method_ids.append(mid)
            method_meta[mid] = (tid, len(params), stmts)

    field_ids = []
    fcounter = 0
    for tid in type_ids:
        names_seen = set()
        for _ in range(rng.randint(0, max_fields_per_type)):
            fcounter += 1
            name = f"f{rng.randint(0, 5)}"
            if name in names_seen:
                continue
            names_seen.add(name)
            fid = f"F{fcounter}"
            declared = rng.choice(PARAM_TYPES + [simple_names[t] for t in type_ids])
            records.append(
                {
                    "k": "field",
                    "id": fid,
                    "owner": tid,
                    "name": name,
                    "type": declared,
                    "vis": rng.choice(VISIBILITIES),
                }
            )
            field_ids.append(fid)

    callers = [m for m in method_ids if method_meta[m][2] >= 1]
    callees = list(method_ids)
    if callee_pool is not None and callees:
        rng.shuffle(callees)
        callees = callees[:callee_pool]
    if callers and callees:
        for i in range(1, rng.randint(0, max_calls) + 1):
            caller = rng.choice(callers)
            target = rng.choice(callees)
            _, caller_arity, stmts = method_meta[caller]
            target_arity = method_meta[target][1]
            kind = rng.choice(["this", "super", "local", "other", "field", "param"])
            recv: dict = {"kind": kind}
            if kind == "field":
                if not field_ids:
                    recv = {"kind": "this"}
                else:
                    recv["field"] = rng.choice(field_ids)
            if kind == "param":
                if caller_arity == 0:
                    recv = {"kind": "this"}
                else:
                    recv["index"] = rng.randrange(caller_arity)
            passes = []
            if caller_arity and target_arity and rng.random() < 0.4:
                passes.append([rng.randrange(target_arity), rng.randrange(caller_arity)])
            records.append(
                {
                    "k": "call",
                    "id": f"C{i}",
                    "caller": caller,
                    "target": target,
                    "recv": recv,
                    "ord": rng.randint(1, stmts),
                    "pass": passes,
                }
            )

    return load_records(records, policy=policy)


def dense_hierarchy(rng: random.Random) -> list[dict]:
    """Records of types with several supertypes each (ids shuffled against
    hierarchy order), most of them declaring the same few signatures, so
    overrides are often transitive."""
    n = rng.randint(2, 10)
    ids = [f"T{i}" for i in rng.sample(range(1, n + 1), n)]
    records: list[dict] = []
    counter = 0
    for i, tid in enumerate(ids):
        supers = [t for t in ids[:i] if rng.random() < 0.4][:3]
        records.append({"k": "type", "id": tid, "name": f"p.{tid}", "kind": "class",
                        "abstract": False, "anon": False, "encl": None, "super": supers})
        for name, params in (("run", []), ("run", ["int"]), ("draw", [])):
            if rng.random() < 0.6:
                counter += 1
                records.append({"k": "method", "id": f"M{counter}", "owner": tid,
                                "name": name, "params": params, "ret": "void",
                                "vis": "public", "static": False, "abstract": False,
                                "ctor": False, "throws": [], "stmts": 2})
    return records
