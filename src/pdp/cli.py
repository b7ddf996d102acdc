"""Command-line front end: JSON instance files in, JSON results out.

Exit codes: 0 success, 1 solver/oracle mismatch in verify, 2 invalid
input (parse, schema, or guard violations).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import agent, designer, game, instances, multiagent, multiplatform
from .core import (
    FlowerInstance,
    GeneralChain,
    build_flower_instance,
    build_general_chain,
    derived_params,
)
from .multiagent import CompetitiveInstance, ExternalPlatform, MultiAgentInstance


class ParseError(ValueError):
    """A field does not parse as the expected primitive."""


class SchemaError(ValueError):
    """The document violates the instance schema."""


def fmt(value: Fraction) -> str:
    return str(value)


def parse_rat(value, path: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{path}: expected an exact rational, got {value!r}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object")
    return value


def _list(value, path: str) -> list:
    """An optional list field: absent or null reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected a list")
    return value


def _rat_list(doc, key, n, path) -> list[Fraction]:
    values = doc.get(key)
    if not isinstance(values, list) or len(values) != n:
        raise SchemaError(f"{path}.{key}: expected a list of {n} rationals")
    return [parse_rat(v, f"{path}.{key}[{i}]") for i, v in enumerate(values)]


_FLOWER_FIELDS = ("p", "q", "y", "c_life", "c_platform", "d", "cost")


def _parse_flower(doc, n, path, cost=None) -> FlowerInstance:
    _object(doc, path)
    fields = {}
    for key in _FLOWER_FIELDS:
        if key == "cost" and cost is not None:
            fields[key] = cost
            continue
        fields[key] = _rat_list(doc, key, n, path)
    try:
        return build_flower_instance(**fields)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _quant(doc):
    q = _object(doc.get("quantization") or {}, "quantization")
    out = {}
    for key in ("delta", "delta_prime", "epsilon"):
        if key in q:
            out[key] = parse_rat(q[key], f"quantization.{key}")
    return out


def _steps(doc) -> tuple[Fraction, Fraction]:
    """delta and delta_prime, each checked under its own path before a
    builder sees them (builder errors are reported under agents/designers)."""
    q = _quant(doc)
    if "delta" not in q or "delta_prime" not in q:
        raise SchemaError("quantization: delta and delta_prime are required")
    for key in ("delta", "delta_prime"):
        if q[key] <= 0:
            raise SchemaError(f"quantization.{key}: {key} = {q[key]} must be positive")
    return q["delta"], q["delta_prime"]


def _parse_multi_agent(doc) -> MultiAgentInstance:
    n = doc.get("states")
    if not isinstance(n, int) or n < 1:
        raise SchemaError("states: expected a positive integer")
    cost = _rat_list(doc, "cost", n, "$")
    agents_doc = doc.get("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise SchemaError("agents: expected a nonempty list")
    agents_list = [
        _parse_flower(a, n, f"agents[{i}]", cost=cost) for i, a in enumerate(agents_doc)
    ]
    delta, delta_prime = _steps(doc)
    try:
        return multiagent.build_multi_agent_instance(
            agents_list, delta, delta_prime, m_ceiling=10**12
        )
    except ValueError as exc:
        raise SchemaError(f"agents: {exc}") from None


def _parse_platforms(doc, k, n) -> list[ExternalPlatform]:
    platforms = []
    for idx, pd in enumerate(_list(doc.get("platforms"), "platforms")):
        path = f"platforms[{idx}]"
        state = _object(pd, path).get("state")
        if not isinstance(state, int) or not 1 <= state <= n:
            raise SchemaError(f"{path}.state: expected an integer in 1..{n}")
        z = [parse_rat(v, f"{path}.z[{i}]") for i, v in enumerate(_list(pd.get("z"), f"{path}.z"))]
        phi = [
            parse_rat(v, f"{path}.phi[{i}]") for i, v in enumerate(_list(pd.get("phi"), f"{path}.phi"))
        ]
        if len(z) != k or len(phi) != k:
            raise SchemaError(f"{path}: z and phi need one value per agent ({k})")
        platforms.append(
            ExternalPlatform(
                pd.get("id", f"ext{idx}"), state, tuple(z), tuple(phi),
                pd.get("owner", "external"),
            )
        )
    return platforms


def parse_instance(doc):
    """Typed instance from a JSON document; raises ParseError/SchemaError."""
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")
    if doc.get("version") != 1:
        raise SchemaError("version: expected 1")
    kind = doc.get("kind")
    if kind == "flower":
        n = doc.get("states")
        if not isinstance(n, int) or n < 1:
            raise SchemaError("states: expected a positive integer")
        return _parse_flower(doc, n, "$")
    if kind == "multi-agent":
        return _parse_multi_agent(doc)
    if kind == "competitive":
        mi = _parse_multi_agent(doc)
        platforms = _parse_platforms(doc, mi.k, mi.n)
        try:
            return multiagent.build_competitive_instance(mi, platforms)
        except ValueError as exc:
            raise SchemaError(f"platforms: {exc}") from None
    if kind == "game":
        n = doc.get("states")
        if not isinstance(n, int) or n < 1:
            raise SchemaError("states: expected a positive integer")
        chassis_doc = doc.get("agents")
        if not isinstance(chassis_doc, list) or not chassis_doc:
            raise SchemaError("agents: expected a nonempty list")
        chassis = [_parse_flower(a, n, f"agents[{i}]") for i, a in enumerate(chassis_doc)]
        k = len(chassis)
        designers = []
        for di, dd in enumerate(_list(doc.get("designers"), "designers")):
            cands = []
            dpath = f"designers[{di}]"
            candidates = _list(_object(dd, dpath).get("candidates"), f"{dpath}.candidates")
            for ci, cd in enumerate(candidates):
                path = f"{dpath}.candidates[{ci}]"
                state = _object(cd, path).get("state")
                if not isinstance(state, int) or not 1 <= state <= n:
                    raise SchemaError(f"{path}.state: expected an integer in 1..{n}")
                z, phi, d = (
                    tuple(parse_rat(v, f"{path}.{key}") for v in _list(cd.get(key), f"{path}.{key}"))
                    for key in ("z", "phi", "d")
                )
                if len(z) != k or len(phi) != k or len(d) != k:
                    raise SchemaError(f"{path}: z, phi, d need one value per agent")
                cost = parse_rat(cd.get("cost"), f"{path}.cost")
                cands.append(game.Candidate(state, z, phi, d, cost))
            designers.append(tuple(cands))
        delta, delta_prime = _steps(doc)
        try:
            return game.build_game_instance(chassis, designers, delta, delta_prime)
        except ValueError as exc:
            raise SchemaError(f"designers: {exc}") from None
    if kind == "general-chain":
        rows = doc.get("rows")
        if not isinstance(rows, list) or not rows:
            raise SchemaError("rows: expected a nonempty list of rows")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                raise SchemaError(f"rows[{i}]: expected a list of rationals")
            parsed.append([parse_rat(v, f"rows[{i}][{j}]") for j, v in enumerate(row)])
        start = doc.get("start", 0)
        if not isinstance(start, int) or isinstance(start, bool):
            raise SchemaError("start: expected an integer state index")
        try:
            return build_general_chain(parsed, start)
        except ValueError as exc:
            raise SchemaError(f"rows: {exc}") from None
    raise SchemaError(f"kind: unknown kind {kind!r}")


def _flower_doc(inst: FlowerInstance, with_cost=True) -> dict:
    doc = {key: [fmt(v) for v in getattr(inst, key)] for key in _FLOWER_FIELDS}
    if not with_cost:
        del doc["cost"]
    return doc


def serialize_instance(obj) -> dict:
    if isinstance(obj, FlowerInstance):
        return {"version": 1, "kind": "flower", "states": obj.n, **_flower_doc(obj)}
    if isinstance(obj, CompetitiveInstance):
        doc = serialize_instance(obj.mi)
        doc["kind"] = "competitive"
        doc["platforms"] = [
            {
                "id": str(pl.id),
                "state": pl.state,
                "z": [fmt(v) for v in pl.z],
                "phi": [fmt(v) for v in pl.phi],
                "owner": str(pl.owner),
            }
            for pl in obj.externals
        ]
        return doc
    if isinstance(obj, MultiAgentInstance):
        return {
            "version": 1,
            "kind": "multi-agent",
            "states": obj.n,
            "cost": [fmt(v) for v in obj.cost],
            "agents": [_flower_doc(a, with_cost=False) for a in obj.agents],
            "quantization": {"delta": fmt(obj.delta), "delta_prime": fmt(obj.delta_prime)},
        }
    if isinstance(obj, game.GameInstance):
        return {
            "version": 1,
            "kind": "game",
            "states": obj.n,
            "agents": [_flower_doc(a) for a in obj.chassis],
            "designers": [
                {
                    "candidates": [
                        {
                            "state": c.state,
                            "z": [fmt(v) for v in c.z],
                            "phi": [fmt(v) for v in c.phi],
                            "d": [fmt(v) for v in c.d],
                            "cost": fmt(c.cost),
                        }
                        for c in cands
                    ]
                }
                for cands in obj.designers
            ],
            "quantization": {"delta": fmt(obj.delta), "delta_prime": fmt(obj.delta_prime)},
        }
    if isinstance(obj, GeneralChain):
        return {
            "version": 1,
            "kind": "general-chain",
            "rows": [[fmt(v) for v in row] for row in obj.rows],
            "start": obj.start,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(result: dict, started: float) -> int:
    result["wall_clock_seconds"] = round(time.monotonic() - started, 6)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _states(s) -> list[int]:
    return sorted(s)


def _cmd_solve_agent(args, started):
    inst = parse_instance(_load(args.instance))
    if not isinstance(inst, FlowerInstance):
        raise SchemaError("kind: solve-agent needs a flower instance")
    dp = derived_params(inst)
    if all(z > 0 for z in dp.z):
        result, trace = agent.greedy_solve(dp)
        steps = [
            {"state": st.state, "utility_before": fmt(st.utility_before), "accepted": st.accepted}
            for st in trace.steps
        ]
        solver = "greedy"
    else:
        result = agent.greedy_solve_signed(dp)
        steps = []
        solver = "greedy-signed"
    return _emit(
        {
            "solver": solver,
            "adopted": _states(result.states),
            "utility": fmt(result.utility),
            "utility_decimal": float(result.utility),
            "trace": steps,
        },
        started,
    )


def _cmd_solve_multiplatform(args, started):
    ci = parse_instance(_load(args.instance))
    if not isinstance(ci, CompetitiveInstance):
        raise SchemaError("kind: solve-multiplatform-agent needs a competitive instance")
    idx = args.agent - 1
    if not 0 <= idx < ci.mi.k:
        raise SchemaError(f"--agent: no agent {args.agent}")
    dp = derived_params(ci.mi.agents[idx])
    pool = [
        multiplatform.Platform(pl.id, pl.state, pl.z[idx], pl.phi[idx], pl.owner)
        for pl in ci.externals
    ]
    curves = multiplatform.prune_redundant(pool)
    sel = multiplatform.multi_greedy_solve(curves, dp.A, dp.B)
    return _emit(
        {
            "solver": "multi-platform-greedy",
            "selected": [
                {"id": str(pl.id), "state": pl.state} for pl in sel.platforms
            ],
            "utility": fmt(sel.utility),
            "utility_decimal": float(sel.utility),
        },
        started,
    )


def _cmd_solve_designer(args, started):
    doc = _load(args.instance)
    inst = parse_instance(doc)
    if not isinstance(inst, FlowerInstance):
        raise SchemaError("kind: solve-designer needs a flower instance")
    if args.exact:
        result = designer.designer_oracle(inst)
        solver = "designer-oracle"
        bins = None
    else:
        q = _quant(doc)
        epsilon = args.epsilon if args.epsilon is not None else q.get("epsilon", Fraction(1, 10))
        delta = args.delta if args.delta is not None else q.get("delta")
        qi = designer.preprocess(inst, delta=delta, epsilon=epsilon)
        result = designer.fptas_solve(qi)
        solver = "designer-fptas"
        bins = result.bins
    out = {
        "solver": solver,
        "offered": _states(result.states),
        "profit": fmt(result.profit),
        "profit_decimal": float(result.profit),
    }
    if bins is not None:
        out["bins"] = bins
    return _emit(out, started)


def _cmd_solve_multi_agent(args, started):
    obj = parse_instance(_load(args.instance))
    if isinstance(obj, CompetitiveInstance):
        result = multiagent.competitive_solve(obj)
        solver = "competitive-dp"
    elif isinstance(obj, MultiAgentInstance):
        result = multiagent.multi_agent_solve(obj)
        solver = "multi-agent-dp"
    else:
        raise SchemaError("kind: solve-multi-agent needs a multi-agent or competitive instance")
    return _emit(
        {
            "solver": solver,
            "offered": _states(result.states),
            "profit": fmt(result.profit),
            "profit_decimal": float(result.profit),
        },
        started,
    )


def _parse_profile(text, g) -> tuple:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"profile: {exc}") from None
    if not isinstance(raw, list) or len(raw) != g.num_designers:
        raise SchemaError(f"profile: expected {g.num_designers} state lists")
    profile = []
    for i, states in enumerate(raw):
        if not isinstance(states, list) or any(
            not isinstance(s, int) or not 1 <= s <= g.n for s in states
        ):
            raise SchemaError(f"profile[{i}]: expected states in 1..{g.n}")
        profile.append(frozenset(states))
    return tuple(profile)


def _profile_doc(profile):
    return [sorted(s) for s in profile]


def _cmd_best_response(args, started):
    g = parse_instance(_load(args.instance))
    if not isinstance(g, game.GameInstance):
        raise SchemaError("kind: best-response needs a game instance")
    if not 1 <= args.designer <= g.num_designers:
        raise SchemaError(f"--designer: no designer {args.designer}")
    profile = _parse_profile(args.profile, g)
    result = game.best_response(g, args.designer - 1, profile)
    return _emit(
        {
            "solver": "best-response",
            "designer": args.designer,
            "built": _states(result.states),
            "profit": fmt(result.profit),
            "profit_decimal": float(result.profit),
        },
        started,
    )


def _cmd_dynamics(args, started):
    g = parse_instance(_load(args.instance))
    if not isinstance(g, game.GameInstance):
        raise SchemaError("kind: dynamics needs a game instance")
    initial = _parse_profile(args.init, g)
    outcome = game.best_response_dynamics(g, initial, args.max_rounds)
    return _emit(
        {
            "solver": "best-response-dynamics",
            "outcome": outcome.kind,
            "profile": _profile_doc(outcome.profile) if outcome.profile else None,
            "cycle": [_profile_doc(p) for p in outcome.cycle],
            "period": outcome.period,
            "trace": [_profile_doc(p) for p in outcome.trace],
        },
        started,
    )


def _cmd_nash(args, started):
    g = parse_instance(_load(args.instance))
    if not isinstance(g, game.GameInstance):
        raise SchemaError("kind: nash needs a game instance")
    profile = game.pure_nash_search(g)
    return _emit(
        {
            "solver": "pure-nash-search",
            "nash": _profile_doc(profile) if profile is not None else None,
        },
        started,
    )


def _csv_ints(text, path):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cmd_gen(args, started):
    kind = args.kind
    if kind == "random-flower":
        inst = instances.gen_random_flower(args.n, args.seed)
        doc = serialize_instance(inst)
    elif kind == "partition":
        fixture = instances.gen_partition_instance(_csv_ints(args.a, "--a"))
        doc = serialize_instance(fixture.instance)
        doc["partition"] = {
            "v_star": fmt(fixture.v_star),
            "eta": fmt(fixture.eta),
            "eta_prime": fmt(fixture.eta_prime),
            "b": list(fixture.b),
            "special": fixture.special,
        }
    elif kind == "two-agent-partition":
        fixture = instances.gen_two_agent_partition(_csv_ints(args.a, "--a"))
        doc = serialize_instance(fixture.mi)
        doc["partition"] = {
            "v_star": fmt(fixture.v_star),
            "no_bound": fmt(fixture.no_bound),
            "eta": fmt(fixture.eta),
            "eta_prime": fmt(fixture.eta_prime),
        }
    elif kind == "set-cover":
        universe = _csv_ints(args.universe, "--universe")
        families = [
            frozenset(_csv_ints(part, "--families"))
            for part in args.families.split(";")
            if part != ""
        ]
        sc = instances.gen_setcover_instance(universe, families, args.k)
        built = frozenset(range(sc.m))
        routing = tuple(
            next((i for i in sc.routing_options(j) if i is not None), None)
            for j in range(sc.n)
        )
        doc = serialize_instance(sc.chain_for(built, routing))
        doc["setcover"] = {
            "universe": list(sc.universe),
            "families": [sorted(f) for f in sc.families],
            "k": sc.k,
            "built": sorted(built),
            "routing": list(routing),
        }
    elif kind == "no-nash":
        doc = serialize_instance(instances.gen_no_nash_game())
    else:
        raise SchemaError(f"--kind: unknown generator {kind!r}")
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def _cmd_verify(args, started):
    obj = parse_instance(_load(args.instance))
    checks = []
    ok = True
    if isinstance(obj, FlowerInstance):
        dp = derived_params(obj)
        oracle = agent.agent_oracle(dp)
        if all(z > 0 for z in dp.z):
            solved, _ = agent.greedy_solve(dp)
        else:
            solved = agent.greedy_solve_signed(dp)
        match = solved.utility == oracle.utility
        ok = ok and match
        checks.append(
            {
                "check": "agent greedy vs oracle",
                "solver": fmt(solved.utility),
                "oracle": fmt(oracle.utility),
                "match": match,
            }
        )
        try:
            qi = designer.preprocess(obj)
            approx = designer.fptas_solve(qi)
            exact = designer.designer_oracle(obj)
            bound = (1 - qi.epsilon) * exact.profit
            match = approx.profit >= bound and agent.is_feasible(obj, approx.states)
            ok = ok and match
            checks.append(
                {
                    "check": "designer fptas vs oracle",
                    "solver": fmt(approx.profit),
                    "oracle": fmt(exact.profit),
                    "match": match,
                }
            )
        except designer.EmptyInstance:
            checks.append({"check": "designer fptas vs oracle", "skipped": "no surviving state"})
    elif isinstance(obj, CompetitiveInstance):
        solved = multiagent.competitive_solve(obj)
        best = max(
            (
                (multiagent.competitive_profit(obj, S), S)
                for S in _all_subsets(obj.mi.n)
            ),
            key=lambda t: t[0],
        )
        match = solved.profit == best[0]
        ok = ok and match
        checks.append(
            {
                "check": "competitive dp vs brute force",
                "solver": fmt(solved.profit),
                "oracle": fmt(best[0]),
                "match": match,
            }
        )
    elif isinstance(obj, MultiAgentInstance):
        solved = multiagent.multi_agent_solve(obj)
        best = max(multiagent.multi_agent_profit(obj, S) for S in _all_subsets(obj.n))
        match = solved.profit == best
        ok = ok and match
        checks.append(
            {
                "check": "multi-agent dp vs brute force",
                "solver": fmt(solved.profit),
                "oracle": fmt(best),
                "match": match,
            }
        )
    elif isinstance(obj, game.GameInstance):
        # The oracle's memo is its own, so the brute force shares no
        # competitive instance with the solver under test.
        oracle = game.SearchMemo(obj)
        empty = (frozenset(),) * obj.num_designers
        for d in range(obj.num_designers):
            solved = game.best_response(obj, d, empty)
            best = max(
                oracle.profit(d, empty[:d] + (S,) + empty[d + 1 :]) for S in _all_subsets(obj.n)
            )
            match = solved.profit == best
            ok = ok and match
            checks.append(
                {
                    "check": f"designer {d + 1} best response vs brute force",
                    "solver": fmt(solved.profit),
                    "oracle": fmt(best),
                    "match": match,
                }
            )
        check = "pure nash vs definition"
        try:
            nash = game.pure_nash_search(obj)
        except agent.TooLarge as exc:
            checks.append({"check": check, "skipped": str(exc)})
        else:
            if nash is None:
                checks.append({"check": check, "skipped": "no pure Nash profile"})
            else:
                match = not any(
                    oracle.profit(d, nash[:d] + (S,) + nash[d + 1 :]) > oracle.profit(d, nash)
                    for d in range(obj.num_designers)
                    for S in _all_subsets(obj.n)
                )
                ok = ok and match
                checks.append({"check": check, "nash": _profile_doc(nash), "match": match})
    else:
        raise SchemaError(
            "kind: verify supports flower, multi-agent, competitive, and game instances"
        )
    _emit({"solver": "verify", "checks": checks, "ok": ok}, started)
    return 0 if ok else 1


def _all_subsets(n):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pdp", description="Exact solvers for platform design over flower chains"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_instance(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("instance", help="path to a JSON instance file")
        return p

    with_instance("solve-agent", help="optimal single-platform adoption set")

    p = with_instance("solve-multiplatform-agent", help="optimal selection over listed platforms")
    p.add_argument("--agent", type=int, default=1)

    p = with_instance("solve-designer", help="designer profit maximization")
    p.add_argument("--epsilon", type=Fraction, default=None)
    p.add_argument("--delta", type=Fraction, default=None)
    p.add_argument("--exact", action="store_true", help="use the exponential oracle")

    with_instance("solve-multi-agent", help="multi-agent or competitive designer optimum")

    p = with_instance("best-response", help="one designer's best response")
    p.add_argument("--designer", type=int, required=True)
    p.add_argument("--profile", required=True, help='JSON profile, e.g. "[[1],[2]]"')

    p = with_instance("dynamics", help="round-robin best-response dynamics")
    p.add_argument("--init", required=True, help="JSON initial profile")
    p.add_argument("--max-rounds", type=int, default=100)

    with_instance("nash", help="exhaustive pure Nash search")

    p = sub.add_parser("gen", help="emit a generated instance document")
    p.add_argument(
        "--kind",
        required=True,
        choices=["random-flower", "partition", "two-agent-partition", "set-cover", "no-nash"],
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--a", default="1,1", help="comma-separated multiset for partition kinds")
    p.add_argument("--universe", default="1,2", help="comma-separated elements")
    p.add_argument("--families", default="1;2;1,2", help="semicolon-separated element lists")
    p.add_argument("--k", type=int, default=1)

    with_instance("verify", help="run solver against an independent oracle")
    return parser


_COMMANDS = {
    "solve-agent": _cmd_solve_agent,
    "solve-multiplatform-agent": _cmd_solve_multiplatform,
    "solve-designer": _cmd_solve_designer,
    "solve-multi-agent": _cmd_solve_multi_agent,
    "best-response": _cmd_best_response,
    "dynamics": _cmd_dynamics,
    "nash": _cmd_nash,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    started = time.monotonic()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, started)
    except (ParseError, SchemaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
