"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 success, 1 solver/oracle mismatch in verify, 2 invalid
input (parse, schema, or guard violations).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from typing import NamedTuple

from . import agent, designer, game, instances, multiagent, multiplatform
from .core import (
    FlowerInstance,
    GeneralChain,
    ReducibleChain,
    all_subsets,
    build_flower_instance,
    build_general_chain,
    derived_params,
    steady_state_general,
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


def _is_int(value) -> bool:
    """A JSON integer; booleans are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


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


class _Rule(NamedTuple):
    """How one field is read and written.  `read(value, path, n, k)` checks
    the JSON value found at `path` against n states and k agents; an absent
    optional field is left out, so the caller's default applies."""

    read: Callable
    write: Callable
    optional: bool = False


def _rationals(count: Callable) -> _Rule:
    def read(value, path, n, k):
        size = count(n, k)
        if not isinstance(value, list) or len(value) != size:
            raise SchemaError(f"{path}: expected a list of {size} rationals")
        return tuple(parse_rat(v, f"{path}[{i}]") for i, v in enumerate(value))

    return _Rule(read, lambda values: [fmt(v) for v in values])


def _state(value, path, n, k) -> int:
    if not _is_int(value) or not 1 <= value <= n:
        raise SchemaError(f"{path}: expected an integer in 1..{n}")
    return value


def _step(holds: Callable, claim: str) -> _Rule:
    """A quantization step: a rational for which `holds` is true."""

    def read(value, path, n, k):
        step = parse_rat(value, path)
        if not holds(step):
            name = path.rpartition(".")[2].lstrip("-")  # the key or the flag
            raise SchemaError(f"{path}: {name} = {step} {claim}")
        return step

    return _Rule(read, fmt)


_PER_STATE = _rationals(lambda n, k: n)
_PER_AGENT = _rationals(lambda n, k: k)
_RATIONAL = _Rule(lambda value, path, n, k: parse_rat(value, path), fmt)
_STATE = _Rule(_state, int)
_LABEL = _Rule(lambda value, path, n, k: value, str, optional=True)  # any value, written as text
_POSITIVE = _step(lambda x: x > 0, "must be positive")
_UNIT = _step(lambda x: 0 < x < 1, "must lie in (0, 1)")._replace(optional=True)

# The instance documents, one table of (key, rule) rows per object shape.
_FLOWER = tuple(
    (key, _PER_STATE) for key in ("p", "q", "y", "c_life", "c_platform", "d", "cost")
)
_AGENT, _COST = _FLOWER[:-1], _FLOWER[-1:]  # several agents share one cost row
_PLATFORM = (
    ("id", _LABEL),
    ("state", _STATE),
    ("z", _PER_AGENT),
    ("phi", _PER_AGENT),
    ("owner", _LABEL),
)
_CANDIDATE = (
    ("state", _STATE),
    ("z", _PER_AGENT),
    ("phi", _PER_AGENT),
    ("d", _PER_AGENT),
    ("cost", _RATIONAL),
)
# Required in multi-agent, competitive and game documents, which need both
# steps; a flower's block is optional and read by solve-designer alone.
_STEPS = (("delta", _POSITIVE), ("delta_prime", _POSITIVE))
_QUANTIZATION = _STEPS + (("epsilon", _UNIT),)
_FLOWER_QUANTIZATION = tuple((key, rule._replace(optional=True)) for key, rule in _QUANTIZATION)


def _read(doc, rows, path: str, n: int, k: int = 0) -> dict:
    """The fields of the object `doc` at JSON path `path`, one per row."""
    _object(doc, path)
    fields = {}
    for key, rule in rows:
        at = key if path == "$" else f"{path}.{key}"
        if key in doc:
            fields[key] = rule.read(doc[key], at, n, k)
        elif not rule.optional:
            raise SchemaError(f"{at}: missing")
    return fields


def _write(obj, rows) -> dict:
    return {key: rule.write(getattr(obj, key)) for key, rule in rows}


def _build(path: str, builder, *args, **kwargs):
    """builder(*args, **kwargs), with its ValueError reported under `path`."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None


def _steps(doc) -> tuple[Fraction, Fraction]:
    q = _read(doc.get("quantization"), _QUANTIZATION, "quantization", 0)
    return q["delta"], q["delta_prime"]


def _agents(doc, n: int, rows, **shared) -> list[FlowerInstance]:
    agents = doc.get("agents")
    if not isinstance(agents, list) or not agents:
        raise SchemaError("agents: expected a nonempty list")
    flowers = []
    for i, a in enumerate(agents):
        path = f"agents[{i}]"
        flowers.append(_build(path, build_flower_instance, **_read(a, rows, path, n), **shared))
    return flowers


def parse_instance(doc):
    """Typed instance from a JSON document; raises ParseError/SchemaError."""
    _object(doc, "$")
    version = doc.get("version")
    if not _is_int(version) or version != 1:
        raise SchemaError("version: expected 1")
    kind = doc.get("kind")
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
        if not _is_int(start):
            raise SchemaError("start: expected an integer state index")
        return _build("rows", build_general_chain, parsed, start)
    if kind not in ("flower", "multi-agent", "competitive", "game"):
        raise SchemaError(f"kind: unknown kind {kind!r}")
    n = doc.get("states")
    if not _is_int(n) or n < 1:
        raise SchemaError("states: expected a positive integer")
    if kind == "flower":
        return _build("$", build_flower_instance, **_read(doc, _FLOWER, "$", n))
    if kind == "game":
        chassis = _agents(doc, n, _FLOWER)
        designers = []
        for d, entry in enumerate(_list(doc.get("designers"), "designers")):
            path = f"designers[{d}].candidates"
            cands = _list(_object(entry, f"designers[{d}]").get("candidates"), path)
            designers.append(
                [
                    game.Candidate(**_read(c, _CANDIDATE, f"{path}[{i}]", n, len(chassis)))
                    for i, c in enumerate(cands)
                ]
            )
        return _build("designers", game.build_game_instance, chassis, designers, *_steps(doc))
    agents = _agents(doc, n, _AGENT, **_read(doc, _COST, "$", n))
    mi = _build(
        "agents", multiagent.build_multi_agent_instance, agents, *_steps(doc), m_ceiling=10**12
    )
    if kind == "multi-agent":
        return mi
    platforms = [
        ExternalPlatform(**{"id": f"ext{i}", **_read(pl, _PLATFORM, f"platforms[{i}]", n, mi.k)})
        for i, pl in enumerate(_list(doc.get("platforms"), "platforms"))
    ]
    return _build("platforms", multiagent.build_competitive_instance, mi, platforms)


def serialize_instance(obj) -> dict:
    if isinstance(obj, FlowerInstance):
        return {"version": 1, "kind": "flower", "states": obj.n, **_write(obj, _FLOWER)}
    if isinstance(obj, CompetitiveInstance):
        return {
            **serialize_instance(obj.mi),
            "kind": "competitive",
            "platforms": [_write(pl, _PLATFORM) for pl in obj.externals],
        }
    if isinstance(obj, MultiAgentInstance):
        return {
            "version": 1,
            "kind": "multi-agent",
            "states": obj.n,
            **_write(obj, _COST),
            "agents": [_write(a, _AGENT) for a in obj.agents],
            "quantization": _write(obj, _STEPS),
        }
    if isinstance(obj, game.GameInstance):
        return {
            "version": 1,
            "kind": "game",
            "states": obj.n,
            "agents": [_write(a, _FLOWER) for a in obj.chassis],
            "designers": [
                {"candidates": [_write(c, _CANDIDATE) for c in cands]} for cands in obj.designers
            ],
            "quantization": _write(obj, _STEPS),
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


def _load_instance(path: str, *types):
    """The document at `path` and its instance, which must be one of `types`
    when any are given."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    inst = parse_instance(doc)
    if types and not isinstance(inst, types):
        raise SchemaError(f"kind: this command does not take a {doc['kind']} document")
    return doc, inst


def _states(s) -> list[int]:
    return sorted(s)


def _cmd_solve_agent(args, started):
    _, inst = _load_instance(args.instance, FlowerInstance)
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
    _, ci = _load_instance(args.instance, CompetitiveInstance)
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


def _designer_steps(args, doc) -> tuple[Fraction, Fraction | None]:
    """epsilon and delta for the FPTAS, each checked under the flag or JSON
    path it came from (a flag overrides the document)."""
    q = _read(doc.get("quantization", {}), _FLOWER_QUANTIZATION, "quantization", 0)
    for key, rule in _QUANTIZATION:
        flag = getattr(args, key, None)
        if flag is not None:
            q[key] = rule.read(flag, f"--{key}", 0, 0)
    return q.get("epsilon", Fraction(1, 10)), q.get("delta")


def _cmd_solve_designer(args, started):
    doc, inst = _load_instance(args.instance, FlowerInstance)
    if args.exact:
        result = designer.designer_oracle(inst)
        solver = "designer-oracle"
        bins = None
    else:
        epsilon, delta = _designer_steps(args, doc)
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
    _, obj = _load_instance(args.instance, MultiAgentInstance, CompetitiveInstance)
    if isinstance(obj, CompetitiveInstance):
        result = multiagent.competitive_solve(obj)
        solver = "competitive-dp"
    else:
        result = multiagent.multi_agent_solve(obj)
        solver = "multi-agent-dp"
    return _emit(
        {
            "solver": solver,
            "offered": _states(result.states),
            "profit": fmt(result.profit),
            "profit_decimal": float(result.profit),
        },
        started,
    )


def _parse_profile(text, g, flag) -> tuple:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{flag}: {exc}") from None
    if not isinstance(raw, list) or len(raw) != g.num_designers:
        raise SchemaError(f"{flag}: expected {g.num_designers} state lists")
    profile = []
    for i, states in enumerate(raw):
        if not isinstance(states, list) or any(not _is_int(s) or not 1 <= s <= g.n for s in states):
            raise SchemaError(f"{flag}[{i}]: expected states in 1..{g.n}")
        profile.append(frozenset(states))
    return tuple(profile)


def _profile_doc(profile):
    return [sorted(s) for s in profile]


def _cmd_best_response(args, started):
    _, g = _load_instance(args.instance, game.GameInstance)
    if not 1 <= args.designer <= g.num_designers:
        raise SchemaError(f"--designer: no designer {args.designer}")
    profile = _parse_profile(args.profile, g, "--profile")
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
    _, g = _load_instance(args.instance, game.GameInstance)
    initial = _parse_profile(args.init, g, "--init")
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
    _, g = _load_instance(args.instance, game.GameInstance)
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
    _, obj = _load_instance(args.instance)
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
        except designer.QuantizationError as exc:
            # A negative-z state survived preprocessing: the FPTAS is not
            # defined there.
            checks.append({"check": "designer fptas vs oracle", "skipped": str(exc)})
    elif isinstance(obj, CompetitiveInstance):
        solved = multiagent.competitive_solve(obj)
        best = max(
            (
                (multiagent.competitive_profit(obj, S), S)
                for S in all_subsets(obj.mi.n)
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
        best = max(multiagent.multi_agent_profit(obj, S) for S in all_subsets(obj.n))
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
                oracle.profit(d, empty[:d] + (S,) + empty[d + 1 :]) for S in all_subsets(obj.n)
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
                    for S in all_subsets(obj.n)
                )
                ok = ok and match
                checks.append({"check": check, "nash": _profile_doc(nash), "match": match})
    else:
        check = "steady state is stationary"
        try:
            pi = steady_state_general(obj)
        except ReducibleChain as exc:
            checks.append({"check": check, "skipped": str(exc)})
        else:
            states = range(obj.size)
            match = (
                all(v >= 0 for v in pi)
                and sum(pi) == 1
                and all(sum(pi[s] * obj.rows[s][t] for s in states) == pi[t] for t in states)
            )
            ok = ok and match
            checks.append({"check": check, "pi": [fmt(v) for v in pi], "match": match})
    _emit({"solver": "verify", "checks": checks, "ok": ok}, started)
    return 0 if ok else 1


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
    p.add_argument("--epsilon", default=None, help="rational in (0, 1); default 1/10")
    p.add_argument("--delta", default=None, help="positive rational z grid")
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
