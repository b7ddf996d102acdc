"""Command-line front end: JSON instances in, JSON results out.

Exit codes: 0 success, 1 solver/oracle mismatch in verify, 2 invalid
input (parse, schema, or guard violations).  Diagnostics go to stderr.

Importing this module runs only `pdp.core` besides itself.  The solver
modules are bound through `_lazy`, and each runs on the first use of one of
its names, so a command runs only the solvers it calls.  Start-up is most of
the CPU time of a one-shot `pdp` run: the solvers answer a flower document
in well under a millisecond, against tens of milliseconds to start Python
and compile the modules it imports.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import re
import sys
import time
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from math import gcd
from typing import NamedTuple

from .core import (
    FlowerInstance,
    FlowerPairs,
    GeneralChain,
    Pair,
    ReducibleChain,
    SignError,
    TooLarge,
    all_subsets,
    as_pair,
    build_flower_from_pairs,
    build_general_chain,
    rat,
    steady_state_general,
)


def _lazy(name: str):
    """The module `pdp.<name>`, put into sys.modules now; its body runs on
    the first access to one of its attributes (importlib.util.LazyLoader).

    This cuts start-up time.  Being in sys.modules, the module is found by
    later imports and by code that looks it up there before its first use.
    A module already imported is returned as it is.  LazyLoader is not
    thread-safe before Python 3.12; `pdp` runs no threads.
    """
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)  # as an eager import binds it
    return module


agent, designer, game, instances, multiagent, multiplatform = (
    _lazy(name) for name in ("agent", "designer", "game", "instances", "multiagent", "multiplatform")
)


class ParseError(ValueError):
    """A field does not parse as the expected primitive."""


class SchemaError(ValueError):
    """The document violates the instance schema."""


# An ASCII integer or "num/den" with a nonzero denominator: the one shape
# instance documents use.  A list of them, joined by commas, is one match.
_RATIONAL_LIST = re.compile("{0}(?:,{0})*".format(r"-?[0-9]+(?:/0*[1-9][0-9]*)?"))


def _fraction_pair(value, path: str) -> Pair:
    """One JSON value read by core.rat, as a lowest-terms pair; rat's error
    becomes a ParseError naming `path`."""
    try:
        return as_pair(rat(value))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"{path}: {exc}") from None


def _read_pairs(values: list, name: Callable[[int], str]) -> tuple[Pair, ...]:
    """The exact rationals `values` as lowest-terms pairs.

    A list of strings that joins into one `_RATIONAL_LIST` match is read in
    one pass, one gcd per value.  Any other list goes whole to
    `_fraction_pair`, the value at index i named `name(i)`: a non-string,
    a value off the pattern, and a comma inside a value or a value past
    int()'s digit limit, where int() raises ValueError.  So every list
    reads as Fraction(str) reads it, or fails with the same message.
    """
    try:
        if _RATIONAL_LIST.fullmatch(",".join(values)):
            pairs = []
            append = pairs.append
            for v in values:
                num, slash, den = v.partition("/")
                if slash:
                    num, den = int(num), int(den)
                    g = gcd(num, den)
                    append((num // g, den // g))
                else:
                    append((int(num), 1))
            return tuple(pairs)
    except (TypeError, ValueError):  # join refused a non-string; int() a value
        pass
    return tuple(_fraction_pair(v, name(i)) for i, v in enumerate(values))


def parse_rat(value, path: str) -> Fraction:
    """An exact rational from a JSON integer or string, as a Fraction: the
    list reader on [value], named `path`."""
    return Fraction(*_read_pairs([value], lambda i: path)[0])


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


def _rationals(count: Callable, fractions: bool) -> _Rule:
    """A list of count(n, k) rationals, as Pairs or, with `fractions`, as
    Fractions; a failing value is named `path[i]`."""

    def read(value, path, n, k):
        size = count(n, k)
        if not isinstance(value, list) or len(value) != size:
            raise SchemaError(f"{path}: expected a list of {size} rationals")
        pairs = _read_pairs(value, lambda i: f"{path}[{i}]")
        return tuple(Fraction(*v) for v in pairs) if fractions else pairs

    return _Rule(read, lambda values: [str(v) for v in values])


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

    return _Rule(read, str)


_PER_STATE = _rationals(lambda n, k: n, fractions=False)  # flower values, as pairs
_PER_AGENT = _rationals(lambda n, k: k, fractions=True)
_RATIONAL = _Rule(lambda value, path, n, k: parse_rat(value, path), str)
_STATE = _Rule(_state, int)
_LABEL = _Rule(lambda value, path, n, k: str(value), str, optional=True)  # any value, as text
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
# steps; every command checks a flower's optional block, solve-designer reads
# it, and its keys are the keywords of designer.preprocess.
_STEPS = (("delta", _POSITIVE), ("delta_prime", _POSITIVE))
_QUANTIZATION = _STEPS + (("epsilon", _UNIT),)
_FLOWER_QUANTIZATION = (("delta", _POSITIVE._replace(optional=True)), ("epsilon", _UNIT))


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


def _build(path: str | None, builder, *args, **kwargs):
    """builder(*args, **kwargs); its ValueError is reported under `path`, if given."""
    try:
        return builder(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}" if path else str(exc)) from None


def _flower_quantization(doc) -> dict:
    return _read(doc.get("quantization", {}), _FLOWER_QUANTIZATION, "quantization", 0)


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
        pairs = FlowerPairs(**_read(a, rows, path, n), **shared)
        flowers.append(_build(path, build_flower_from_pairs, pairs))
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
            parsed.append(_read_pairs(row, lambda j: f"rows[{i}][{j}]"))
        start = doc.get("start", 0)
        if not _is_int(start):
            raise SchemaError("start: expected an integer state index")
        if not 0 <= start < len(rows):
            raise SchemaError(f"start: state {start} is not in 0..{len(rows) - 1}")
        return _build("rows", build_general_chain, parsed, start)
    if kind not in ("flower", "multi-agent", "competitive", "game"):
        raise SchemaError(f"kind: unknown kind {kind!r}")
    n = doc.get("states")
    if not _is_int(n) or n < 1:
        raise SchemaError("states: expected a positive integer")
    if kind == "flower":
        flower = _build("$", build_flower_from_pairs, FlowerPairs(**_read(doc, _FLOWER, "$", n)))
        _flower_quantization(doc)
        return flower
    if kind == "game":
        chassis = _agents(doc, n, _FLOWER)
        entries = doc.get("designers")
        if not isinstance(entries, list) or not entries:
            raise SchemaError("designers: expected a nonempty list")
        designers = []
        for d, entry in enumerate(entries):
            path = f"designers[{d}].candidates"
            cands = _list(_object(entry, f"designers[{d}]").get("candidates"), path)
            designers.append(
                [
                    game.Candidate(**_read(c, _CANDIDATE, f"{path}[{i}]", n, len(chassis)))
                    for i, c in enumerate(cands)
                ]
            )
        return _build(None, game.build_game_instance, chassis, designers, *_steps(doc))
    agents = _agents(doc, n, _AGENT, **_read(doc, _COST, "$", n))
    mi = _build("agents", multiagent.build_multi_agent_instance, agents, *_steps(doc))
    if kind == "multi-agent":
        return mi
    external = multiagent.ExternalPlatform
    platforms = [
        external(**{"id": f"ext{i}", **_read(pl, _PLATFORM, f"platforms[{i}]", n, mi.k)})
        for i, pl in enumerate(_list(doc.get("platforms"), "platforms"))
    ]
    return _build("platforms", multiagent.build_competitive_instance, mi, platforms)


def serialize_instance(obj) -> dict:
    if isinstance(obj, FlowerInstance):
        return {"version": 1, "kind": "flower", "states": obj.n, **_write(obj, _FLOWER)}
    if isinstance(obj, multiagent.CompetitiveInstance):
        return {
            **serialize_instance(obj.mi),
            "kind": "competitive",
            "platforms": [_write(pl, _PLATFORM) for pl in obj.externals],
        }
    if isinstance(obj, multiagent.MultiAgentInstance):
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
            "rows": [[str(v) for v in row] for row in obj.rows],
            "start": obj.start,
        }
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _load_instance(path: str, *kinds):
    """The document at `path` and its instance, whose `kind` must be one of
    `kinds` when any are given."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals past int's digit limit; RecursionError, nesting too deep.
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
    inst = parse_instance(doc)
    if kinds and doc["kind"] not in kinds:
        raise SchemaError(f"kind: this command does not take a {doc['kind']} document")
    return doc, inst


def _exact(key: str, value: Fraction) -> dict:
    """`value` under `key` as an exact rational and under `key_decimal` as a
    float, or None (null) when the value is outside the float range."""
    try:
        decimal = float(value)
    except OverflowError:
        decimal = None
    return {key: str(value), f"{key}_decimal": decimal}


def _offer(solver: str, result) -> dict:
    """A designer solver's result: its offered states and profit."""
    return {"solver": solver, "offered": sorted(result.states), **_exact("profit", result.profit)}


def _solve_agent(dp):
    """The solver's name, its adoption set and the greedy's steps (none for
    the signed solver)."""
    if all(z > 0 for z in dp.image.z):
        return "greedy", *agent.greedy_solve(dp)
    return "greedy-signed", agent.greedy_solve_signed(dp), ()


def _cmd_solve_agent(args):
    _, inst = _load_instance(args.instance, "flower")
    solver, result, steps = _solve_agent(inst.params)
    return {
        "solver": solver,
        "adopted": sorted(result.states),
        **_exact("utility", result.utility),
        "trace": [
            {"state": st.state, "utility_before": str(st.utility_before), "accepted": st.accepted}
            for st in steps
        ],
    }


def _multiplatform_greedy(ci: multiagent.CompetitiveInstance, i: int):
    """Agent i's (0-based) derived parameters, its view of the external
    platforms, their Pareto curves and the greedy's selection over them."""
    dp = ci.mi.params[i]
    platforms = multiagent.external_platforms(ci.externals, i)
    return dp, platforms, *multiplatform.select_platforms(platforms, dp.A, dp.B)


def _cmd_solve_multiplatform(args):
    _, ci = _load_instance(args.instance, "competitive")
    if not 1 <= args.agent <= ci.mi.k:
        raise SchemaError(f"--agent: no agent {args.agent}")
    _, _, _, sel = _multiplatform_greedy(ci, args.agent - 1)
    return {
        "solver": "multi-platform-greedy",
        "selected": [{"id": str(pl.id), "state": pl.state} for pl in sel.platforms],
        **_exact("utility", sel.utility),
    }


def _designer_steps(args, doc) -> dict:
    """The delta and epsilon given for the FPTAS, each checked under the
    flag or JSON path it came from (a flag overrides the document)."""
    q = _flower_quantization(doc)
    for key, rule in _FLOWER_QUANTIZATION:
        flag = getattr(args, key)
        if flag is not None:
            q[key] = rule.read(flag, f"--{key}", 0, 0)
    return q


def _cmd_solve_designer(args):
    doc, inst = _load_instance(args.instance, "flower")
    q = _designer_steps(args, doc)
    if args.exact:
        return _offer("designer-oracle", designer.designer_oracle(inst))
    try:
        qi = designer.preprocess(inst, **q)
    except designer.QuantizationError as exc:
        # Only an explicit delta misses a z: the default, the gcd of the survivors, divides each.
        at = "--delta" if args.delta is not None else "quantization.delta"
        raise SchemaError(f"{at}: {exc}") from None
    except (SignError, designer.EmptyInstance, designer.CostBoundError) as exc:
        raise SchemaError(f"$: {exc}") from None
    result = designer.fptas_solve(qi)
    return {**_offer("designer-fptas", result), "bins": result.bins}


def _threshold_dp(obj):
    """A multi-agent or competitive instance's kind, its number of states,
    its solver and its independent profit."""
    if isinstance(obj, multiagent.CompetitiveInstance):
        return "competitive", obj.mi.n, multiagent.competitive_solve, multiagent.competitive_profit
    return "multi-agent", obj.n, multiagent.multi_agent_solve, multiagent.multi_agent_profit


def _cmd_solve_multi_agent(args):
    _, obj = _load_instance(args.instance, "multi-agent", "competitive")
    name, _, solve, _ = _threshold_dp(obj)
    return _offer(f"{name}-dp", solve(obj))


def _parse_profile(text, g, flag) -> tuple:
    try:
        raw = json.loads(text)
    # ValueError and RecursionError as in _load_instance.
    except (ValueError, RecursionError) as exc:
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


def _cmd_best_response(args):
    _, g = _load_instance(args.instance, "game")
    if not 1 <= args.designer <= g.num_designers:
        raise SchemaError(f"--designer: no designer {args.designer}")
    profile = _parse_profile(args.profile, g, "--profile")
    result = game.best_response(g, args.designer - 1, profile)
    return {
        "solver": "best-response",
        "designer": args.designer,
        "built": sorted(result.states),
        **_exact("profit", result.profit),
    }


def _cmd_dynamics(args):
    if args.max_rounds < 0:
        raise SchemaError("--max-rounds: expected a nonnegative integer")
    _, g = _load_instance(args.instance, "game")
    initial = _parse_profile(args.init, g, "--init")
    outcome = game.best_response_dynamics(g, initial, args.max_rounds)
    return {
        "solver": "best-response-dynamics",
        "outcome": outcome.kind,
        "profile": _profile_doc(outcome.profile) if outcome.profile else None,
        "cycle": [_profile_doc(p) for p in outcome.cycle],
        "period": outcome.period,
        "trace": [_profile_doc(p) for p in outcome.trace],
    }


def _cmd_nash(args):
    _, g = _load_instance(args.instance, "game")
    nash = game.pure_nash_search(g)
    return {"solver": "pure-nash-search", "nash": None if nash is None else _profile_doc(nash)}


def _csv_ints(text, path):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _cmd_gen(args):
    if args.kind == "random-flower":
        return serialize_instance(_build("--n", instances.gen_random_flower, args.n, args.seed))
    if args.kind == "partition":
        fixture = _build("--a", instances.gen_partition_instance, _csv_ints(args.a, "--a"))
        return {
            **serialize_instance(fixture.instance),
            "partition": {
                "v_star": str(fixture.v_star),
                "eta": str(fixture.eta),
                "eta_prime": str(fixture.eta_prime),
                "b": list(fixture.b),
                "special": fixture.special,
            },
        }
    if args.kind == "two-agent-partition":
        fixture = _build("--a", instances.gen_two_agent_partition, _csv_ints(args.a, "--a"))
        return {
            **serialize_instance(fixture.mi),
            "partition": {
                "v_star": str(fixture.v_star),
                "no_bound": str(fixture.no_bound),
                "eta": str(fixture.eta),
                "eta_prime": str(fixture.eta_prime),
            },
        }
    if args.kind == "set-cover":
        universe = _csv_ints(args.universe, "--universe")
        families = [
            frozenset(_csv_ints(part, "--families"))
            for part in args.families.split(";")
            if part != ""
        ]
        if not universe:
            raise SchemaError("--universe: need a nonempty universe")
        if len(set(universe)) < len(universe):
            raise SchemaError("--universe: universe elements must be distinct")
        if args.k < 1:
            raise SchemaError("--k: need k >= 1")
        # What is left to refuse, the choice guard included, is the families'.
        sc = _build("--families", instances.gen_setcover_instance, universe, families, args.k)
        built = frozenset(range(sc.m))
        routing = tuple(
            next((i for i in sc.routing_options(j) if i is not None), None)
            for j in range(sc.n)
        )
        return {
            **serialize_instance(sc.chain_for(built, routing)),
            "setcover": {
                "universe": list(sc.universe),
                "families": [sorted(f) for f in sc.families],
                "k": sc.k,
                "built": sorted(built),
                "routing": list(routing),
            },
        }
    return serialize_instance(instances.gen_no_nash_game())  # argparse admits no other kind


class _Skip(Exception):
    """A verify check that cannot run; the message says why."""


# The most subsets one brute-force check of `verify` enumerates.  At n = 14
# the profit oracles take, per subset, about 0.08 ms (multi_agent_profit,
# k = 2), 0.11 ms (k = 3), 0.011-0.014 ms (competitive_profit, k = 2-3) and
# 0.007-0.012 ms (a two-designer game's, k = 1-2), timed in-process on a
# 2-core x86-64 machine, so a sweep takes up to about 2 s.
_BRUTE_FORCE_SUBSETS = 1 << 14


def _guard_brute_force(n: int, sweeps: int = 1) -> None:
    """Skip a check that sweeps the 2^n subsets `sweeps` times past the budget."""
    total = sweeps << n
    if total > _BRUTE_FORCE_SUBSETS:
        raise _Skip(f"{total} subsets exceed the guard {_BRUTE_FORCE_SUBSETS}")


def _check(name: str, run: Callable[[], dict], *skips: type[ValueError]) -> dict:
    """Check `name` with the fields `run()` returns, in order; a `_Skip`, a
    TooLarge (a guard or budget spent) or one of `skips` from `run` reports
    the check as skipped, for its reason."""
    try:
        return {"check": name, **run()}
    except (_Skip, TooLarge, *skips) as exc:
        return {"check": name, "skipped": str(exc)}


def _compared(match: bool, solver: Fraction, oracle: Fraction, **fields) -> dict:
    """A check's fields: the solver's value, the oracle's, `fields`, then match."""
    return {"solver": str(solver), "oracle": str(oracle), **fields, "match": match}


def _verify_flower(inst: FlowerInstance) -> list[dict]:
    def greedy():
        oracle = agent.agent_oracle(inst.params)
        _, solved, _ = _solve_agent(inst.params)
        return _compared(solved.utility == oracle.utility, solved.utility, oracle.utility)

    def fptas():
        try:
            qi = designer.preprocess(inst)
        except designer.EmptyInstance:
            raise _Skip("no surviving state") from None
        approx = designer.fptas_solve(qi)
        exact = designer.designer_oracle(inst)
        bound = (1 - qi.epsilon) * exact.profit
        match = approx.profit >= bound and agent.is_feasible(inst, approx.states)
        return _compared(match, approx.profit, exact.profit)

    # A negative-z state survived preprocessing, or a cost is too large a
    # multiple of K: the FPTAS does not cover the instance.
    uncovered = (SignError, designer.CostBoundError)
    return [
        _check("agent greedy vs oracle", greedy),
        _check("designer fptas vs oracle", fptas, *uncovered),
    ]


def _verify_threshold_dp(obj) -> list[dict]:
    # Each kind keeps its own brute force: multi_agent_profit does not
    # go through the competitive curves the solver uses.
    name, n, solve, profit = _threshold_dp(obj)

    def optimum():
        _guard_brute_force(n)
        solved = solve(obj)
        best = max(profit(obj, S) for S in all_subsets(n))
        return _compared(solved.profit == best, solved.profit, best)

    def multiplatform_greedy(i):
        # What solve-multiplatform-agent --agent i+1 prints, against the
        # oracle over the unpruned platforms and the swap criterion.
        dp, platforms, curves, sel = _multiplatform_greedy(obj, i)
        oracle = multiplatform.multi_oracle(platforms, dp.A, dp.B)
        ids = [pl.id for pl in sel.platforms]
        local = multiplatform.local_optimality_check(curves, ids, dp.A, dp.B)
        match = sel.utility == oracle.utility and local
        return _compared(match, sel.utility, oracle.utility, locally_optimal=local)

    checks = [_check(f"{name} dp vs brute force", optimum)]
    if isinstance(obj, multiagent.CompetitiveInstance):
        for i in range(obj.mi.k):
            check = f"agent {i + 1} multiplatform greedy vs oracle"
            checks.append(_check(check, partial(multiplatform_greedy, i)))
    return checks


def _verify_game(g: game.GameInstance) -> list[dict]:
    empty = (frozenset(),) * g.num_designers

    def profits(d, profile):
        """Designer d's profit from each of its sets against the rivals'
        builds in profile.  The instance is built on its own, with a
        curve pool of its externals alone, so the brute force shares no
        instance, scale or run with the search's memo."""
        ci = game.competitive_instance(g, d, profile)
        return {S: multiagent.competitive_profit(ci, S) for S in all_subsets(g.n)}

    def response(d):
        _guard_brute_force(g.n)
        solved = game.best_response(g, d, empty)
        best = max(profits(d, empty).values())
        return _compared(solved.profit == best, solved.profit, best)

    def nash():
        _guard_brute_force(g.n, g.num_designers)
        profile = game.pure_nash_search(g)
        if profile is None:
            raise _Skip("no pure Nash profile")
        deviations = [profits(d, profile) for d in range(g.num_designers)]
        match = all(max(p.values()) <= p[profile[d]] for d, p in enumerate(deviations))
        return {"nash": _profile_doc(profile), "match": match}

    checks = [
        _check(f"designer {d + 1} best response vs brute force", partial(response, d))
        for d in range(g.num_designers)
    ]
    return [*checks, _check("pure nash vs definition", nash)]


def _verify_chain(chain: GeneralChain) -> list[dict]:
    def stationary():
        pi = steady_state_general(chain)
        states = range(chain.size)
        match = (
            all(v >= 0 for v in pi)
            and sum(pi) == 1
            and all(sum(pi[s] * chain.rows[s][t] for s in states) == pi[t] for t in states)
        )
        return {"pi": [str(v) for v in pi], "match": match}

    return [_check("steady state is stationary", stationary, ReducibleChain)]


_CHECKERS = {
    "flower": _verify_flower,
    "multi-agent": _verify_threshold_dp,
    "competitive": _verify_threshold_dp,
    "game": _verify_game,
    "general-chain": _verify_chain,
}


def _cmd_verify(args):
    doc, obj = _load_instance(args.instance)
    checks = _CHECKERS[doc["kind"]](obj)
    return {"solver": "verify", "checks": checks, "ok": all(c.get("match", True) for c in checks)}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pdp", description="Exact solvers for platform design over flower chains"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_instance(name, run, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("instance", help="path to a JSON instance file")
        p.set_defaults(run=run)
        return p

    with_instance("solve-agent", _cmd_solve_agent, help="optimal single-platform adoption set")

    p = with_instance(
        "solve-multiplatform-agent",
        _cmd_solve_multiplatform,
        help="optimal selection over listed platforms",
    )
    p.add_argument("--agent", type=int, default=1)

    p = with_instance("solve-designer", _cmd_solve_designer, help="designer profit maximization")
    p.add_argument("--epsilon", default=None, help="rational in (0, 1); default 1/10")
    p.add_argument("--delta", default=None, help="positive rational z grid")
    p.add_argument("--exact", action="store_true", help="use the exponential oracle")

    with_instance(
        "solve-multi-agent",
        _cmd_solve_multi_agent,
        help="multi-agent or competitive designer optimum",
    )

    p = with_instance("best-response", _cmd_best_response, help="one designer's best response")
    p.add_argument("--designer", type=int, required=True)
    p.add_argument("--profile", required=True, help='JSON profile, e.g. "[[1],[2]]"')

    p = with_instance("dynamics", _cmd_dynamics, help="round-robin best-response dynamics")
    p.add_argument("--init", required=True, help="JSON initial profile")
    p.add_argument("--max-rounds", type=int, default=100)

    with_instance("nash", _cmd_nash, help="exhaustive pure Nash search")

    p = sub.add_parser("gen", help="emit a generated instance document")
    p.set_defaults(run=_cmd_gen)
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

    with_instance("verify", _cmd_verify, help="run solver against an independent oracle")
    return parser


# The parser, built by the first call of main and reused by every later one
# in the process: parse_args reads it and never changes it.
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    started = time.monotonic()
    if _PARSER is None:
        _PARSER = _build_parser()
    args = _PARSER.parse_args(argv)
    try:
        result = args.run(args)
    except ValueError as exc:  # ParseError and SchemaError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command != "gen":  # a generated document is an instance, not a result
        result["wall_clock_seconds"] = round(time.monotonic() - started, 6)
    sys.stdout.write(json.dumps(result, indent=2) + "\n")
    return 0 if result.get("ok", True) else 1


if __name__ == "__main__":
    sys.exit(main())
