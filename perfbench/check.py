"""Independent checker for the outputs of the benchmark's `pdp` commands.

Nothing here imports `pdp`: every quantity is recomputed from the instance
document with the model's closed forms.  For petal i of a flower,

    lambda_i = p_i / (1 - q_i)          w_i = p_i / (1 - q_i - y_i)
    z_i = w_i - lambda_i                phi_i = (w_i c_platform_i - lambda_i c_life_i) / z_i
    A = sum lambda_i c_life_i           B = 1 + sum lambda_i

and the agent's utility for an adopted set S is (A + sum_S z phi) / (B + sum_S z).
Each `check_*` function returns None when an output is right, or a short
description of what is wrong.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction as F


@dataclass(frozen=True)
class Flower:
    lam: tuple
    w: tuple
    z: tuple
    phi: tuple
    A: F
    B: F
    d: tuple
    cost: tuple

    @property
    def n(self) -> int:
        return len(self.z)

    def utility(self, S) -> F:
        return (self.A + sum(self.z[i - 1] * self.phi[i - 1] for i in S)) / (
            self.B + sum(self.z[i - 1] for i in S)
        )

    def profit(self, S) -> F:
        """Designer profit when the agent adopts exactly the offered S."""
        den = self.B + sum(self.z[i - 1] for i in S)
        revenue = sum(self.d[i - 1] * self.w[i - 1] for i in S) / den
        return revenue - sum(self.cost[i - 1] for i in S)


def rat(text: str) -> F:
    """An 'a/b' or 'a' string (what the generator writes) as a Fraction."""
    num, _, den = text.partition("/")
    return F(int(num), int(den) if den else 1)


def flower(fields: dict, cost=None) -> Flower:
    get = lambda key: [rat(v) for v in fields[key]]  # noqa: E731
    p, q, y, c_life, c_platform = (get(k) for k in ("p", "q", "y", "c_life", "c_platform"))
    lam = [pi / (1 - qi) for pi, qi in zip(p, q)]
    w = [pi / (1 - qi - yi) for pi, qi, yi in zip(p, q, y)]
    z = [wi - li for wi, li in zip(w, lam)]
    phi = [(wi * cp - li * cl) / zi for wi, li, zi, cp, cl in zip(w, lam, z, c_platform, c_life)]
    A = sum((li * cl for li, cl in zip(lam, c_life)), F(0))
    cost = get("cost") if cost is None else cost
    return Flower(tuple(lam), tuple(w), tuple(z), tuple(phi), A, 1 + sum(lam), tuple(get("d")), tuple(cost))


def ratio_set(f: Flower, u: F) -> set:
    """States that raise A + sum z phi - u (B + sum z): z (phi - u) > 0."""
    return {i + 1 for i in range(f.n) if f.z[i] * (f.phi[i] - u) > 0}


def agent_optimum(f: Flower) -> F:
    """Best utility over all subsets, by iterating u <- u(ratio_set(u))."""
    u = f.A / f.B
    while True:
        nxt = f.utility(ratio_set(f, u))
        if nxt == u:
            return u
        u = nxt


def designer_optimum(f: Flower) -> F:
    """Exact best profit over every offered set the agent adopts whole.

    With positive z the agent adopts all of S iff u(S) < min phi over S.
    The search walks sets in descending phi, so the state added last sets
    the minimum; a set is reached only through feasible prefixes, which
    loses nothing: if u(P) >= min phi(P) for the prefix P, every set
    extending it by smaller potentials also fails.  States with phi at or
    below A/B are in no feasible set, and a state whose singleton is
    unprofitable can be dropped from any feasible set without lowering its
    profit, so both are left out.  Arithmetic is scaled to integers.
    """
    keep = [
        i
        for i in range(f.n)
        if f.phi[i] > f.A / f.B and f.d[i] * f.w[i] / (f.B + f.z[i]) > f.cost[i]
    ]
    keep.sort(key=lambda i: -f.phi[i])
    values = [f.A, f.B] + [v for i in keep for v in (f.z[i], f.phi[i], f.d[i] * f.w[i], f.cost[i])]
    L = math.lcm(*(v.denominator for v in values))
    A, B = int(f.A * L), int(f.B * L)
    items = [
        (int(f.z[i] * L), int(f.phi[i] * L), int(f.d[i] * f.w[i] * L), int(f.cost[i] * L)) for i in keep
    ]
    best = [0, 1]  # profit * L^2 as a fraction num/den; the empty set earns 0

    def extend(start, N, D, R, C):
        for t in range(start, len(items)):
            z, phi, r, c = items[t]
            N2, D2 = N + z * phi, D + z
            # u(S) < phi_min  <=>  (A L + N2) < phi (B + D2), all scaled by L.
            if A * L + N2 >= phi * (B + D2):
                continue
            R2, C2 = R + r, C + c
            num, den = R2 * L - C2 * (B + D2), B + D2
            if num * best[1] > best[0] * den:
                best[:] = [num, den]
            extend(t + 1, N2, D2, R2, C2)

    extend(0, 0, 0, 0, 0)
    return F(best[0], best[1] * L)


def _subsets(n: int):
    for mask in range(1 << n):
        yield frozenset(i + 1 for i in range(n) if mask >> i & 1)


def _states(value) -> list:
    if not isinstance(value, list) or not all(isinstance(s, int) for s in value):
        raise ValueError(f"expected a list of states, got {value!r}")
    return value


# --- single agent ---------------------------------------------------------


def check_agent(doc: dict, out: dict):
    f = flower(doc)
    S = set(_states(out["adopted"]))
    u = F(out["utility"])
    if f.utility(S) != u:
        return f"reported utility {u} is not u(S) = {f.utility(S)}"
    # S = ratio_set(u(S)) proves optimality: for any T,
    # A + sum_T z phi - u (B + sum_T z) <= the same sum over S = 0.
    if S != ratio_set(f, u):
        return f"adopted {sorted(S)} is not ratio-optimal at u = {u}"
    return None


def check_fptas(doc: dict, out: dict, epsilon: F):
    f = flower(doc)
    if any(z <= 0 for z in f.z):
        return "fptas documents must have positive z"
    S = _states(out["offered"])
    profit = F(out["profit"])
    if not S or f.profit(S) != profit:
        return f"reported profit {profit} is not the profit of {S}"
    if not f.utility(S) < min(f.phi[i - 1] for i in S):
        return f"offered set {S} is not adopted whole"
    if profit <= 0:
        return f"profit {profit} is not positive"
    bound = table_bound(f, epsilon)
    if not isinstance(out.get("bins"), int) or not 0 < out["bins"] <= bound:
        return f"bins {out.get('bins')} outside (0, {bound}]"
    opt = designer_optimum(f)
    if profit < (1 - epsilon) * opt:
        return f"profit {profit} below (1 - {epsilon}) * OPT = {(1 - epsilon) * opt}"
    return None


def table_bound(f: Flower, epsilon: F) -> int:
    """The FPTAS table-size bound: profit bins x revenue bins x shift steps."""
    n = f.n
    single = {i: f.profit([i]) for i in range(1, n + 1)}
    surviving = [i for i in single if f.A / f.B < f.phi[i - 1] and single[i] > 0]
    K = max(single[i] for i in surviving)
    r = max(f.cost[i - 1] / K for i in surviving)
    zs = [f.z[i - 1] for i in surviving]
    delta = F(math.gcd(*(z.numerator for z in zs)), math.lcm(*(z.denominator for z in zs)))
    steps = sum(int(z / delta) for z in zs)
    profit_bins = math.ceil(2 * n * n / epsilon) + 2
    revenue_bins = math.ceil(2 * n * n * (1 + r) / epsilon) + 2
    return profit_bins * revenue_bins * (steps + 1)


def check_verify(doc: dict, out: dict, epsilon: F):
    if out.get("ok") is not True:
        return "verify reported a mismatch"
    f = flower(doc)
    checks = {c["check"]: c for c in out["checks"]}
    agent = checks["agent greedy vs oracle"]
    u = agent_optimum(f)
    if F(agent["solver"]) != u or F(agent["oracle"]) != u:
        return f"agent utilities {agent['solver']}, {agent['oracle']} differ from the optimum {u}"
    design = checks["designer fptas vs oracle"]
    opt = designer_optimum(f)
    if "skipped" in design:
        return None if opt == 0 else f"designer check skipped, but OPT = {opt} > 0"
    approx, exact = F(design["solver"]), F(design["oracle"])
    if exact != opt:
        return f"oracle profit {exact} differs from the optimum {opt}"
    if not (1 - epsilon) * exact <= approx <= exact:
        return f"fptas profit {approx} outside [(1 - eps) OPT, OPT] for OPT = {exact}"
    return None


# --- several agents, externals and designers -----------------------------


@dataclass(frozen=True)
class Option:
    """A platform an agent may adopt at a petal, scaled by the agent's L."""

    zphi: int
    z: int
    revenue: int  # d * w * L when the designer being evaluated owns it


class Agent:
    """One agent's chassis (A, B, lambda) with integer scaling."""

    def __init__(self, f: Flower, points):
        self.f = f
        values = [f.A, f.B] + [v for z, phi, r in points for v in (z * phi, z, r)]
        self.L = math.lcm(*(v.denominator for v in values))

    def option(self, z: F, phi: F, revenue: F = F(0)) -> Option:
        return Option(int(z * phi * self.L), int(z * self.L), int(revenue * self.L))

    def revenue_share(self, choices) -> F:
        """Designer revenue under the agent's exhaustive best response.

        `choices[j]` lists the platforms offered at petal j; the agent takes
        at most one per petal.  Among utility maximizers it takes the one
        with the least total z, i.e. a tie never adopts.
        """
        A, B = int(self.f.A * self.L), int(self.f.B * self.L)
        best = None
        for combo in itertools.product(*([None, *opts] for opts in choices)):
            picked = [o for o in combo if o is not None]
            N = A + sum(o.zphi for o in picked)
            D = B + sum(o.z for o in picked)
            if best is None:
                better = True
            else:
                cmp = N * best[1] - best[0] * D
                better = cmp > 0 or (cmp == 0 and D < best[1])
            if better:
                best = (N, D, sum(o.revenue for o in picked))
        return F(best[2], best[1])


class Market:
    """Designer 0's profit for any offered set, with fixed external platforms.

    Used for `multi-agent` and `competitive` documents.
    """

    def __init__(self, doc: dict):
        n = doc["states"]
        cost = [F(c) for c in doc["cost"]]
        self.n, self.cost = n, cost
        self.agents, self.own, self.ext = [], [], []
        for i, fields in enumerate(doc["agents"]):
            f = flower(fields, cost=cost)
            ext = [
                (pl["state"], F(pl["z"][i]), F(pl["phi"][i])) for pl in doc.get("platforms", [])
            ]
            points = [(f.z[j], f.phi[j], f.d[j] * f.w[j]) for j in range(n)]
            agent = Agent(f, points + [(z, phi, F(0)) for _, z, phi in ext])
            self.agents.append(agent)
            self.own.append([agent.option(*points[j]) for j in range(n)])
            self.ext.append([(s, agent.option(z, phi)) for s, z, phi in ext])

    def profit(self, S) -> F:
        total = -sum(self.cost[j - 1] for j in S)
        for agent, own, ext in zip(self.agents, self.own, self.ext):
            choices = [[o for s, o in ext if s == j] for j in range(1, self.n + 1)]
            for j in S:
                choices[j - 1].append(own[j - 1])
            total += agent.revenue_share(choices)
        return total


def check_design(doc: dict, out: dict):
    market = Market(doc)
    S = _states(out["offered"])
    profit = F(out["profit"])
    if market.profit(S) != profit:
        return f"reported profit {profit} is not the profit {market.profit(S)} of {S}"
    best = max(market.profit(T) for T in _subsets(market.n))
    if profit != best:
        return f"profit {profit} is not the brute-force optimum {best}"
    return None


class Game:
    """Designers' profits over strategy profiles, memoized per document."""

    def __init__(self, doc: dict):
        self.n = doc["states"]
        self.designers = [sorted(dd["candidates"], key=lambda c: c["state"]) for dd in doc["designers"]]
        # options[i][d][j]: designer d's candidate at petal j+1 as agent i
        # sees it, (owned by the designer evaluated, owned by a rival).
        self.agents, self.options = [], []
        for i, fields in enumerate(doc["agents"]):
            f = flower(fields)
            rows = []
            for cands in self.designers:
                row = []
                for j, c in enumerate(cands):
                    z = F(c["z"][i])
                    row.append((z, F(c["phi"][i]), F(c["d"][i]) * (f.lam[j] + z)))
                rows.append(row)
            agent = Agent(f, [point for row in rows for point in row])
            self.agents.append(agent)
            self.options.append(
                [[(agent.option(z, phi, r), agent.option(z, phi)) for z, phi, r in row] for row in rows]
            )
        self.memo = {}

    def profit(self, d: int, profile) -> F:
        key = (d, profile)
        if key not in self.memo:
            total = -sum(F(self.designers[d][j - 1]["cost"]) for j in profile[d])
            for agent, options in zip(self.agents, self.options):
                choices = [[] for _ in range(self.n)]
                for e, built in enumerate(profile):
                    for j in built:
                        choices[j - 1].append(options[e][j - 1][0 if e == d else 1])
                total += agent.revenue_share(choices)
            self.memo[key] = total
        return self.memo[key]

    def deviate(self, profile, d: int, S):
        return profile[:d] + (frozenset(S),) + profile[d + 1 :]

    def best_value(self, d: int, profile) -> F:
        return max(self.profit(d, self.deviate(profile, d, S)) for S in _subsets(self.n))

    def is_nash(self, profile) -> bool:
        return all(self.profit(d, profile) >= self.best_value(d, profile) for d in range(len(profile)))


def _profile(value, designers: int) -> tuple:
    if not isinstance(value, list) or len(value) != designers:
        raise ValueError(f"expected a profile of {designers} state lists, got {value!r}")
    return tuple(frozenset(_states(s)) for s in value)


def check_best_response(doc: dict, out: dict, designer: int, profile: str):
    g = Game(doc)
    d = designer - 1
    others = _profile(json.loads(profile), len(g.designers))
    built = _states(out["built"])
    profit = F(out["profit"])
    if g.profit(d, g.deviate(others, d, built)) != profit:
        return f"reported profit {profit} is not the profit of {built}"
    if profit != g.best_value(d, others):
        return f"profit {profit} is not the best response value {g.best_value(d, others)}"
    return None


def check_nash(doc: dict, out: dict):
    g = Game(doc)
    k = len(g.designers)
    if out["nash"] is not None:
        profile = _profile(out["nash"], k)
        return None if g.is_nash(profile) else f"{out['nash']} has a profitable deviation"
    subsets = list(_subsets(g.n))
    for profile in itertools.product(subsets, repeat=k):
        if g.is_nash(profile):
            return f"no Nash profile reported, but {[sorted(s) for s in profile]} is one"
    return None


def check_dynamics(doc: dict, out: dict, init: str):
    """Every round moves each designer, in turn, to a best response; a
    reported Nash profile has no profitable deviation and a reported cycle
    closes on an earlier profile."""
    g = Game(doc)
    k = len(g.designers)
    trace = [_profile(p, k) for p in out["trace"]]
    if not trace or trace[0] != _profile(json.loads(init), k):
        return "trace does not start at the initial profile"
    for before, after in zip(trace, trace[1:]):
        current = before
        for d in range(k):
            current = g.deviate(current, d, after[d])
            if g.profit(d, current) != g.best_value(d, current):
                return f"designer {d + 1} moved to {sorted(after[d])}, not a best response"
    kind = out["outcome"]
    if kind == "nash":
        profile = _profile(out["profile"], k)
        if trace[-1] != profile or len(trace) < 2 or trace[-2] != profile or not g.is_nash(profile):
            return f"reported Nash profile {out['profile']} is not a rest point"
    elif kind == "cycle":
        start = trace.index(trace[-1])
        cycle = [_profile(p, k) for p in out["cycle"]]
        if start == len(trace) - 1 or cycle != trace[start:-1] or out["period"] != len(cycle):
            return "reported cycle does not close on the trace"
    elif kind != "budget":
        return f"unknown outcome {kind!r}"
    return None


VERIFY_EPSILON = F(1, 10)  # the epsilon `pdp verify` runs the FPTAS with


def check(op: dict, text: str):
    """Check one operation's standard output; None when it is right.

    `op` holds the `pdp` command, its instance document and its options.
    """
    command, doc, args = op["command"], op["doc"], op["args"]
    try:
        out = json.loads(text)
        if command == "solve-agent":
            return check_agent(doc, out)
        if command == "solve-designer":
            return check_fptas(doc, out, F(args[args.index("--epsilon") + 1]))
        if command == "verify":
            return check_verify(doc, out, VERIFY_EPSILON)
        if command == "solve-multi-agent":
            return check_design(doc, out)
        if command == "best-response":
            return check_best_response(doc, out, int(args[1]), args[3])
        if command == "nash":
            return check_nash(doc, out)
        if command == "dynamics":
            return check_dynamics(doc, out, args[1])
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return f"no checker for {command!r}"
