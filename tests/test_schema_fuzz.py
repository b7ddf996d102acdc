"""Mutation fuzz of the instance documents, driven by the CLI's schema table.

Each case takes a valid small document, breaks one field that a table row
(or a general chain's `rows` and `start`) defines, and runs the cheapest
command that reads the whole document.  `pdp` must answer with exit code
0, 1 or 2, never a traceback, and every exit-2 message must name a path:
`$`, a flag, the broken field or one of its ancestors, or a path that the
broken document has.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_example
from pdp import cli
from pdp.instances import gen_no_nash_game, gen_random_multi_agent, gen_setcover_instance
from pdp.multiagent import ExternalPlatform, build_competitive_instance

_COMPETITIVE = build_competitive_instance(
    gen_random_multi_agent(2, 2, seed=2),
    [ExternalPlatform("x0", 1, (F(1), F(1)), (F(1, 2), F(1, 4)))],
)
_CHAIN = gen_setcover_instance([1, 2], [{1, 2}], k=2).chain_for(frozenset({0}), (0, 0))

# (document, command and flags, [(object keys with "*" for every index, table)])
_BASES = [
    (make_example(), ["solve-agent"], [((), cli._FLOWER)]),
    (
        gen_random_multi_agent(3, 2, seed=1),
        ["solve-multi-agent"],
        [((), cli._COST), (("agents", "*"), cli._AGENT), (("quantization",), cli._QUANTIZATION)],
    ),
    (
        _COMPETITIVE,
        ["solve-multiplatform-agent"],
        [
            ((), cli._COST),
            (("agents", "*"), cli._AGENT),
            (("quantization",), cli._QUANTIZATION),
            (("platforms", "*"), cli._PLATFORM),
        ],
    ),
    (
        gen_no_nash_game(),
        ["best-response", "--designer", "1", "--profile", "[[],[]]"],
        [
            (("agents", "*"), cli._FLOWER),
            (("designers", "*", "candidates", "*"), cli._CANDIDATE),
            (("quantization",), cli._QUANTIZATION),
        ],
    ),
    (_CHAIN, ["verify"], []),
]
_DOCS = [json.loads(json.dumps(cli.serialize_instance(inst))) for inst, _, _ in _BASES]


def _expand(doc, pattern, prefix=()):
    """Every concrete key path matching `pattern` in `doc`."""
    if not pattern:
        yield prefix
        return
    head, rest = pattern[0], pattern[1:]
    if head == "*":
        for i in range(len(_get(doc, prefix))):
            yield from _expand(doc, rest, prefix + (i,))
    else:
        yield from _expand(doc, rest, prefix + (head,))


def _get(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _targets(doc, shapes):
    """Key paths of every field to break: the top-level fields, each object
    a table reads, its rows and the lists that hold it, and the entries of
    each list."""
    fields = [("version",), ("kind",)]
    fields += [("rows",), ("start",)] if doc["kind"] == "general-chain" else [("states",)]
    for pattern, rows in shapes:
        for keys in _expand(doc, pattern):
            fields.extend(keys[:i] for i in range(1, len(keys) + 1))
            fields.extend(keys + (key,) for key, _ in rows)
    out = []
    for keys in fields:
        out.append(keys)
        try:
            value = _get(doc, keys)
        except KeyError:  # an optional row the document leaves out
            continue
        for i, entry in enumerate(value if isinstance(value, list) else ()):
            out.append(keys + (i,))
            if isinstance(entry, list):
                out.extend(keys + (i, j) for j in range(len(entry)))
    return list(dict.fromkeys(out))


_MUTATIONS = ("type", "null", "bool", "float", "1/0", "short", "long", "missing", "0", "-1")


def _mutate(doc, keys, mutation):
    parent = _get(doc, keys[:-1])
    key = keys[-1]
    if mutation == "missing":
        if isinstance(parent, list) or key in parent:
            del parent[key]
        return
    value = parent[key] if isinstance(parent, list) or key in parent else None
    if mutation in ("short", "long"):
        if not isinstance(value, list):
            value = [value]
        parent[key] = value[:-1] if mutation == "short" else value + value[:1]
        return
    parent[key] = {
        "type": [] if isinstance(value, dict) else {},
        "null": None,
        "bool": True,
        "float": 0.5,
        "1/0": "1/0",
        "0": "0",
        "-1": "-1",
    }[mutation]


_CASES = [
    (b, keys, mutation)
    for b, doc in enumerate(_DOCS)
    for keys in _targets(doc, _BASES[b][2])
    for mutation in _MUTATIONS
]


def _path(keys):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".") or "$"


def _resolves(doc, path):
    """True when the bare JSON path names a value in `doc`."""
    for name, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", path):
        if name and isinstance(doc, dict) and name in doc:
            doc = doc[name]
        elif index and isinstance(doc, list) and int(index) < len(doc):
            doc = doc[int(index)]
        else:
            return False
    return True


def test_cases_reach_every_kind():
    assert {_DOCS[b]["kind"] for b, _, _ in _CASES} == {
        "flower", "multi-agent", "competitive", "game", "general-chain"
    }


@given(case=st.sampled_from(_CASES))
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_mutated_documents_exit_cleanly(case):
    b, keys, mutation = case
    doc = copy.deepcopy(_DOCS[b])
    _mutate(doc, keys, mutation)
    command, *flags = _BASES[b][1]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path, *flags])
    assert code in (0, 1, 2)
    if code != 2:
        return
    message = err.getvalue()
    assert message.startswith("error: ") and out.getvalue() == ""
    named = message[len("error: "):].split(": ", 1)[0]
    ancestors = {_path(keys[:i]) for i in range(len(keys) + 1)}
    assert named == "$" or named.startswith("--") or named in ancestors or _resolves(doc, named), (
        _path(keys), mutation, message
    )
