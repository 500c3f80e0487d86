"""The four workloads: their operations, their inputs and the facts to check.

``build`` runs inside the worker as part of set-up: it builds family members
with trifree, writes them as graph6 files, and returns one dict per
operation.  Each dict carries the ``trifree`` command line and the facts its
report must agree with.  Those facts come from the paper and OEIS, not from
trifree; the graphs that ``checks`` needs are passed as graph6 so that it
can rebuild and compare them with its own arithmetic.
"""

from __future__ import annotations

import json
import os
import random

from trifree import families, formats, recognition
from trifree.formats import write_graph6
from trifree.graph import BlowupSpec, blowup
from trifree.verify import check_names


class Inputs:
    """Writes graph6 input files into one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def write(self, name: str, graph) -> tuple[str, str]:
        text = write_graph6(graph)
        path = os.path.join(self.directory, name + ".g6")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(text + "\n")
        return path, text


def _graph_op(op_id: str, args: list[str], path: str, **facts) -> dict:
    return {"id": op_id, "argv": [*args, "--format", "graph6", "--in", path], **facts}


def census(smoke: bool, seed: int, inputs: Inputs) -> list[dict]:
    # One interpreter, orders ascending: each level extends the cached one
    # below it, as in a real run.  The last order dominates.
    top = 8 if smoke else 10
    return [
        {"id": f"census-n{n}", "argv": ["census", "--n", str(n), "--assert"],
         "kind": "census", "n": n}
        for n in range(2, top + 1)
    ]


def covering(smoke: bool, seed: int, inputs: Inputs) -> list[dict]:
    # Every Vega member holds D(4) and Q(4); fig41 and the Cayley circulants
    # fail both at level 2.
    members = [("vega", (i, mu, nu)) for i in ((2,) if smoke else (2, 3, 4))
               for mu in (0, 1) for nu in (0, 1)]
    if not smoke:
        members.append(("vega", (5, 0, 0)))
    members.append(("fig41", ()))
    members += [("cayley", (k,)) for k in ((2,) if smoke else (2, 3, 4))]
    ops = []
    for family, index in members:
        name = family + "".join(map(str, index))
        path, text = inputs.write(name, _member(family, index))
        for prop in ("d", "q"):
            ops.append(_graph_op(
                f"check-{prop}4-{name}", ["check", f"--{prop}", "4"], path,
                kind="covering", property=prop, graph6=text,
                holds=family == "vega", fail_level=None if family == "vega" else 2,
                cayley_k=index[0] if family == "cayley" else None,
            ))
    return ops


# (n, s) pairs for ``extremal --search``; the expected edge count is the
# closed form, evaluated by ``checks.extremal_value``.
EXTREMAL = ((20, 8), (22, 9))
SMOKE_CHECKS = ("c310", "degree_table", "automorphisms", "cayley_d2", "kappa_blowup")


def paper(smoke: bool, seed: int, inputs: Inputs) -> list[dict]:
    # hexagon_prop is the census enumeration again, so it is left out.
    names = SMOKE_CHECKS if smoke else [c for c in check_names() if c != "hexagon_prop"]
    ops = [{"id": f"paper-verify-{name}", "argv": ["paper-verify", "--check", name],
            "kind": "registry", "check": name} for name in names]
    for n, s in ((16, 7),) if smoke else EXTREMAL:
        ops.append({"id": f"extremal-{n}-{s}",
                    "argv": ["extremal", "--n", str(n), "--s", str(s), "--search"],
                    "kind": "extremal", "n": n, "s": s})
    return ops


def _draw_weights(rng: random.Random, order: int, total: int) -> list[int]:
    """Positive weights on ``order`` template vertices summing to ``total``."""
    weights = [1] * order
    for _ in range(total - order):
        weights[rng.randrange(order)] += 1
    return weights


def recognize(smoke: bool, seed: int, inputs: Inputs) -> list[dict]:
    # Twin-free hosts first: the 11-vertex pattern search runs on the host
    # itself, since the quotient is the host.
    if smoke:
        plain = [("andrasfai", (6,)), ("vega", (4, 0, 0)), ("cayley", (2,))]
        templates = [("andrasfai", (3,)), ("fig41", ())]
        totals = (30, 60)
    else:
        plain = [("andrasfai", (20,)), ("andrasfai", (24,)),
                 ("vega", (8, 0, 0)), ("vega", (10, 0, 0)), ("vega", (12, 0, 0)),
                 ("cayley", (6,)), ("cayley", (7,))]
        templates = [("vega", (3, 0, 0)), ("vega", (4, 1, 1)),
                     ("andrasfai", (5,)), ("andrasfai", (7,)), ("fig41", ())]
        # Fixed orders, so that the seed moves the weights but not the size.
        totals = (100, 150, 200, 250, 300)
    rng = random.Random(seed)
    ops = []
    for family, index in plain:
        graph = _member(family, index)
        name = family + "".join(map(str, index))
        path, text = inputs.write(name, graph)
        ops.append(_graph_op(
            f"recognize-{name}", ["recognize"], path, kind="recognize",
            family=_family_id(family, index), template=text, weights=[1] * graph.n,
            graph6=text, cayley_k=index[0] if family == "cayley" else None,
        ))
    for (family, index), total in zip(templates, totals):
        template = _member(family, index)
        weights = _draw_weights(rng, template.n, total)
        graph = blowup(BlowupSpec(template, tuple(weights)))
        name = "blowup-" + family + "".join(map(str, index))
        path, text = inputs.write(name, graph)
        template_text = write_graph6(template)
        facts = dict(template=template_text, weights=weights, graph6=text)
        ops.append(_graph_op(f"recognize-{name}", ["recognize"], path, kind="recognize",
                             family=_family_id(family, index), cayley_k=None, **facts))
        if family != "fig41":
            # certify has no command, so it is called through the library.
            ops.append({"id": f"certify-{name}", "call": "certify", "input": path,
                        "certificate_from": f"recognize-{name}", "kind": "certify"})
        ops.append(_graph_op(f"alpha-{name}", ["check", "--alpha"], path,
                             kind="alpha", **facts))
    return ops


def _member(family: str, index: tuple):
    if family == "andrasfai":
        return families.andrasfai(*index)
    if family == "vega":
        return families.vega(*index)[0]
    if family == "cayley":
        return families.cayley_6k(*index)
    return families.fig41()


def _family_id(family: str, index: tuple):
    """The certificate family a recognizer must name; None where the input
    must be refuted (fig41 and the Cayley circulants fail D(4))."""
    if family == "andrasfai":
        return {"kind": "andrasfai", "k": index[0]}
    if family == "vega":
        return {"kind": "vega", "i": index[0], "mu": index[1], "nu": index[2]}
    return None


def _certify(op: dict, reports: str) -> dict:
    """Re-validate the certificate in an earlier recognize report.

    Functions are looked up on their modules at call time, so that the
    traced run sees the wrapped versions.
    """
    with open(op["input"], encoding="ascii") as handle:
        graph = formats.parse_graph(handle.read(), "graph6")
    with open(os.path.join(reports, op["certificate_from"] + ".json"), encoding="ascii") as handle:
        found = json.load(handle)["certificate"]
    family = found["family"]
    ident = (families.AndrasfaiId(family["k"]) if family["kind"] == "andrasfai"
             else families.VegaId(family["i"], family["mu"], family["nu"]))
    certificate = recognition.RecognitionCertificate(
        ident, tuple(found["class_map"]), tuple(found["weights"]))
    return {"command": "certify", "certified": recognition.certify(graph, certificate)}


# Library calls, for what no command does.
CALLS = {"certify": _certify}
WORKLOADS = {"census": census, "covering": covering, "paper": paper, "recognize": recognize}


def build(workload: str, seed: int, smoke: bool, directory: str) -> list[dict]:
    return WORKLOADS[workload](smoke, seed, Inputs(directory))
