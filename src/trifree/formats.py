"""Graph text formats: the native edge-list format, graph6, DOT, report payloads.

The native format is line-oriented: one ``p tf <n>`` header, ``e <u> <v>``
lines with 0-based endpoints in any order, ``#`` starts a comment.  graph6
packs the upper triangle column by column, six bits per printable byte
(B. D. McKay's ``formats.txt``): base64 in another alphabet, so the codec
runs `base64` and maps the alphabets with `str.translate`.  The encoder packs
bit (u, v), u < v, at v(v-1)/2 + u of one int and bit-reverses its bytes.
The decoder lays the columns out as an n x n lower-triangular grid, column v
zero-filled as row v, and reverses it, so row v reads as its grid row
(neighbours u < v) or'ed with the stride-n slice from n - 1 - v (u > v).
"""

from __future__ import annotations

import re
from base64 import b64decode, b64encode
from typing import Optional

from .graph import ConstructionError, Graph, check_order, from_edge_list


class FormatError(ValueError):
    """Input text does not parse as a graph in the requested format."""


_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = "".join(chr(63 + i) for i in range(64))
_TO_G6, _FROM_G6 = str.maketrans(_B64, _G6), str.maketrans(_G6, _B64)
_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def write_elist(g: Graph) -> str:
    lines = [f"p tf {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def integer(field: str) -> int:
    """`int(field)` for an optionally signed run of ASCII digits, else ValueError;
    bare `int` would also take underscores and non-ASCII digits.  The one
    integer parser for every text input: elist fields and CLI options."""
    if not (field.isascii() and field.lstrip("+-").isdigit()):
        raise ValueError(f"invalid integer {field!r}")
    return int(field)


def parse_elist(text: str) -> Graph:
    order = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "p":
            if order is not None:
                raise FormatError(f"line {lineno}: duplicate problem line")
            if len(fields) != 3 or fields[1] != "tf":
                raise FormatError(f"line {lineno}: expected 'p tf <n>'")
            try:
                order = integer(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer order {fields[2]!r}") from None
        elif fields[0] == "e":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((integer(fields[1]), integer(fields[2])))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoint") from None
        else:
            raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
    if order is None:
        raise FormatError("missing problem line 'p tf <n>'")
    try:
        return from_edge_list(order, edges)
    except ConstructionError as exc:
        raise FormatError(str(exc)) from None


def write_graph6(g: Graph) -> str:
    n, size = g.n, g.n * (g.n - 1) // 2
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))
    packed = sum((row & ~(-1 << v)) << v * (v - 1) // 2 for v, row in enumerate(g.adj))
    body = b64encode(packed.to_bytes(-(-size // 24) * 3, "little").translate(_REVERSED))
    return head + body.decode()[:(size + 5) // 6].translate(_TO_G6)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 input")
    if not re.fullmatch("[?-~]*", s):
        raise FormatError("graph6 bytes must be in the range 63..126")
    if s[0] == chr(126):
        if len(s) < 4 or s[1] == chr(126):
            raise FormatError("unsupported graph6 size form")
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | ord(s[3]) - 63
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    try:
        check_order(n)
    except ConstructionError as exc:
        raise FormatError(str(exc)) from None
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise FormatError(f"graph6 body for order {n} needs {need} bytes, got {len(body)}")
    pad = -need % 4
    bits = format(int.from_bytes(b64decode(body.translate(_FROM_G6) + "A" * pad), "big"),
                  f"0{6 * (need + pad)}b")
    if "1" in bits[n * (n - 1) // 2:]:
        raise FormatError("graph6 padding bits must be zero")
    grid = "".join([bits[v * (v - 1) // 2:v * (v + 1) // 2] + "0" * (n - v) for v in range(n)])[::-1]
    return Graph(n, [int(grid[(n - 1 - v) * n:(n - v) * n], 2) | int(grid[n - 1 - v::n], 2)
                     for v in range(n)])


def write_dot(g: Graph, labels: Optional[dict[int, str]] = None, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if labels and v in labels:
            lines.append(f'  {v} [label="{labels[v]}"];')
        else:
            lines.append(f"  {v};")
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_payload(g: Graph) -> dict:
    """The one form a report gives a graph: its order, its size and its graph6."""
    return {"order": g.n, "size": g.edge_count, "graph6": write_graph6(g)}


def write_graph(g: Graph, fmt: str) -> str:
    if fmt == "elist":
        return write_elist(g)
    if fmt == "graph6":
        return write_graph6(g) + "\n"
    raise FormatError(f"unknown graph format {fmt!r}")


def parse_graph(text: str, fmt: str) -> Graph:
    if fmt == "elist":
        return parse_elist(text)
    if fmt == "graph6":
        return parse_graph6(text)
    raise FormatError(f"unknown graph format {fmt!r}")
