"""Graph text formats: the native edge-list format, graph6, DOT, report payloads.

The native format is line-oriented: one ``p tf <n>`` header, ``e <u> <v>``
lines with 0-based endpoints in any order, ``#`` starts a comment.  graph6
packs the upper triangle column by column, six bits per printable byte
(B. D. McKay's ``formats.txt``).  The codec works on ``'0'``/``'1'`` strings,
a few string operations per vertex: the encoder reads column v off the low v
bits of row v; the decoder lays the columns out as an n x n lower-triangular
grid, column v zero-filled as row v, so row v is its grid row (neighbours
u < v) or'ed with the stride-n slice ``grid[v::n]`` (neighbours u > v).
"""

from __future__ import annotations

from typing import Optional

from .graph import ConstructionError, Graph, check_order, from_edge_list


class FormatError(ValueError):
    """Input text does not parse as a graph in the requested format."""


# graph6 byte <-> its six bits, most significant first.
_G6_BITS = {63 + i: format(i, "06b") for i in range(64)}
_G6_CHAR = {format(i, "06b"): chr(63 + i) for i in range(64)}


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
    n = g.n
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> k & 63) + 63) for k in (12, 6, 0))
    bits = "".join(format(row & ~(-1 << v), f"0{v}b")[::-1] for v, row in enumerate(g.adj) if v)
    bits += "0" * (-len(bits) % 6)
    return head + "".join([_G6_CHAR[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 input")
    if min(s) < "?" or max(s) > "~":
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
    bits = body.translate(_G6_BITS)
    if "1" in bits[n * (n - 1) // 2:]:
        raise FormatError("graph6 padding bits must be zero")
    grid = "".join(bits[v * (v - 1) // 2:v * (v + 1) // 2] + "0" * (n - v) for v in range(n))
    return Graph(n, [int(grid[v * n:(v + 1) * n][::-1], 2) | int(grid[v::n][::-1], 2)
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
