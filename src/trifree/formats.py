"""Graph text formats: the native edge-list format, graph6, DOT, JSON payloads.

The native format is line-oriented: one ``p tf <n>`` header, ``e <u> <v>``
lines with 0-based endpoints in any order, ``#`` starts a comment.  graph6
packs the upper triangle column by column, six bits per printable byte.
"""

from __future__ import annotations

from typing import Optional

from .graph import ConstructionError, Graph, check_order, from_edge_list


class FormatError(ValueError):
    """Input text does not parse as a graph in the requested format."""


def write_elist(g: Graph) -> str:
    lines = [f"p tf {g.n}"]
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


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
                order = int(fields[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer order {fields[2]!r}") from None
        elif fields[0] == "e":
            if len(fields) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            try:
                edges.append((int(fields[1]), int(fields[2])))
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
    if g.n <= 62:
        header = chr(g.n + 63)
    else:
        header = chr(126) + "".join(
            chr(((g.n >> shift) & 0x3F) + 63) for shift in (12, 6, 0)
        )
    bits = []
    for v in range(g.n):
        for u in range(v):
            bits.append(1 if g.has_edge(u, v) else 0)
    while len(bits) % 6:
        bits.append(0)
    chunks = (
        chr((bits[i] << 5 | bits[i + 1] << 4 | bits[i + 2] << 3
             | bits[i + 3] << 2 | bits[i + 4] << 1 | bits[i + 5]) + 63)
        for i in range(0, len(bits), 6)
    )
    return header + "".join(chunks)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if not s:
        raise FormatError("empty graph6 input")
    if any(not (63 <= ord(ch) <= 126) for ch in s):
        raise FormatError("graph6 bytes must be in the range 63..126")
    if s[0] == chr(126):
        if len(s) < 4 or s[1] == chr(126):
            raise FormatError("unsupported graph6 size form")
        n = 0
        for ch in s[1:4]:
            n = n << 6 | (ord(ch) - 63)
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
    bits = []
    for ch in body:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    rows = [0] * n
    index = 0
    for v in range(n):
        for u in range(v):
            if bits[index]:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            index += 1
    if any(bits[index:]):
        raise FormatError("graph6 padding bits must be zero")
    return Graph(n, rows)


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
    """JSON-ready structured form of a graph, used in reports."""
    return {"order": g.n, "edges": [[u, v] for u, v in g.edges()]}


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
