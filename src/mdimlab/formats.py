"""Graph ingestion and emission: graph6, plain edge lists, and DOT.

graph6 follows the published nauty text encoding bit for bit: an optional
``>>graph6<<`` header, the vertex count as one byte (n + 63) for n <= 62
or '~'-prefixed 18/36-bit big-endian forms beyond that, then the upper
triangle of the adjacency matrix in column order, six bits per byte, each
byte offset by 63, zero-padded to a byte boundary.

The edge-list format is ASCII with LF line endings: a first line ``n m``
followed by m lines ``u v`` with 0-based endpoints.  Fields are separated
by spaces, tabs and CRs only, and each is an optional ``-`` followed by
ASCII digits.

Emission is canonical (sorted edges, minimal graph6 bytes), so
``emit(parse(x))`` normalizes and ``parse(emit(g))`` is the identity.
"""

from __future__ import annotations

import re
from math import isqrt

from .errors import ParseError
from .graph import Graph, build_graph
from .transforms import ORIGINAL, DerivedGraph

GRAPH6_HEADER = ">>graph6<<"

EDGE_LIST = "edgelist"
GRAPH6 = "graph6"


def _as_text(data: bytes | str) -> str:
    if isinstance(data, bytes):
        try:
            return data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not ASCII: {exc}") from exc
    return data


_SEPARATOR = re.compile("[ \t\r]+")
_INTEGER = re.compile("-?[0-9]+")


def _integer(field: str) -> int:
    """A field's value; ValueError unless it is an optional '-' and ASCII digits."""
    if not _INTEGER.fullmatch(field):
        raise ValueError(field)
    return int(field)


def parse_edge_list(text: bytes | str) -> Graph:
    lines = _as_text(text).split("\n")
    entries: list[tuple[int, list[str]]] = []  # (1-based line number, fields)
    for i, line in enumerate(lines, start=1):
        line = line.strip(" \t\r")
        if line:
            entries.append((i, _SEPARATOR.split(line)))
    if not entries:
        raise ParseError("empty edge-list input", line=1)

    header_line, header = entries[0]
    if len(header) != 2:
        raise ParseError("header must be 'n m'", line=header_line)
    try:
        n, m = _integer(header[0]), _integer(header[1])
    except ValueError:
        raise ParseError("header must hold two integers", line=header_line) from None
    if len(entries) - 1 != m:
        raise ParseError(f"expected {m} edge lines, found {len(entries) - 1}",
                         line=entries[-1][0] if len(entries) > 1 else header_line)

    edges = []
    for lineno, fields in entries[1:]:
        if len(fields) != 2:
            raise ParseError("edge line must be 'u v'", line=lineno)
        try:
            u, v = _integer(fields[0]), _integer(fields[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=lineno) from None
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex index out of range 0..{n - 1}", line=lineno)
        edges.append((u, v))
    return build_graph(n, edges)


def emit_edge_list(g: Graph) -> bytes:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    return ("\n".join(lines) + "\n").encode("ascii")


# six-bit digits of the vertex count after zero, one or two '~'
_COUNT_DIGITS = (1, 3, 6)
_SIX_BITS = tuple(format(v, "06b") for v in range(64))
# per six-bit digit, the offsets of its set bits, most significant first
_SET_BITS = tuple(tuple(k for k, bit in enumerate(bits) if bit == "1") for bits in _SIX_BITS)
_OUTSIDE_GRAPH6 = re.compile(rb"[^?-~]")
_NONZERO_SIX = re.compile(rb"[^?]")


def _bit_string(raw: bytes) -> str:
    """The six bits each graph6 byte carries, most significant first."""
    return "".join([_SIX_BITS[byte - 63] for byte in raw])


def parse_graph6(data: bytes | str) -> Graph:
    # strip only conventional whitespace; exotic control characters must
    # reach the byte-range check below rather than vanish
    text = _as_text(data).strip(" \t\r\n")
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    if not text:
        raise ParseError("empty graph6 input", position=0)
    raw = text.encode("ascii")
    outside = _OUTSIDE_GRAPH6.search(raw)
    if outside:
        pos = outside.start()
        raise ParseError(f"byte {raw[pos]} outside graph6 range 63..126", position=pos)

    # '~' and then a byte other than '~' opens the 18-bit count; '~~' or a
    # lone '~' opens the 36-bit one
    tildes = 0 if raw[0] != 126 else 1 if raw[1:2] not in (b"", b"~") else 2
    digits = _COUNT_DIGITS[tildes]
    if len(raw) < tildes + digits:
        raise ParseError(f"truncated {6 * digits}-bit vertex count", position=len(raw))
    n = int(_bit_string(raw[tildes:tildes + digits]), 2)
    body = raw[tildes + digits:]

    bits_needed = n * (n - 1) // 2
    bytes_needed = (bits_needed + 5) // 6
    if len(body) != bytes_needed:
        raise ParseError(f"adjacency body has {len(body)} bytes, expected {bytes_needed}",
                         position=len(raw) - 1)
    # the padding is the low 6 * bytes_needed - bits_needed bits of the last byte
    if body and (body[-1] - 63) & ((1 << 6 * bytes_needed - bits_needed) - 1):
        raise ParseError("nonzero padding bits", position=len(raw) - 1)

    # bit k is the pair (i, j), i < j, with k = j(j - 1)/2 + i: the upper
    # triangle in column order; a '?' byte carries no edge
    edges = []
    for nonzero in _NONZERO_SIX.finditer(body):
        pos = nonzero.start()
        for bit in _SET_BITS[body[pos] - 63]:
            k = 6 * pos + bit
            j = (1 + isqrt(8 * k + 1)) // 2
            edges.append((k - j * (j - 1) // 2, j))
    return build_graph(n, edges)


def emit_graph6(g: Graph) -> bytes:
    n = g.n
    tildes = 0 if n <= 62 else 1 if n <= 258047 else 2
    size = n * (n - 1) // 2
    body = ["0"] * (size + -size % 6)
    for i, j in g.edges:
        body[j * (j - 1) // 2 + i] = "1"
    bits = f"{n:0{6 * _COUNT_DIGITS[tildes]}b}" + "".join(body)
    digits = (int(bits[k:k + 6], 2) for k in range(0, len(bits), 6))
    return b"~" * tildes + bytes(63 + v for v in digits) + b"\n"


def _detect(data: bytes | str) -> tuple[str, str]:
    """Decode an input and name its format: digits lead an edge list, the
    graph6 header or a graph6 byte leads graph6."""
    text = _as_text(data)
    stripped = text.lstrip(" \t\r\n")
    if not stripped:
        raise ParseError("empty input")
    first = stripped[0]
    if stripped.startswith(GRAPH6_HEADER) or 63 <= ord(first) <= 126:
        return GRAPH6, text
    if first.isdigit():
        return EDGE_LIST, text
    raise ParseError(f"cannot recognize input starting with {first!r}")


def read_graphs(data: bytes | str) -> list[Graph]:
    """All graphs in an input: one per line for graph6, one total otherwise.
    graph6 lines end at LF only, and a line of spaces, tabs and CRs is
    blank; any other byte reaches ``parse_graph6``'s byte-range check."""
    fmt, text = _detect(data)
    if fmt == GRAPH6:
        return [parse_graph6(line) for line in text.split("\n") if line.strip(" \t\r")]
    return [parse_edge_list(text)]


def parse_graph(data: bytes | str) -> Graph:
    """Autodetect the format; the first graph of an input ``read_graphs`` accepts."""
    return read_graphs(data)[0]


def emit_graph(g: Graph, fmt: str = EDGE_LIST) -> bytes:
    if fmt == EDGE_LIST:
        return emit_edge_list(g)
    if fmt == GRAPH6:
        return emit_graph6(g)
    raise ParseError(f"unknown graph format {fmt!r}")


def graph_to_dot(g: Graph, labels: dict[int, str] | None = None, name: str = "g") -> str:
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        label = labels.get(v, str(v)) if labels else str(v)
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in g.edges:
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def derived_to_dot(dg: DerivedGraph, name: str = "derived") -> str:
    """DOT with provenance in vertex labels and edge classes as attributes."""
    lines = [f"graph {name} {{"]
    for i, (tag, idx) in enumerate(dg.provenance):
        if tag == ORIGINAL:
            lines.append(f'  v{i} [label="{i}: orig {idx}"];')
        else:
            lines.append(f'  v{i} [label="{i}: split e{idx}", shape=box];')
    for (u, v), cls in zip(dg.graph.edges, dg.edge_classes):
        lines.append(f'  v{u} -- v{v} [eclass="{cls}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
