"""Minimal topology-oriented SMILES parser.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase atoms, bracket atoms, bonds - = #, branches, ring
closures 1-9 and %nn (ASCII digits only). Stereo markers (/ \\ @) and
bracket decorations (charge, H count, isotope) are accepted and discarded;
only connectivity is retained.

`scan_smiles` reads a string in one left-to-right pass (the grammar needs no
lookahead beyond the two-letter atoms and %nn labels) and keeps its state
in local variables: atom symbols, aromatic flags and a ``{(i, j): order}``
bond dict with i < j. Ingest takes a record's fields straight from that
scan: its symbols and the sorted bond keys as edges. A block keeps only the
symbols' count; `ingest.parse_graph_file` makes them the nodes of a `Graph`
with `node_records(symbols, records)`, which shares one frozen `NodeRecord`
per distinct symbol across every graph of a file. `parse_smiles` wraps the
same scan in `Atom`/`Bond` objects.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SmilesError, UnbalancedBranch, UnclosedRing, UnsupportedToken
from .graph import Graph, NodeRecord

ORGANIC_TWO_LETTER = ("Cl", "Br")
ORGANIC_ONE_LETTER = set("BCNOPSFI")
AROMATIC_ORGANIC = set("bcnops")

SINGLE, DOUBLE, TRIPLE, AROMATIC = 1, 2, 3, "ar"
_BOND_CHARS = {"-": SINGLE, "=": DOUBLE, "#": TRIPLE}
# one-character organic atoms -> (symbol, aromatic)
_ORGANIC = {ch: (ch, False) for ch in ORGANIC_ONE_LETTER} | {
    ch: (ch.upper(), True) for ch in AROMATIC_ORGANIC
}
_RING_DIGITS = {str(d): d for d in range(1, 10)}


@dataclass(frozen=True)
class Atom:
    symbol: str
    aromatic: bool


@dataclass(frozen=True)
class Bond:
    i: int
    j: int
    order: int | str


@dataclass(frozen=True)
class SmilesMolecule:
    source: str
    atoms: tuple[Atom, ...]
    bonds: tuple[Bond, ...]

    @property
    def ring_count(self) -> int:
        # cyclomatic number of a connected skeleton
        return len(self.bonds) - len(self.atoms) + 1


def _parse_bracket_atom(s: str, start: int) -> tuple[str, bool, int]:
    """Parse a [...] atom starting at the opening bracket; return its symbol,
    aromatic flag and the index one past the closing bracket."""
    end = s.find("]", start)
    if end < 0:
        raise UnsupportedToken(start, "[")
    body = s[start + 1 : end]
    if not body.isascii():  # isdigit and isalpha would accept any script
        raise UnsupportedToken(start, f"[{body}]")
    pos = 0
    while pos < len(body) and body[pos].isdigit():  # isotope
        pos += 1
    rest = body[pos:]
    if not rest:
        raise UnsupportedToken(start, f"[{body}]")
    if rest[0].isalpha():
        if len(rest) > 1 and rest[1].islower() and rest[1].isalpha():
            symbol = rest[:2]
        else:
            symbol = rest[0]
    elif rest[0] == "*":
        raise UnsupportedToken(start, "*")
    else:
        raise UnsupportedToken(start, f"[{body}]")
    return symbol.capitalize(), symbol[0].islower(), end + 1


def scan_smiles(s: str) -> tuple[list[str], list[bool], dict[tuple[int, int], int | str]]:
    """Atom symbols, aromatic flags and ``{(i, j): order}`` bonds (i < j) of a
    SMILES string, in one pass. Raises `SmilesError` subclasses with the
    position of the offending token."""
    if not s:
        raise UnsupportedToken(0, "<empty>")
    symbols: list[str] = []
    aromatic: list[bool] = []
    bonds: dict[tuple[int, int], int | str] = {}
    branches: list[tuple[int, int]] = []  # (atom to return to, position of '(')
    open_rings: dict[int, tuple[int, int | str | None]] = {}
    prev = -1  # the atom the next bond starts from; -1 before the first atom
    pending = None  # explicit bond order waiting for its second atom
    pending_pos = 0
    n = len(s)
    i = 0
    while i < n:
        ch = s[i]
        atom = _ORGANIC.get(ch)
        if atom is not None or ch == "[":
            if ch == "[":
                symbol, arom, i = _parse_bracket_atom(s, i)
            elif ch in "CB" and s[i : i + 2] in ORGANIC_TWO_LETTER:
                symbol, arom = s[i : i + 2], False
                i += 2
            else:
                symbol, arom = atom
                i += 1
            idx = len(symbols)
            if prev >= 0:
                if pending is None:
                    pending = AROMATIC if arom and aromatic[prev] else SINGLE
                bonds[prev, idx] = pending
            elif pending is not None:
                raise UnsupportedToken(pending_pos, "bond with no preceding atom")
            symbols.append(symbol)
            aromatic.append(arom)
            pending = None
            prev = idx
        elif ch in _RING_DIGITS or ch == "%":
            pos = i
            if ch == "%":
                two = s[i + 1 : i + 3]
                if len(two) != 2 or not (two.isascii() and two.isdigit()):
                    raise UnsupportedToken(i, "%" + two)
                label = int(two)
                i += 3
            else:
                label = _RING_DIGITS[ch]
                i += 1
            if prev < 0:
                raise UnsupportedToken(pos, "ring closure with no preceding atom")
            opened = open_rings.pop(label, None)
            if opened is None:
                open_rings[label] = (prev, pending)
            else:
                other, order = opened
                if pending is not None:
                    if order is not None and pending != order:
                        raise SmilesError(
                            f"conflicting bonds on ring closure {label} at position {pos}"
                        )
                    order = pending
                elif order is None:
                    order = AROMATIC if aromatic[other] and aromatic[prev] else SINGLE
                if other == prev:
                    raise SmilesError(
                        f"ring closure at position {pos} bonds atom {other} to itself"
                    )
                key = (other, prev) if other < prev else (prev, other)
                if key in bonds:
                    raise SmilesError(
                        f"duplicate bond between atoms {other} and {prev} at position {pos}"
                    )
                bonds[key] = order
            pending = None
        elif ch in _BOND_CHARS:
            if pending is not None:
                raise UnsupportedToken(i, ch)
            pending = _BOND_CHARS[ch]
            pending_pos = i
            i += 1
        elif ch == "(":
            if prev < 0:
                raise UnbalancedBranch(i)
            branches.append((prev, i))
            i += 1
        elif ch == ")":
            if not branches:
                raise UnbalancedBranch(i)
            if pending is not None:
                raise UnsupportedToken(pending_pos, "dangling bond before ')'")
            prev = branches.pop()[0]
            i += 1
        elif ch == "/" or ch == "\\":  # stereo bond markers: plain single bonds here
            i += 1
        else:
            raise UnsupportedToken(i, ch)

    if branches:
        raise UnbalancedBranch(branches[-1][1])
    if pending is not None:
        raise UnsupportedToken(pending_pos, "dangling bond at end of string")
    if open_rings:
        raise UnclosedRing(min(open_rings))
    if not symbols:
        raise UnsupportedToken(0, "<no atoms>")
    return symbols, aromatic, bonds


def parse_smiles(s: str) -> SmilesMolecule:
    """Parse a SMILES string into atoms and bonds (topology only)."""
    symbols, aromatic, bonds = scan_smiles(s)
    return SmilesMolecule(
        source=s,
        atoms=tuple(map(Atom, symbols, aromatic)),
        bonds=tuple(Bond(i, j, o) for (i, j), o in sorted(bonds.items())),
    )


def node_records(
    symbols: list[str | None], records: dict[str | None, NodeRecord]
) -> tuple[NodeRecord, ...]:
    """One node per symbol or node text. Equal ones share the frozen
    `NodeRecord` kept in `records`, which gains an entry for each it lacks."""
    for symbol in set(symbols).difference(records):
        records[symbol] = NodeRecord(text=symbol)
    return tuple(map(records.__getitem__, symbols))


def to_graph(m: SmilesMolecule, graph_id: str | None = None) -> Graph:
    """Drop bond orders and atom identities, keeping one node per atom and
    one undirected edge per bond."""
    return Graph(
        id=graph_id if graph_id is not None else m.source,
        nodes=node_records([a.symbol for a in m.atoms], {}),
        edges=tuple((b.i, b.j) for b in m.bonds),
        graph_text=m.source,
    )
