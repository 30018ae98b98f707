"""Minimal topology-oriented SMILES parser.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase atoms, bracket atoms, bonds - = #, branches, ring
closures 1-9 and %nn. Stereo markers (/ \\ @) and bracket decorations
(charge, H count, isotope) are accepted and discarded; only connectivity
is retained.
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


def _parse_bracket_atom(s: str, start: int) -> tuple[Atom, int]:
    """Parse a [...] atom starting at the opening bracket; return atom and
    the index one past the closing bracket."""
    end = s.find("]", start)
    if end < 0:
        raise UnsupportedToken(start, "[")
    body = s[start + 1 : end]
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
    aromatic = symbol[0].islower()
    return Atom(symbol=symbol.capitalize(), aromatic=aromatic), end + 1


def parse_smiles(s: str) -> SmilesMolecule:
    """Parse a SMILES string into atoms and bonds (topology only)."""
    if not s:
        raise UnsupportedToken(0, "<empty>")
    atoms: list[Atom] = []
    bonds: dict[tuple[int, int], int | str] = {}
    branch_stack: list[int] = []
    branch_positions: list[int] = []
    open_rings: dict[int, tuple[int, int | str | None]] = {}
    prev: int | None = None
    pending_bond: int | str | None = None
    pending_pos = 0

    def add_bond(i: int, j: int, order: int | str, pos: int) -> None:
        if i == j:
            raise SmilesError(f"ring closure at position {pos} bonds atom {i} to itself")
        key = (min(i, j), max(i, j))
        if key in bonds:
            raise SmilesError(f"duplicate bond between atoms {i} and {j} at position {pos}")
        bonds[key] = order

    def attach_atom(atom: Atom, pos: int) -> None:
        nonlocal prev, pending_bond
        atoms.append(atom)
        idx = len(atoms) - 1
        if prev is not None:
            order = pending_bond
            if order is None:
                order = AROMATIC if (atoms[prev].aromatic and atom.aromatic) else SINGLE
            add_bond(prev, idx, order, pos)
        elif pending_bond is not None:
            raise UnsupportedToken(pending_pos, "bond with no preceding atom")
        pending_bond = None
        prev = idx

    def close_ring(label: int, pos: int) -> None:
        nonlocal pending_bond
        if prev is None:
            raise UnsupportedToken(pos, "ring closure with no preceding atom")
        if label in open_rings:
            other, open_order = open_rings.pop(label)
            order = pending_bond if pending_bond is not None else open_order
            if (
                pending_bond is not None
                and open_order is not None
                and pending_bond != open_order
            ):
                raise SmilesError(f"conflicting bonds on ring closure {label} at position {pos}")
            if order is None:
                order = AROMATIC if (atoms[other].aromatic and atoms[prev].aromatic) else SINGLE
            add_bond(other, prev, order, pos)
        else:
            open_rings[label] = (prev, pending_bond)
        pending_bond = None

    i = 0
    while i < len(s):
        ch = s[i]
        if ch in _BOND_CHARS:
            if pending_bond is not None:
                raise UnsupportedToken(i, ch)
            pending_bond = _BOND_CHARS[ch]
            pending_pos = i
            i += 1
        elif ch in "/\\":  # stereo bond markers: plain single bonds here
            i += 1
        elif ch == "(":
            if prev is None:
                raise UnbalancedBranch(i)
            branch_stack.append(prev)
            branch_positions.append(i)
            i += 1
        elif ch == ")":
            if not branch_stack:
                raise UnbalancedBranch(i)
            if pending_bond is not None:
                raise UnsupportedToken(pending_pos, "dangling bond before ')'")
            prev = branch_stack.pop()
            branch_positions.pop()
            i += 1
        elif ch == "[":
            atom, nxt = _parse_bracket_atom(s, i)
            attach_atom(atom, i)
            i = nxt
        elif ch == "%":
            two = s[i + 1 : i + 3]
            if len(two) != 2 or not two.isdigit():
                raise UnsupportedToken(i, "%" + two)
            close_ring(int(two), i)
            i += 3
        elif ch.isdigit():
            if ch == "0":
                raise UnsupportedToken(i, ch)
            close_ring(int(ch), i)
            i += 1
        elif s[i : i + 2] in ORGANIC_TWO_LETTER:
            attach_atom(Atom(symbol=s[i : i + 2], aromatic=False), i)
            i += 2
        elif ch in ORGANIC_ONE_LETTER:
            attach_atom(Atom(symbol=ch, aromatic=False), i)
            i += 1
        elif ch in AROMATIC_ORGANIC:
            attach_atom(Atom(symbol=ch.upper(), aromatic=True), i)
            i += 1
        else:
            raise UnsupportedToken(i, ch)

    if branch_stack:
        raise UnbalancedBranch(branch_positions[-1])
    if pending_bond is not None:
        raise UnsupportedToken(pending_pos, "dangling bond at end of string")
    if open_rings:
        raise UnclosedRing(min(open_rings))
    if not atoms:
        raise UnsupportedToken(0, "<no atoms>")

    bond_list = tuple(Bond(i=i, j=j, order=o) for (i, j), o in sorted(bonds.items()))
    return SmilesMolecule(source=s, atoms=tuple(atoms), bonds=bond_list)


def to_graph(m: SmilesMolecule, graph_id: str | None = None) -> Graph:
    """Drop bond orders and atom identities, keeping one node per atom and
    one undirected edge per bond."""
    nodes = tuple(NodeRecord(text=a.symbol) for a in m.atoms)
    edges = tuple((b.i, b.j) for b in m.bonds)
    return Graph(
        id=graph_id if graph_id is not None else m.source,
        nodes=nodes,
        edges=edges,
        graph_text=m.source,
    )
