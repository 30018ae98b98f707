"""Minimal topology-oriented SMILES parser.

Supported subset: organic-subset atoms (B, C, N, O, P, S, F, Cl, Br, I),
aromatic lowercase atoms, bracket atoms, bonds - = #, branches, ring
closures 1-9 and %nn (ASCII digits only). Stereo markers (/ \\ @) and
bracket decorations (charge, H count, isotope) are accepted and discarded;
only connectivity is retained.

`scan_smiles` reads a string in one left-to-right pass (the grammar needs no
lookahead beyond the two-letter atoms and %nn labels) and keeps its state
in local variables: atom symbols, aromatic flags and a ``{(i, j): order}``
bond dict with i < j. It is the single-molecule parser and the one source of
SMILES error messages. `ingest.parse_graph_file` makes its symbols the nodes
of a `Graph` with `node_records(symbols, records)`, which shares one frozen
`NodeRecord` per distinct symbol across every graph of a file.
`parse_smiles` wraps the same scan in `Atom`/`Bond` objects.

`scan_block` gives, for a block of strings at once, what `scan_smiles` finds
that a `ingest.GraphBlock` keeps: each string's atom count, its sorted bond
keys as edges, and whether `scan_smiles` accepts it. It works on one byte
array with NumPy, so the stages' reader runs no Python step per character:
corpus-6k's 6,000 molecules take 17.6 ms in blocks of 512, against 74.6 ms
for `scan_smiles` (best of nine in one process, one Xeon core).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

import numpy as np

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


# byte classes of scan_block; the letters come first: _ATOM <= class <= _LETTER is isalpha()
_OTHER, _ATOM, _L, _R, _LETTER, _ZERO, _DIGIT, _PCT, _BOND, _OPEN, _CLOSE, _LBR, _RBR, _SLASH, _SEP = range(15)
_CLASS = np.zeros(256, dtype=np.uint8)  # any other byte, non-ASCII ones too: _OTHER
for _chars, _cls in ((string.ascii_letters, _LETTER), ("BCNOPSFIbcnops", _ATOM), ("l", _L), ("r", _R),
                     ("0", _ZERO), ("123456789", _DIGIT), ("%", _PCT), ("-=#", _BOND), ("(", _OPEN),
                     (")", _CLOSE), ("[", _LBR), ("]", _RBR), ("/\\", _SLASH)):
    _CLASS[list(_chars.encode())] = _cls
# token kinds: atom, ring label, bond, '(', ')', end of string; -1 is no token
_A, _RING, _X, _O, _C, _E = range(6)
_KIND = np.full(_SEP + 1, -1, dtype=np.int8)
_KIND[[_ATOM, _LBR, _DIGIT, _PCT, _BOND, _OPEN, _CLOSE, _SEP]] = _A, _A, _RING, _RING, _X, _O, _C, _E


def _tokens(strings: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tokens of scan_block's strings, an end token after each string:
    their kinds, their values (a bond's character, a ring label's number),
    and which strings have a fault in a character or a bracket atom."""
    n = len(strings)
    ends = np.cumsum(np.fromiter(map(len, strings), np.intp, n) + 1) - 1
    b = np.frombuffer(("\n".join(strings) + "\n").encode("ascii"), dtype=np.uint8)
    cls = _CLASS[b]
    cls[ends] = _SEP
    bad = np.zeros(n, dtype=bool)
    # a '[' outside brackets opens a bracket atom and the next ']' closes it
    br = np.flatnonzero((cls == _LBR) | (cls == _RBR) | (cls == _SEP))
    opens = br[(cls[br] == _LBR) & np.roll(cls[br] != _LBR, 1)]
    shut = br[cls[br] != _LBR]
    closes = shut[np.searchsorted(shut, opens)]
    digit = (cls == _ZERO) | (cls == _DIGIT)
    non_digit = np.flatnonzero(~digit)
    symbol = cls[non_digit[np.searchsorted(non_digit, opens + 1)]]  # after the isotope
    bad[np.searchsorted(ends, opens[(symbol < _ATOM) | (symbol > _LETTER) | (cls[closes] == _SEP)])] = True
    body = np.zeros(len(b) + 1, dtype=np.intp)
    body[opens + 1], body[closes + 1] = 1, -1
    top = (np.cumsum(body[:-1]) == 0) | (cls == _SEP)
    # the digits of %nn and the second letters of Cl and Br belong to the token before them
    taken = digit & ((np.roll(cls, 1) == _PCT) | ((np.roll(cls, 2) == _PCT) & np.roll(digit, 1)))
    before = np.roll(b, 1)
    bad[np.searchsorted(ends, np.flatnonzero(top & (
        (cls == _OTHER) | (cls == _LETTER) | (cls == _RBR) | ((cls == _ZERO) & ~taken)
        | ((cls == _L) & (before != ord("C"))) | ((cls == _R) & (before != ord("B")))
        | ((cls == _PCT) & ~(np.roll(digit, -1) & np.roll(digit, -2))))))] = True
    kind = _KIND[cls]
    pos = np.flatnonzero(top & ~taken & (kind >= 0))
    tk = kind[pos]
    value = b[pos]
    at = pos[tk == _RING, None] + np.arange(3)
    d = b[np.minimum(at, len(b) - 1)].astype(np.intp) - ord("0")
    value[tk == _RING] = np.where(cls[at[:, 0]] == _PCT, d[:, 1] * 10 + d[:, 2], d[:, 0]) % 100
    return tk, value, bad


def scan_block(strings: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """What scan_smiles finds in each of strings, all scanned at once: the
    atom counts (R,); the edges (E, 2), string r's at rows
    edge_starts[r]:edge_starts[r + 1], each (i, j) with i < j, ascending, as
    scan_smiles' sorted bond keys; edge_starts (R + 1,); and whether
    scan_smiles accepts each string (R,). A rejected string's count and edges
    mean nothing.

    The strings are one byte array with an end token after each. Byte
    classes come from a table; bracket bodies are masked out, which leaves a
    token per atom, ring label, bond, parenthesis and end. Depth is a
    cumulative sum over the parentheses. An atom stays open, ready to bond,
    until the first ')' after it at its depth or its string's end, found by
    sorting the ')' by depth; so the count k of open atoms before each token
    is a cumulative sum. A token bonds to the last atom before it if that
    one is open, else to the last atom before it that was the k-th open one
    when it was read. Ring labels pair up in order per string and label,
    by sorting. Each fault that scan_smiles raises has one check, which
    fires at a string's first fault because the state before it is the
    scan's."""
    # a trailing "C()" keeps every array below non-empty; non-ASCII strings are rejected, as is ""
    strings = [s if s.isascii() else "" for s in strings] + ["C()"]
    n = len(strings)
    tk, value, bad = _tokens(strings)
    t = len(tk)
    is_end = tk == _E
    end_at = np.flatnonzero(is_end)
    rec = np.repeat(np.arange(n), np.diff(end_at, prepend=-1))  # each token's string
    # a string opens with an atom, and its parentheses balance
    depth = np.cumsum(np.array([0, 0, 0, 1, -1, 0])[tk])  # '(' and ')' by token kind
    depth -= np.r_[0, depth[is_end]][rec]
    bad[rec[(np.roll(is_end, 1) & (tk != _A)) | (depth < 0) | (is_end & (depth != 0))]] = True
    # a bond is followed by an atom or a ring label, '(' aside; a ring label
    # takes the bond right before it
    nz = np.flatnonzero(tk != _O)
    seq = tk[nz]
    after = np.flatnonzero(seq == _X) + 1
    bad[rec[nz[after[seq[after] > _RING]]]] = True
    rings = np.flatnonzero(seq == _RING)
    pending = np.zeros(t, dtype=np.uint8)
    pending[nz[rings]] = np.where(seq[rings - 1] == _X, value[nz[rings - 1]], 0)
    rings = nz[rings]
    # open atoms; a ')' closes the atoms at its depth before it
    atoms = np.flatnonzero(tk == _A)
    arec = rec[atoms]
    close = end_at[arec]
    deep = np.flatnonzero(depth[atoms] > 0)
    inner, end_of = atoms[deep], close[deep]
    span = t + 1
    ct = np.flatnonzero(tk == _C)
    ckeys = np.sort((depth[ct] + 1 + t) * span + ct)
    found = np.searchsorted(ckeys, (depth[inner] + t) * span + inner)
    level, found = np.divmod(ckeys.take(found, mode="clip"), span)
    close[deep] = np.where((level == depth[inner] + t) & (inner < found) & (found < end_of), found, end_of)
    opened = np.zeros(t + 1, dtype=np.intp)
    opened[atoms + 1] = 1
    k = np.cumsum(opened - np.bincount(close + 1, minlength=t + 1))[:-1]
    akeys = np.sort((k[atoms] + 1) * span + np.arange(len(atoms)))  # level, atom number

    def partner(tokens: np.ndarray, before: np.ndarray) -> np.ndarray:
        """The number of the atom each token bonds to, given the count of
        atoms before it: the last atom before it if that one is open, else
        the last with k[token] atoms open up to it."""
        last = before - 1
        shut = np.flatnonzero(close[last] < tokens)
        found = np.searchsorted(akeys, k[tokens[shut]] * span + last[shut], side="right") - 1
        last[shut] = akeys.take(found, mode="clip") % span
        return last

    # ring labels: the first use of a label in a string opens it, the next closes it
    group, ring = np.divmod(np.sort((rec[rings] * 100 + value[rings]) * span + rings), span)
    idx = np.arange(len(group))
    first = np.r_[True, group[1:] != group[:-1]]
    opener = (idx - np.maximum.accumulate(np.where(first, idx, 0))) % 2 == 0
    paired = opener & ~np.roll(first, -1)
    bad[group[opener & ~paired] // 100] = True
    ro, rc = ring[paired], ring[np.flatnonzero(paired) + 1]
    po, pc = pending[ro], pending[rc]
    bad[rec[ro[(po != 0) & (pc != 0) & (po != pc)]]] = True
    # bonds: a chain bond per atom after a string's first, and the ring bonds
    linked = np.flatnonzero(k[atoms] > 0)
    u = np.concatenate([partner(atoms[linked], linked), partner(ro, np.searchsorted(atoms, ro))])
    v = np.concatenate([linked, partner(rc, np.searchsorted(atoms, rc))])
    owner = np.concatenate([arec[linked], rec[ro]])
    own = (arec[u] == owner) & (arec[v] == owner)
    bad[owner[(u == v) | ~own]] = True
    na = len(atoms)
    keys = np.sort(np.minimum(u, v)[own] * na + np.maximum(u, v)[own])
    bad[arec[keys[1:][keys[1:] == keys[:-1]] // na]] = True
    lo, hi = np.divmod(keys, na)
    sizes = np.bincount(arec, minlength=n)
    first_atom = np.cumsum(sizes) - sizes
    base = first_atom[arec[lo]]
    return sizes[:-1], np.stack([lo - base, hi - base], axis=1), np.searchsorted(lo, first_atom), ~bad[:-1]


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
