import random

import pytest

import oracle
from sogtok.errors import SmilesError, UnbalancedBranch, UnclosedRing, UnsupportedToken
from sogtok.ingest import parse_graph_file
from sogtok.smiles import AROMATIC, DOUBLE, SINGLE, TRIPLE, parse_smiles, scan_block, to_graph

# hand-verified corpus: (smiles, atoms, bonds, independent rings)
CORPUS = [
    ("C", 1, 0, 0),
    ("CC", 2, 1, 0),
    ("CCO", 3, 2, 0),
    ("C=C", 2, 1, 0),
    ("C#N", 2, 1, 0),
    ("CC(C)C", 4, 3, 0),
    ("CC(=O)O", 4, 3, 0),
    ("C1CC1", 3, 3, 1),
    ("C1CCCCC1", 6, 6, 1),
    ("c1ccccc1", 6, 6, 1),
    ("Cc1ccccc1", 7, 7, 1),
    ("OCC(O)CO", 6, 5, 0),
    ("N#Cc1ccccc1", 8, 8, 1),
    ("c1ccc2ccccc2c1", 10, 11, 2),
    ("C1CCC2(CC1)CCCC2", 10, 11, 2),
    ("ClCCl", 3, 2, 0),
    ("BrC(Br)Br", 4, 3, 0),
    ("C[C@@H](N)C(=O)O", 6, 5, 0),
    ("C/C=C/C", 4, 3, 0),
    ("c1ccncc1", 6, 6, 1),
]


@pytest.mark.parametrize("smiles,atoms,bonds,rings", CORPUS)
def test_corpus_counts(smiles, atoms, bonds, rings):
    m = parse_smiles(smiles)
    assert len(m.atoms) == atoms
    assert len(m.bonds) == bonds
    assert m.ring_count == rings


def test_linear_chain_bonds():
    m = parse_smiles("CCO")
    assert [(b.i, b.j, b.order) for b in m.bonds] == [(0, 1, SINGLE), (1, 2, SINGLE)]
    assert [a.symbol for a in m.atoms] == ["C", "C", "O"]


def test_ring_closure_bond():
    m = parse_smiles("C1CC1")
    assert {(b.i, b.j) for b in m.bonds} == {(0, 1), (1, 2), (0, 2)}


def test_benzene_aromatic():
    m = parse_smiles("c1ccccc1")
    assert all(a.aromatic for a in m.atoms)
    assert all(b.order == AROMATIC for b in m.bonds)


def test_bond_orders():
    m = parse_smiles("C=CC#C")
    orders = [b.order for b in m.bonds]
    assert orders == [DOUBLE, SINGLE, TRIPLE]


def test_percent_ring_closure():
    m = parse_smiles("C%10CC%10")
    assert len(m.atoms) == 3 and len(m.bonds) == 3


def test_two_closures_one_atom():
    m = parse_smiles("C1CC2CCC1C2")  # norbornane
    assert len(m.atoms) == 7 and len(m.bonds) == 8


def test_ring_label_reuse():
    m = parse_smiles("C1CC1C1CC1")
    assert len(m.atoms) == 6 and len(m.bonds) == 7


def test_bracket_atom_ignores_decorations():
    m = parse_smiles("[13CH3+]")
    assert len(m.atoms) == 1 and m.atoms[0].symbol == "C"


def test_unclosed_ring():
    with pytest.raises(UnclosedRing) as err:
        parse_smiles("C1CC")
    assert err.value.digit == 1


def test_unbalanced_open_branch():
    with pytest.raises(UnbalancedBranch) as err:
        parse_smiles("C(C")
    assert err.value.position == 1


def test_unbalanced_close_branch():
    with pytest.raises(UnbalancedBranch) as err:
        parse_smiles("CC)")
    assert err.value.position == 2


def test_unsupported_token_position():
    with pytest.raises(UnsupportedToken) as err:
        parse_smiles("CQ")
    assert err.value.position == 1 and err.value.token == "Q"


def test_dot_unsupported():
    with pytest.raises(UnsupportedToken) as err:
        parse_smiles("C.C")
    assert err.value.position == 1


def test_double_bond_symbol_rejected():
    with pytest.raises(UnsupportedToken):
        parse_smiles("C==C")


def test_dangling_bond_at_end():
    with pytest.raises(UnsupportedToken):
        parse_smiles("CC=")


def test_leading_bond_rejected():
    with pytest.raises(UnsupportedToken):
        parse_smiles("=CC")


def test_self_ring_bond_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("C11")


def test_duplicate_ring_bond_rejected():
    with pytest.raises(SmilesError):
        parse_smiles("C12CC12")


def test_zero_digit_rejected():
    with pytest.raises(UnsupportedToken):
        parse_smiles("C0CC0")


def test_to_graph_path():
    g = to_graph(parse_smiles("CCO"))
    assert g.n == 3 and g.edges == ((0, 1), (1, 2))
    assert g.graph_text == "CCO"


def test_to_graph_triangle():
    g = to_graph(parse_smiles("C1CC1"))
    assert set(g.edges) == {(0, 1), (1, 2), (0, 2)}


def test_to_graph_single_atom():
    g = to_graph(parse_smiles("C"))
    assert g.n == 1 and g.edges == ()


@pytest.mark.parametrize("smiles", [s for s, *_ in CORPUS])
def test_corpus_graphs_connected(smiles):
    from sogtok.graph import bfs_hops

    g = to_graph(parse_smiles(smiles))
    assert all(h is not None for h in bfs_hops(g, 0))


# the differential test's alphabet: every character the grammar reads, plus
# H + @ . which it rejects outside brackets
DIFF_ALPHABET = list("CcNnOoBrClSsPFI[]()=#-/\\%0123456789H+@.")
# a second, atom-heavy draw so that a good share of the strings parse
GRAMMAR_TOKENS = ["C", "C", "C", "c", "c", "N", "n", "O", "o", "S", "s", "P", "F", "I", "Br",
                  "Cl", "B", "[NH4+]", "[13C@H]", "[nH]", "1", "1", "2", "3", "%12", "(", "(",
                  ")", ")", "=", "#", "-", "/", "\\"]
EDGE_CASES = ["", "C1CC", "C(C", "CC)", "CQ", "C.C", "C==C", "CC=", "=CC", "C11", "C12CC12",
              "C0CC0", "C=1CC-1", "[", "[]", "[13]", "[*]", "[+]", "%1", "C%1", "C%", "1CC",
              "C(=)C", "C(C)=", "()", "C=(C)", "C1=CC=1"]


def _outcome(parse, s):
    try:
        m = parse(s)
    except Exception as exc:  # the reference decides which errors are expected
        return type(exc), str(exc)
    return [(a.symbol, a.aromatic) for a in m.atoms], [(b.i, b.j, b.order) for b in m.bonds]


def _differential_cases() -> list[str]:
    """The corpus, the edge cases and 60,000 seeded random strings."""
    rng = random.Random(20260)
    cases = [s for s, *_ in CORPUS] + EDGE_CASES
    for _ in range(30_000):
        cases.append("".join(rng.choices(DIFF_ALPHABET, k=rng.randint(0, 16))))
    for _ in range(30_000):
        cases.append("".join(rng.choices(GRAMMAR_TOKENS, k=rng.randint(1, 12))))
    return cases


def test_parser_matches_reference_parser():
    parsed = 0
    for s in _differential_cases():
        expected = _outcome(oracle.parse_smiles, s)
        assert _outcome(parse_smiles, s) == expected, s
        parsed += isinstance(expected[0], list)
    assert parsed > 5_000  # both outcomes are well covered


NESTED = "C" + "(C" * 500 + ")" * 500  # a 500-level nested branch


def test_block_scanner_matches_reference_parser():
    """scan_block on the differential cases and deep branches, shuffled
    into blocks of 1 (1,000 strings), 3 (6,000), 64 and 512 (all) that mix
    accepted and rejected ones: each string is accepted when the reference
    parser accepts it, with its atom count and edges. Like scan_smiles, and
    unlike the reference, it rejects digits and letters that are not ASCII."""
    deep = [NESTED, NESTED + ")", "(" + NESTED + ")", "C" + "(" * 500 + "C" + ")" * 500,
            "C1" + "(C" * 300 + "1" + ")" * 300]
    cases = _differential_cases() + deep
    expected = []
    for s in cases:
        atoms, bonds = _outcome(oracle.parse_smiles, s)
        expected.append((len(atoms), [[i, j] for i, j, _ in bonds]) if isinstance(atoms, list) else None)
    assert expected[-5][0] == 501 and sum(e is not None for e in expected) > 5_000
    rng = random.Random(7)
    order = list(range(len(cases)))
    for size, count in ((1, 1_000), (3, 6_000), (64, len(order)), (512, len(order))):
        rng.shuffle(order)
        for start in range(0, count, size):
            chunk = order[start : start + size]
            sizes, edges, starts, ok = (a.tolist() for a in scan_block([cases[k] for k in chunk]))
            for r, k in enumerate(chunk):
                got = (sizes[r], edges[starts[r] : starts[r + 1]]) if ok[r] else None
                assert got == expected[k], cases[k]
    assert not scan_block(["C²", "C١CC١", "C%²²", "[é]", "[²C]", "C[٣C]C", "CC\u00e9"])[3].any()
    sizes, edges, starts, ok = scan_block([])
    assert (sizes.shape, edges.shape, starts.tolist(), ok.shape) == ((0,), (0, 2), [0], (0,))


@pytest.mark.parametrize("smiles,position,token", [
    ("C²", 1, "²"),  # superscript two: str.isdigit() holds, int() fails
    ("C١CC١", 1, "١"),  # Arabic-Indic one
    ("C%²²", 1, "%²²"),
])
def test_ring_labels_are_ascii_digits(smiles, position, token):
    with pytest.raises(UnsupportedToken) as err:
        parse_smiles(smiles)
    assert (err.value.position, err.value.token) == (position, token)


@pytest.mark.parametrize("smiles,position,token", [
    ("[é]", 0, "[é]"),  # str.isalpha() holds
    ("[²C]", 0, "[²C]"),  # superscript two as an isotope digit
    ("C[٣C]C", 1, "[٣C]"),  # Arabic-Indic three as an isotope digit
])
def test_bracket_atoms_are_ascii(smiles, position, token):
    with pytest.raises(UnsupportedToken) as err:
        parse_smiles(smiles)
    assert (err.value.position, err.value.token) == (position, token)


def test_equal_symbols_share_one_node_record():
    records = '{"id": "a", "smiles": "CC(=O)Oc1ccccc1"}\n{"id": "b", "smiles": "OCC"}\n'
    a, b = parse_graph_file(records)
    assert a.nodes[0] is a.nodes[1] is b.nodes[1]
    assert a.nodes[2] is a.nodes[3] is b.nodes[0]
    assert [nd.text for nd in a.nodes] == ["C", "C", "O", "O"] + ["C"] * 6
    g = to_graph(parse_smiles("CC(=O)Oc1ccccc1"))
    assert g.nodes == a.nodes and g.nodes[0] is g.nodes[9]
