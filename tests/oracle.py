"""Per-graph reference implementations that the bucketed and blocked code is
checked against: adjacency stacks from Graph objects (adjacency_stack) and
node relabelling (permute); the attribute rule, its strictness test and graph
preparation, one graph at a time with Python sorts and a queue-based BFS;
k-means with one mask per cluster; training one graph at a time; the
closure-driven SMILES parser that builds one `Atom` per atom; the graph file
read one record at a time, each checked element by element; scaffold
grouping by one isomorphism call per member and representative, with a
label-pruned matcher or brute force over all permutations; scaffold
purities from one dict of token counts per bucket; and the dense per-graph
codebook gradient."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from itertools import permutations
from typing import NamedTuple

import numpy as np

from sogtok.attributes import (
    ANCHOR_ATTRIBUTE,
    HashingEmbedder,
    StructuralAttributeMap,
    embed_attributes,
    hop_attribute,
    importance_scores,
)
from sogtok.corpus import node_names
from sogtok.errors import (
    GraphFileSemanticError,
    GraphFileSyntaxError,
    InvalidPermutation,
    NonFiniteLoss,
    ValidationError,
    SmilesError,
    UnbalancedBranch,
    UnclosedRing,
    UnsupportedToken,
)
from sogtok.graph import (
    DEFAULT_SIZE_CAP,
    Graph,
    NodeRecord,
    augment_with_global_node,
    bfs_hops,
    build_adjacency,
)
from sogtok.metrics import ScaffoldConsistencyReport
from sogtok.model import (
    Adam,
    Codebook,
    DecoderParams,
    EncoderParams,
    TokenizerModel,
    backward,
    encode,
    forward,
    init_params,
    nearest,
    normalized_adjacency,
    save_checkpoint,
)
from sogtok.smiles import (
    _BOND_CHARS,
    AROMATIC,
    AROMATIC_ORGANIC,
    ORGANIC_ONE_LETTER,
    ORGANIC_TWO_LETTER,
    SINGLE,
    Atom,
    Bond,
    SmilesMolecule,
    node_records,
    scan_smiles,
)
from sogtok.train import EpochLog, _minibatches


def tie_break_key(g: Graph) -> list[tuple[int, ...]]:
    """Secondary ranking key: sorted neighbor-degree multiset, descending."""
    deg = g.degrees()
    adj = g.neighbors()
    return [tuple(sorted((deg[u] for u in adj[v]), reverse=True)) for v in range(g.n)]


def neg_key(key: tuple[int, ...]) -> tuple:
    # descending lexicographic comparison of variable-length int tuples:
    # negate entries and terminate with +inf so that prefixes sort after
    # their extensions (a longer multiset with equal prefix ranks first)
    return tuple(-x for x in key) + (float("inf"),)


def node_order(nodes: list[int], scores: np.ndarray, keys: list[tuple[int, ...]]) -> list[int]:
    # primary: importance desc; secondary: neighbor-degree multiset desc;
    # fallback: original index asc
    return sorted(nodes, key=lambda v: (-scores[v], neg_key(keys[v]), v))


def assign_attributes(g: Graph, strategy) -> StructuralAttributeMap:
    """Anchor, hop labels, and within-hop ranks for every node."""
    scores = importance_scores(build_adjacency(g).astype(bool), strategy)
    keys = tie_break_key(g)
    anchor = node_order(list(range(g.n)), scores, keys)[0]
    hops = bfs_hops(g, anchor)

    by_hop: dict[int, list[int]] = {}
    unreachable: list[int] = []
    for v in range(g.n):
        if v == anchor:
            continue
        if hops[v] is None:
            unreachable.append(v)
        else:
            by_hop.setdefault(hops[v], []).append(v)

    rank_of = [0] * g.n
    attribute_of = [""] * g.n
    attribute_of[anchor] = ANCHOR_ATTRIBUTE
    for hop, members in by_hop.items():
        for rank, v in enumerate(node_order(members, scores, keys), start=1):
            rank_of[v] = rank
            attribute_of[v] = hop_attribute(hop, rank)
    for rank, v in enumerate(node_order(unreachable, scores, keys), start=1):
        rank_of[v] = rank
        attribute_of[v] = f"disconnected node #{rank}"

    return StructuralAttributeMap(
        anchor=anchor,
        hop_of=tuple(hops),
        rank_of=tuple(rank_of),
        attribute_of=tuple(attribute_of),
    )


def has_strict_ranking(g: Graph, strategy) -> bool:
    """True when anchor choice and every within-hop ranking are decided
    without falling back to node indices."""
    scores = importance_scores(build_adjacency(g).astype(bool), strategy)
    keys = tie_break_key(g)

    def strict(pool: list[int], top_only: bool = False) -> bool:
        pairs = sorted(((-scores[v], neg_key(keys[v])) for v in pool))
        if top_only:
            return len(pairs) < 2 or pairs[0] != pairs[1]
        return all(pairs[i] != pairs[i + 1] for i in range(len(pairs) - 1))

    if not strict(list(range(g.n)), top_only=True):
        return False
    attrs = assign_attributes(g, strategy)
    by_hop: dict[int, list[int]] = {}
    unreachable: list[int] = []
    for v in range(g.n):
        if v == attrs.anchor:
            continue
        if attrs.hop_of[v] is None:
            unreachable.append(v)
        else:
            by_hop.setdefault(attrs.hop_of[v], []).append(v)
    return strict(unreachable) and all(strict(members) for members in by_hop.values())


def codebook_gradient(grads, k: int) -> np.ndarray | None:
    """Dense gradient on a codebook of k entries, (k, d) per graph of grads:
    each graph's entry_rows added to their entries in row order; None when
    no row was quantized (warm-up)."""
    if grads.entry_rows is None:
        return None
    *batch, m, d = grads.entry_rows.shape
    graphs = math.prod(batch)
    dcb = np.zeros((graphs * k, d))
    keys = np.repeat(np.arange(graphs) * k, m) + grads.indices.ravel()
    np.add.at(dcb, keys, grads.entry_rows.reshape(-1, d))
    return dcb.reshape(*batch, k, d)


def prepare_graph(g: Graph, strategy, embedder, include_global: bool = True):
    """(a_target, anorm, x) of g, one graph at a time."""
    x = embed_attributes(assign_attributes(g, strategy), embedder, include_global=include_global)
    a_target = build_adjacency(augment_with_global_node(g) if include_global else g)
    return a_target, normalized_adjacency(a_target), x


def kmeans(rows: np.ndarray, k: int, rng: np.random.Generator, iters: int = 20) -> np.ndarray:
    """Lloyd iterations with one boolean mask per cluster."""
    n, d = rows.shape
    if n >= k:
        centers = rows[rng.choice(n, size=k, replace=False)].copy()
    else:
        pad = rows.mean(axis=0) + rng.normal(0.0, 0.1, size=(k - n, d))
        centers = np.vstack([rows.copy(), pad])
    for _ in range(iters):
        assign = nearest(rows, centers)
        for j in range(k):
            members = rows[assign == j]
            if len(members) > 0:
                centers[j] = members.mean(axis=0)
    return centers


def train(dataset: list[Graph], cfg, checkpoint_dir=None, embedder=None):
    """Both training phases one graph at a time: a forward and a backward
    pass per graph, each graph's gradients added to the batch sums as they
    come, and one codebook search per graph. A minibatch takes its graphs by
    node count, in order of the counts' first appearance in the dataset, then
    by dataset position."""
    if embedder is None:
        embedder = HashingEmbedder(dim=cfg.d_s)
    rng = np.random.default_rng(cfg.seed)
    enc, dec = init_params(cfg.d_s, cfg.hidden, cfg.d, cfg.d_r, rng)
    entries = rng.normal(0.0, 0.1, size=(cfg.k, cfg.d))
    prepared = [prepare_graph(g, cfg.strategy, embedder) for g in dataset]
    first_seen: dict[int, int] = {}
    for g in dataset:
        first_seen.setdefault(g.n, len(first_seen))
    logs = []

    def evaluate(epoch, cb):
        sums = np.zeros(3)  # recon, gap, total
        selected: set[int] = set()
        for a_target, anorm, x in prepared:
            state = forward(a_target, anorm, x, enc, dec, cb, cfg.beta)
            sums += (state.loss.reconstruction, state.loss.update, state.loss.total)
            if state.sel is not None:
                selected.update(state.sel.indices.tolist())
        mean_recon, mean_gap, mean_total = sums / len(prepared)
        if not np.isfinite(mean_total):
            raise NonFiniteLoss(epoch, f"mean total loss {mean_total}")
        return EpochLog(
            epoch=epoch,
            recon=mean_recon,
            update=mean_gap,
            commit=mean_gap,
            total=mean_total,
            utilization=len(selected) / cfg.k if cb is not None else 0.0,
            dead_entries=cfg.k - len(selected) if cb is not None else cfg.k,
        )

    def update_pass(cb, opt, params):
        for batch in _minibatches(len(prepared), cfg.batch_size, rng):
            sums = {name: np.zeros_like(p) for name, p in params.items()}
            for idx in sorted(batch, key=lambda i: (first_seen[dataset[i].n], i)):
                a_target, anorm, x = prepared[idx]
                state = forward(a_target, anorm, x, enc, dec, cb, cfg.beta)
                grads = backward(state, enc, dec)
                for name, total in sums.items():
                    total += codebook_gradient(grads, cfg.k) if name == "codebook" else getattr(grads, name)
            factor = 1.0 / len(batch)
            opt.step(params, {name: total * factor for name, total in sums.items()})

    def snapshot(epoch, cb):
        if checkpoint_dir is None:
            return
        model = TokenizerModel(
            enc=EncoderParams(w1=enc.w1.copy(), w2=enc.w2.copy()),
            dec=DecoderParams(wd=dec.wd.copy()),
            codebook=Codebook(entries=(cb.entries if cb is not None else entries).copy()),
            beta=cfg.beta,
            strategy=cfg.strategy,
            seed=cfg.seed,
        )
        save_checkpoint(model, f"{checkpoint_dir}/ckpt_epoch_{epoch:03d}.sogtok")

    epoch = 0
    warm_opt = Adam({"w1": cfg.lr_warmup, "w2": cfg.lr_warmup, "wd": cfg.lr_warmup})
    warm_params = {"w1": enc.w1, "w2": enc.w2, "wd": dec.wd}
    for _ in range(cfg.warmup_epochs):
        logs.append(evaluate(epoch, None))
        update_pass(None, warm_opt, warm_params)
        snapshot(epoch, None)
        epoch += 1

    if cfg.warmup_epochs > 0:
        full, node_rows, global_rows = [], [], []
        for _, anorm, x in prepared:
            h, _ = encode(anorm, x, enc)
            full.append(h)
            node_rows.append(h[:-1])
            global_rows.append(h[-1:])
        if cfg.global_share is None:
            entries = kmeans(np.vstack(full), cfg.k, rng)
        else:
            k_global = min(cfg.k - 1, max(1, round(cfg.k * cfg.global_share)))
            entries = np.vstack(
                [
                    kmeans(np.vstack(node_rows), cfg.k - k_global, rng),
                    kmeans(np.vstack(global_rows), k_global, rng),
                ]
            )

    cb = Codebook(entries=entries)
    joint_opt = Adam(
        {"w1": cfg.lr_gcn, "w2": cfg.lr_gcn, "wd": cfg.lr_gcn, "codebook": cfg.lr_codebook}
    )
    joint_params = {"w1": enc.w1, "w2": enc.w2, "wd": dec.wd, "codebook": cb.entries}
    for _ in range(cfg.joint_epochs):
        logs.append(evaluate(epoch, cb))
        update_pass(cb, joint_opt, joint_params)
        snapshot(epoch, cb)
        epoch += 1
    logs.append(evaluate(epoch, cb))
    model = TokenizerModel(
        enc=enc, dec=dec, codebook=cb, beta=cfg.beta, strategy=cfg.strategy, seed=cfg.seed
    )
    return model, logs


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
    """Reference SMILES parser: closure-driven, one `Atom` per atom."""
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


def _adjacency_sets(g: Graph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


class Invariants(NamedTuple):
    """What the label-pruned matcher reads of one graph, computed once."""

    n: int
    edges: tuple[tuple[int, int], ...]
    labels: list[tuple]  # per node: (degree, sorted neighbour degrees, triangles)
    sorted_labels: list[tuple]
    adj: list[set[int]]


def isomorphism_invariants(g: Graph) -> Invariants:
    adj = _adjacency_sets(g)
    # each triangle through v is one edge between two of v's neighbours,
    # seen once from each of its ends
    tri = [sum(len(adj[u] & nbrs) for u in nbrs) // 2 for nbrs in adj]
    labels = [
        (len(nbrs), tuple(sorted(len(adj[u]) for u in nbrs)), t) for nbrs, t in zip(adj, tri)
    ]
    return Invariants(g.n, g.edges, labels, sorted(labels), adj)


def match_invariants(a: Invariants, b: Invariants) -> bool:
    """Exact isomorphism test by backtracking with label pruning, rarest
    labels first. Exponential on large graphs with few label classes, such
    as regular ones; fine for the tests' small and theta graphs."""
    if a.n != b.n or len(a.edges) != len(b.edges):
        return False
    if a.edges == b.edges:
        return True
    if a.sorted_labels != b.sorted_labels:
        return False
    lab1, adj1, adj2 = a.labels, a.adj, b.adj
    n = a.n
    candidates: dict[tuple, list[int]] = {}
    for w, lab in enumerate(b.labels):
        candidates.setdefault(lab, []).append(w)
    order = sorted(range(n), key=lambda v: (len(candidates[lab1[v]]), -len(adj1[v])))
    mapping: dict[int, int] = {}
    used = [False] * n

    def extend(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in candidates[lab1[v]]:
            if used[w]:
                continue
            # mapped neighbours must stay neighbours, mapped non-neighbours
            # non-neighbours
            if all((u in adj1[v]) == (mu in adj2[w]) for u, mu in mapping.items()):
                mapping[v] = w
                used[w] = True
                if extend(pos + 1):
                    return True
                del mapping[v]
                used[w] = False
        return False

    return extend(0)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism of two graphs by the label-pruned matcher, their
    invariants computed afresh."""
    return match_invariants(isomorphism_invariants(g1), isomorphism_invariants(g2))


def refine_colours(graphs: list[Graph], colours: list[list[int]]) -> list[list[int]]:
    """1-WL colour refinement of graphs of one node count, one Python
    signature per node and round: (colour, neighbour count, sorted neighbour
    colours), numbered in sorted order over all the graphs."""
    adj = [g.neighbors() for g in graphs]
    names = {c: k for k, c in enumerate(sorted({c for row in colours for c in row}))}
    colours = [[names[c] for c in row] for row in colours]
    while True:
        sig = [
            [(row[v], len(nbrs), tuple(sorted(row[u] for u in nbrs))) for v, nbrs in enumerate(a)]
            for row, a in zip(colours, adj)
        ]
        names = {s: k for k, s in enumerate(sorted({s for row in sig for s in row}))}
        refined = [[names[s] for s in row] for row in sig]
        if len(names) == len({c for row in colours for c in row}):
            return refined
        colours = refined


def brute_force_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism by trying every permutation; graphs of <= 8 nodes."""
    assert g1.n <= 8, "brute force is for graphs of at most 8 nodes"
    if g1.n != g2.n or len(g1.edges) != len(g2.edges):
        return False
    target = set(g2.edges)
    return any(
        all((min(p[i], p[j]), max(p[i], p[j])) in target for i, j in g1.edges)
        for p in permutations(range(g1.n))
    )


def murcko_scaffold(g: Graph) -> Graph | None:
    """Iteratively prune degree-<=1 nodes, as sets; return the surviving
    induced subgraph, its nodes in index order. Acyclic graphs yield None."""
    alive = set(range(g.n))
    adj = [set(nbrs) for nbrs in g.neighbors()]
    while True:
        prune = [v for v in alive if len(adj[v]) <= 1]
        if not prune:
            break
        for v in prune:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v].clear()
            alive.discard(v)
    if not alive:
        return None
    order = sorted(alive)
    mapping = {old: new for new, old in enumerate(order)}
    nodes = tuple(g.nodes[v] for v in order)
    edges = tuple((mapping[i], mapping[j]) for i, j in g.edges if i in alive and j in alive)
    return Graph(id=f"{g.id}#scaffold", nodes=nodes, edges=edges, graph_text=g.graph_text)


def scaffold_order_text(g: Graph | None) -> str:
    """The text that group_scaffolds lists its groups by."""
    if g is None:
        return "EMPTY"
    return f"n{g.n}|m{len(g.edges)}|deg[{','.join(map(str, sorted(g.degrees())))}]"


def group_scaffolds(scaffolds: list[Graph | None], isomorphic=are_isomorphic) -> list[list[int]]:
    """Scaffold grouping that calls `isomorphic` on each member against each
    representative of its node count; the empty scaffolds form one group.
    Groups are sorted by their order text, then by first member."""
    empty = [i for i, g in enumerate(scaffolds) if g is None]
    reps: list[list[int]] = [empty] if empty else []
    for i, g in enumerate(scaffolds):
        if g is None:
            continue
        for bucket in reps:
            first = scaffolds[bucket[0]]
            if first is not None and first.n == g.n and isomorphic(g, first):
                bucket.append(i)
                break
        else:
            reps.append([i])
    return sorted(reps, key=lambda b: (scaffold_order_text(scaffolds[b[0]]), b[0]))


def naming_order(attrs: StructuralAttributeMap) -> list[int]:
    """Nodes in attribute-rank order: anchor, then hop by hop in rank order,
    unreachable nodes last."""
    inf = float("inf")
    return sorted(
        range(len(attrs.hop_of)),
        key=lambda v: (attrs.hop_of[v] if attrs.hop_of[v] is not None else inf, attrs.rank_of[v]),
    )


def describe_graph(g: Graph, attrs: StructuralAttributeMap) -> tuple[str, dict[str, int]]:
    """The descmatch question of g, naming its nodes in the naming_order() of
    its attribute map attrs, and the name -> node index map."""
    order = naming_order(attrs)
    names = node_names(g.n)
    pos_of = {node: pos for pos, node in enumerate(order)}
    if not g.edges:
        body = f"a graph of {g.n} {'node' if g.n == 1 else 'nodes'} with no edges"
    else:
        pairs = sorted((min(pos_of[i], pos_of[j]), max(pos_of[i], pos_of[j])) for i, j in g.edges)
        body = "; ".join(f"node {names[a]} and node {names[b]} is connected" for a, b in pairs)
    question = f"Here is the target graph: {body}. The corresponding graph structural token is:"
    return question, {names[pos]: node for pos, node in enumerate(order)}


def parse_graph_record(
    obj: dict, line_no: int, size_cap: int, records: dict[str | None, NodeRecord]
) -> Graph:
    """One graph from a decoded record, checked element by element; the
    checks of its Graph's construction raised by Graph itself."""
    if not isinstance(obj, dict):
        raise GraphFileSemanticError(line_no, "record is not an object")
    gid = obj.get("id")
    if not isinstance(gid, str) or not gid:
        raise GraphFileSemanticError(line_no, "missing or empty 'id'")
    smiles = obj.get("smiles")
    if "nodes" not in obj and isinstance(smiles, str):
        try:
            symbols, _, bonds = scan_smiles(smiles)
        except SmilesError as exc:
            raise GraphFileSemanticError(line_no, f"bad smiles: {exc}") from exc
        nodes = node_records(symbols, records)
        edges = sorted(bonds)
    else:
        nodes_raw = obj.get("nodes")
        if not isinstance(nodes_raw, list) or len(nodes_raw) == 0:
            raise GraphFileSemanticError(line_no, "'nodes' must be a non-empty array")
        for idx, nd in enumerate(nodes_raw):
            if not isinstance(nd, dict):
                raise GraphFileSemanticError(line_no, f"node {idx} is not an object")
            text = nd.get("text")
            if text is not None and not isinstance(text, str):
                raise GraphFileSemanticError(line_no, f"node {idx} 'text' is not a string")
        nodes = node_records([nd.get("text") for nd in nodes_raw], records)
        edges_raw = obj.get("edges", [])
        if not isinstance(edges_raw, list):
            raise GraphFileSemanticError(line_no, "'edges' must be an array")
        edges = []
        for k, e in enumerate(edges_raw):
            if (
                not isinstance(e, list)
                or len(e) != 2
                or not all(isinstance(v, int) and not isinstance(v, bool) for v in e)
            ):
                raise GraphFileSemanticError(line_no, f"edge {k} must be a two-int array")
            if not (0 <= e[0] < len(nodes) and 0 <= e[1] < len(nodes)):
                raise GraphFileSemanticError(line_no, f"edge {k} index out of range: {e}")
            edges.append((e[0], e[1]))
    if len(nodes) > size_cap:
        raise GraphFileSemanticError(
            line_no, f"graph {gid!r} has {len(nodes)} nodes, exceeding the size cap of {size_cap}"
        )
    label = obj.get("label")
    if label is not None and (isinstance(label, bool) or not isinstance(label, int)):
        raise GraphFileSemanticError(line_no, "'label' must be an integer")
    if smiles is not None and not isinstance(smiles, str):
        raise GraphFileSemanticError(line_no, "'smiles' must be a string")
    try:
        return Graph(id=gid, nodes=tuple(nodes), edges=tuple(edges), label=label, graph_text=smiles)
    except ValidationError as exc:
        raise GraphFileSemanticError(line_no, str(exc)) from exc


# a JSON string may hold these raw, so they do not end a line of a JSON Lines file
JSON_STRING_BREAKS = ("\x85", "\u2028", "\u2029")


def json_lines(text: str) -> list[str]:
    """text.splitlines(), with each piece that one of JSON_STRING_BREAKS ends
    joined, that character kept, to the piece after it."""
    lines, held = [], ""
    for piece in text.splitlines(keepends=True):
        if piece.endswith(JSON_STRING_BREAKS):
            held += piece
        else:
            lines.append(held + (piece.splitlines() or [""])[0])
            held = ""
    return lines + ([held] if held else [])


def read_graph_file(text: str, size_cap: int = DEFAULT_SIZE_CAP) -> list[Graph]:
    """The graphs of a graph file's text, one record at a time: each line
    (json_lines) decoded, built into a fully checked Graph
    (parse_graph_record) and its id checked against the ids before it."""
    graphs, seen, records = [], set(), {}
    for line_no, line in enumerate(json_lines(text), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise GraphFileSyntaxError(line_no, exc.colno, exc.msg) from exc
        g = parse_graph_record(obj, line_no, size_cap, records)
        if g.id in seen:
            raise GraphFileSemanticError(line_no, f"duplicate graph id {g.id!r}")
        seen.add(g.id)
        graphs.append(g)
    return graphs


def _mean_purity(tokens: list[int], buckets: list[list[int]]) -> float:
    purities = []
    for members in buckets:
        if len(members) < 2:
            continue
        freq: dict[int, int] = {}
        for idx in members:
            freq[tokens[idx]] = freq.get(tokens[idx], 0) + 1
        purities.append(max(freq.values()) / len(members))
    if not purities:
        raise ValidationError("no scaffold bucket has two or more members")
    return math.fsum(purities) / len(purities)


def scaffold_consistency(tokens: list[int], buckets: list[list[int]], shuffles: int = 100,
                         seed: int = 0) -> ScaffoldConsistencyReport:
    """Mean dominant-token purity with its shuffled baseline, one bucket and
    one member at a time."""
    mean_purity = _mean_purity(tokens, buckets)
    rng = np.random.default_rng(seed)
    arr = np.asarray(tokens)
    baseline = []
    for _ in range(shuffles):
        shuffled = arr[rng.permutation(len(arr))].tolist()
        baseline.append(_mean_purity(shuffled, buckets))
    return ScaffoldConsistencyReport(
        mean_purity=mean_purity,
        baseline_purity=float(np.mean(baseline)),
        bucket_count=sum(len(b) >= 2 for b in buckets),
    )


def permute(g: Graph, perm: list[int] | tuple[int, ...]) -> Graph:
    """Relabel nodes: old index i becomes perm[i]. Edge set follows."""
    if sorted(perm) != list(range(g.n)):
        raise InvalidPermutation(f"not a bijection on [0, {g.n})")
    nodes = [None] * g.n
    for old, node in enumerate(g.nodes):
        nodes[perm[old]] = node
    edges = tuple((perm[i], perm[j]) for i, j in g.edges)
    return replace(g, nodes=tuple(nodes), edges=edges)


def adjacency_stack(graphs: list[Graph]) -> np.ndarray:
    """(B, n, n) boolean adjacency of B graphs with n nodes each."""
    b, n = len(graphs), graphs[0].n
    a = np.zeros((b, n, n), dtype=bool)
    counts = [len(g.edges) for g in graphs]
    if sum(counts):
        i, j = np.array([e for g in graphs for e in g.edges]).T
        which = np.repeat(np.arange(b), counts)
        a[which, i, j] = a[which, j, i] = True
    return a
