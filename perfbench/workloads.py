"""Seeded inputs and CLI stage lists for the three benchmark workloads.

Molecules are ring cores with one acyclic side chain. Every set is
stratified: each core gets the same number of molecules and the same mix of
side-chain lengths, so the topology multiset, and with it the amount of work,
is the same for every seed. The seed picks the side-chain atoms, the class
labels, the record order and the training seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Pinned copies of the toolkit's synthetic ring cores and side chains, so that
# a change to the package cannot change the benchmark's inputs.
CORES = (
    ("ring6", "C1CCCCC1{R}"),
    ("ring10", "C1CCCCCCCCC1{R}"),
    ("norbornane", "C1CC2CCC1C2{R}"),
    ("naphthalene", "c1ccc2ccccc2c1{R}"),
    ("anthracene", "c1ccc2cc3ccccc3cc2c1{R}"),
    ("pyrene", "c1cc2ccc3cccc4ccc(c1)c2c34{R}"),
    ("spiro56", "C1CCC2(CC1)CCCC2{R}"),
    ("adamantane", "C1C2CC3CC1CC(C2)C3{R}"),
    ("cubane", "C12C3C4C1C5C2C3C45{R}"),
    ("bicyclohexyl", "C1CCCCC1C1CCCCC1{R}"),
)
# side chains by atom count (0, 1, 2)
CHAINS = (
    ("",),
    ("C", "N", "O", "F", "Cl", "Br", "S", "P", "I"),
    ("CC", "CO", "CN", "CF", "CCl", "OC", "NC", "SC", "CS", "CBr"),
)
# chain-length class per slot in blocks of 20 (1 bare, 9 one-atom, 10
# two-atom chains); interleaved so that every prefix has a fixed mix
CHAIN_PLAN = (0,) + (1, 2) * 9 + (2,)

TASK = "BBBP_p_np"
K = 256
D = 64
PAIRS = 4 * K  # the CLI's default simjudge budget, passed explicitly
# Cosine thresholds for simjudge. The reference checkpoint puts every global
# embedding above cosine 0.9, so the CLI default --tau-neg 0.2 yields no
# negatives; these values give both classes far more pairs than the budget.
TAU_POS = 0.9999
TAU_NEG = 0.97

# Reference checkpoint for the downstream workloads: trained in set-up on a
# fixed set with a fixed seed, so every seed tokenizes against the same model.
REF_SEED = 20260
REF_PER_CORE = 6
REF_TRAIN_ARGS = (
    "--k", str(K), "--d", str(D), "--warmup-epochs", "2", "--epochs", "2",
    "--lr-gcn", "2e-3", "--lr-codebook", "1e-2", "--jobs", "1",
)
# Training workload: K=256 with gentle learning rates (the literature
# defaults diverge on small synthetic sets, see the package README).
TRAIN_WARMUP, TRAIN_JOINT = 5, 15
TRAIN_ARGS = (
    "--k", str(K), "--d", str(D), "--warmup-epochs", str(TRAIN_WARMUP),
    "--epochs", str(TRAIN_JOINT), "--batch-size", "32",
    "--lr-gcn", "2e-3", "--lr-codebook", "1e-2", "--jobs", "1",
)


@dataclass(frozen=True)
class Molecule:
    id: str
    smiles: str
    label: int
    n_atoms: int
    in_subset: bool  # one of the first `subset_per_core` molecules of its core


def _core_atoms() -> list[int]:
    from sogtok.smiles import parse_smiles

    return [len(parse_smiles(core.replace("{R}", "")).atoms) for _, core in CORES]


def make_molecules(n: int, rng: np.random.Generator, subset_per_core: int = 0) -> list[Molecule]:
    """n stratified molecules (n a multiple of the core count), shuffled."""
    if n % len(CORES):
        raise ValueError(f"molecule count {n} is not a multiple of {len(CORES)}")
    per_core = n // len(CORES)
    core_atoms = _core_atoms()
    drafts = []
    for c, (_, core) in enumerate(CORES):
        labels = rng.permutation([1] * (per_core // 2) + [0] * (per_core - per_core // 2))
        for slot in range(per_core):
            cls = CHAIN_PLAN[slot % len(CHAIN_PLAN)]
            chain = CHAINS[cls][int(rng.integers(len(CHAINS[cls])))]
            drafts.append(
                (core.replace("{R}", chain), int(labels[slot]), core_atoms[c] + cls,
                 slot < subset_per_core)
            )
    order = rng.permutation(len(drafts))
    return [
        Molecule(f"mol{pos:05d}", *drafts[idx]) for pos, idx in enumerate(order)
    ]


def write_smiles_records(mols: list[Molecule], path: Path) -> None:
    """The MoleculeNet form: id, smiles, label."""
    with open(path, "w", encoding="utf-8") as fh:
        for m in mols:
            fh.write(json.dumps({"id": m.id, "smiles": m.smiles, "label": m.label}) + "\n")


def write_graph_records(mols: list[Molecule], path: Path) -> None:
    """Explicit nodes+edges records, so ingest does not run the SMILES parser."""
    from sogtok.smiles import parse_smiles, to_graph

    with open(path, "w", encoding="utf-8") as fh:
        for m in mols:
            g = to_graph(parse_smiles(m.smiles), graph_id=m.id)
            obj = {
                "id": m.id,
                "nodes": [{"text": nd.text} for nd in g.nodes],
                "edges": [[i, j] for i, j in g.edges],
                "label": m.label,
            }
            fh.write(json.dumps(obj) + "\n")


THROUGHPUTS = ("train_graph_epochs_per_s", "tokenize_graphs_per_s", "node_tokens_per_s",
               "corpus_graphs_per_s", "prompts_graphs_per_s", "stats_graphs_per_s")


@dataclass
class Stage:
    name: str  # also the output directory inside a pass directory
    argv: list[str]  # sogtok CLI arguments, paths relative to the run directory
    items: int  # units of work, for the throughput metric
    throughput: str | None = None  # per-layer name of items / wall seconds


@dataclass
class Inputs:
    """What set-up leaves in the run directory, plus facts about it."""

    seed: int
    molecules: list[Molecule]
    data: str  # relative path of the stage input file
    checkpoint: str | None = None
    nodes: list[tuple[str, int]] = field(default_factory=list)

    def facts(self) -> dict:
        sizes = [m.n_atoms for m in self.molecules]
        return {
            "graphs": len(sizes),
            "mean_nodes": round(float(np.mean(sizes)), 4),
            "max_nodes": int(max(sizes)),
            "node_tokens": len(self.nodes),
            "K": K,
            "d": D,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # molecules
    subset_per_core: int = 0  # molecules per core whose every node is tokenized

    def setup(self, run_dir: Path, seed: int, train_ref) -> Inputs:
        """Write the seeded inputs; train_ref(data, out) trains the reference
        checkpoint with the CLI."""
        rng = np.random.default_rng(seed)
        mols = make_molecules(self.n, rng, self.subset_per_core)
        inputs_dir = run_dir / "inputs"
        inputs_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "train-k256":
            write_graph_records(mols, inputs_dir / "train.jsonl")
            return Inputs(seed, mols, "inputs/train.jsonl")
        write_smiles_records(mols, inputs_dir / "data.jsonl")
        ref = make_molecules(REF_PER_CORE * len(CORES), np.random.default_rng(REF_SEED))
        write_graph_records(ref, inputs_dir / "ref_train.jsonl")
        train_ref("inputs/ref_train.jsonl", "ref")
        inputs = Inputs(seed, mols, "inputs/data.jsonl", checkpoint="ref/model.sogtok")
        if self.subset_per_core:
            inputs.nodes = [(m.id, v) for m in mols if m.in_subset for v in range(m.n_atoms)]
            (inputs_dir / "nodes.txt").write_text(
                "".join(f"{gid} {v}\n" for gid, v in inputs.nodes), encoding="utf-8"
            )
        return inputs

    def stages(self, inputs: Inputs, pass_dir: str) -> list[Stage]:
        data, seed = inputs.data, str(inputs.seed)
        n = len(inputs.molecules)

        def out(stage: str) -> list[str]:
            return ["--out", f"{pass_dir}/{stage}"]

        if self.name == "train-k256":
            return [
                Stage("train", ["train", "--data", data, "--seed", seed, *TRAIN_ARGS, *out("train")],
                      n * (TRAIN_WARMUP + TRAIN_JOINT), "train_graph_epochs_per_s"),
            ]
        ck = ["--checkpoint", inputs.checkpoint]
        corpus_args = ["--seed", seed, "--tau-pos", str(TAU_POS), "--tau-neg", str(TAU_NEG),
                       "--pairs", str(PAIRS), "--jobs", "1"]
        if self.name == "corpus-6k":
            return [
                Stage("gen-corpus", ["gen-corpus", "--data", data, *ck, "--kinds", "knn,simjudge",
                                     *corpus_args, *out("gen-corpus")], n, "corpus_graphs_per_s"),
            ]
        return [
            Stage("tokenize", ["tokenize", "--data", data, *ck, "--jobs", "1", *out("tokenize")],
                  n, "tokenize_graphs_per_s"),
            Stage("tokenize-node", ["tokenize", "--data", data, *ck, "--node-level", "--hops", "2",
                                    "--nodes", "inputs/nodes.txt", "--jobs", "1",
                                    *out("tokenize-node")],
                  len(inputs.nodes), "node_tokens_per_s"),
            Stage("gen-corpus", ["gen-corpus", "--data", data, *ck,
                                 "--kinds", "knn,simjudge,descmatch", *corpus_args,
                                 *out("gen-corpus")], n, "corpus_graphs_per_s"),
            Stage("gen-prompts", ["gen-prompts", "--data", data, *ck, "--seed", seed,
                                  "--task", TASK, "--balance", "1:1", "--jobs", "1",
                                  *out("gen-prompts")], n, "prompts_graphs_per_s"),
            Stage("eval", ["eval", "--responses", f"{pass_dir}/responses.jsonl", "--data", data,
                           "--task", TASK, "--jobs", "1", *out("eval")], n),
            Stage("stats", ["stats", "--data", data, *ck, "--seed", seed, "--trials", "2",
                            "--jobs", "1", *out("stats")], n, "stats_graphs_per_s"),
        ]


def write_responses(run_dir: Path, pass_dir: str, seed: int) -> None:
    """Seeded mock model output for eval, built from the test prompts'
    answers: most echo the answer, some give the opposite, some abstain."""
    rng = np.random.default_rng(seed + 1)
    rows = []
    test = run_dir / pass_dir / "gen-prompts" / "test.jsonl"
    for line in test.read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        roll = rng.random()
        if roll < 0.75:
            text = rec["answer"]
        elif roll < 0.95:
            text = "False" if rec["answer"] == "True" else "True"
        else:
            text = "I cannot tell."
        rows.append(json.dumps({"id": rec["id"], "text": text}))
    (run_dir / pass_dir / "responses.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")


# why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-k256", 300),
        Workload("pipeline-2k", 2000, subset_per_core=30),
        Workload("corpus-6k", 6000),
    )
}
