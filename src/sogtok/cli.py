"""Command-line entry point.

Subcommands: train, tokenize, gen-corpus, gen-prompts, eval, stats.
Every run reads each input file once and writes one manifest, with the
sha256 of the bytes it read from each; --from-manifest replays a previous
run's resolved configuration and reproduces its outputs byte-for-byte; it
takes no other flag but --out. Every artifact is written atomically.
Each setting is declared once, in SETTINGS; its flag is --<name with
dashes>, and replayed values are checked against the declaration. A run
imports only the modules of its subcommand and declares only its flags.

Exit codes: 0 success, 1 I/O failure, 2 config/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import math
import re
import sys
from itertools import chain
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

from .errors import (
    EmptyDataset,
    NumericalError,
    SogtokError,
    ValidationError,
)
from .manifest import (
    DEFAULT_SIZE_CAP,
    atomic_write,
    build_manifest,
    decode_json,
    numbered_lines,
    read_manifest,
    write_manifest,
)

# Each cmd_* takes the resolved config, the manifest and the bytes of each
# input file the run was given, by setting name; it takes each input out of
# that dict as it reads it, so the stage holds the one copy. It imports the
# modules it calls when it runs.


def _stream_graphs(inputs: dict, size_cap: int):
    """The graphs of the data file in blocks, parsed as they are read: every stage's one reader."""
    from .ingest import iter_graph_file

    return iter_graph_file(inputs.pop("data"), size_cap=size_cap)


def _text(cfg: dict, inputs: dict, name: str) -> str:
    """The UTF-8 text of the input file of setting name; ValidationError
    naming the file when its bytes are not UTF-8."""
    try:
        return inputs.pop(name).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{cfg[name]}: not UTF-8 text at byte {exc.start}") from None


def _make_embedder(model, cfg: dict, inputs: dict):
    from .attributes import HashingEmbedder, load_embedding_table

    if cfg["embed_table"] is None:
        return HashingEmbedder(dim=model.d_s)
    return load_embedding_table(_text(cfg, inputs, "embed_table"), dim=model.d_s)


def _require_graphs(count: int, data) -> None:
    """EmptyDataset unless the data file held a graph: every stage refuses an empty one."""
    if not count:
        raise EmptyDataset(f"no graphs in {data}")


def _embeddable(manifest: dict) -> dict:
    """Manifest copy safe to embed in output artifacts: no timestamp and no
    path, so re-runs and replays stay byte-identical wherever their files
    live. The inputs remain as checksums."""
    out = {k: v for k, v in manifest.items() if k != "created_at"}
    out["config"] = {k: v for k, v in manifest["config"].items() if k not in (*INPUT_SETTINGS, "out")}
    return out


class _Counted:
    """Blocks passed on lazily and their graphs counted: len() is the number
    of graphs passed on, read once the stage has consumed the blocks."""

    def __init__(self, blocks):
        self.blocks, self.count = blocks, 0

    def __iter__(self):
        for block in self.blocks:
            self.count += len(block)
            yield block

    def __len__(self) -> int:
        return self.count


def cmd_train(cfg: dict, manifest: dict, inputs: dict) -> None:
    from .attributes import ImportanceStrategy
    from .model import save_checkpoint
    from .train import TrainConfig, format_training_log, train

    tc = TrainConfig(  # the other settings of train are named as the fields they set
        joint_epochs=cfg["epochs"],
        strategy=ImportanceStrategy(kind=cfg["anchor"], seed=cfg["anchor_seed"]),
        **{name: cfg[name] for name in ("k", "beta", "warmup_epochs", "lr_warmup", "lr_gcn",
                                        "lr_codebook", "seed", "d_s", "d_h", "d", "d_r",
                                        "batch_size", "global_share")},
    )
    out = Path(cfg["out"])
    graphs = _Counted(_stream_graphs(inputs, cfg["size_cap"]))
    model, logs = train(graphs, tc, checkpoint_dir=str(out))
    model.manifest = _embeddable(manifest)
    save_checkpoint(model, out / "model.sogtok")
    with atomic_write(out / "train_log.tsv") as fh:
        fh.write(format_training_log(logs))
    print(f"trained K={tc.k} model on {len(graphs)} graphs -> {out / 'model.sogtok'}")


def _read_node_list(text: str) -> list[tuple[str, int]]:
    """'graph_id index' pairs, split at white space but U+0085, U+2028 and U+2029;
    an index is ASCII decimal digits only, so '1_0' and non-ASCII digits are refused."""
    out = []
    for line_no, line in numbered_lines(text):
        fields = re.findall(r"[\S\x85\u2028\u2029]+", line)
        if len(fields) != 2 or not (fields[1].isascii() and fields[1].isdigit()):
            raise ValidationError(
                f"node list line {line_no}: expected 'graph_id index', got {line.strip()!r}"
            )
        try:
            out.append((fields[0], int(fields[1])))
        except ValueError:  # more digits than int() converts
            raise ValidationError(f"node list line {line_no}: index has {len(fields[1])} digits") from None
    return out


def cmd_tokenize(cfg: dict, manifest: dict, inputs: dict) -> None:
    import numpy as np

    from .model import load_checkpoint
    from .train import assign_tokens, format_token_table, node_tokens, token_text

    if cfg["nodes"] is not None and not cfg["node_level"]:
        raise ValidationError("--nodes requires --node-level")
    model = load_checkpoint(inputs.pop("checkpoint"))
    blocks = _Counted(_stream_graphs(inputs, cfg["size_cap"]))
    embedder = _make_embedder(model, cfg, inputs)
    out = Path(cfg["out"])
    if cfg["node_level"]:
        listed = None  # graph id -> its listed centers, in list order
        if cfg["nodes"]:
            listed = {}
            for gid, v in _read_node_list(_text(cfg, inputs, "nodes")):
                listed.setdefault(gid, []).append(v)
        fed = []  # the (id, center) of each token, in the order fed

        def centers():
            for block in blocks:
                owners, picked = [], []
                for pos, (gid, n) in enumerate(zip(block.ids, block.sizes.tolist())):
                    for v in range(n) if listed is None else listed.get(gid, ()):
                        if v >= n:
                            raise ValidationError(f"node {v} out of range for graph {gid!r} with {n} nodes")
                        fed.append((gid, v))
                        owners.append(pos)
                        picked.append(v)
                yield block, np.array(owners, dtype=np.intp), np.array(picked, dtype=np.intp)

        tokens = node_tokens(centers(), model, hops=cfg["hops"], embedder=embedder)
        _require_graphs(len(blocks), cfg["data"])
        found = {gid for gid, _ in fed}
        for gid in listed or ():
            if gid not in found:
                raise ValidationError(f"node list references unknown graph {gid!r}")
        rows = sorted(
            ((gid, v, token_text(t)) for (gid, v), t in zip(fed, tokens)),
            key=lambda r: (r[0], r[1]),
        )
        lines = ["id\tnode\ttoken"] + [f"{gid}\t{v}\t{surface}" for gid, v, surface in rows]
        written, text = out / "node_tokens.tsv", "\n".join(lines) + "\n"
    else:
        assignments = assign_tokens(blocks, model, embedder)
        _require_graphs(len(blocks), cfg["data"])
        written, text = out / "tokens.tsv", format_token_table(assignments)
    with atomic_write(written) as fh:
        fh.write(text)
    print(f"wrote {written}")


def cmd_gen_corpus(cfg: dict, manifest: dict, inputs: dict) -> None:
    import numpy as np

    from .corpus import (
        KINDS,
        SimilarityThresholds,
        check_pair_budget,
        gen_descmatch_records,
        gen_knn_records,
        gen_simjudge_records,
        write_corpus,
    )
    from .model import load_checkpoint
    from .train import GLOBAL_ROW, encoded_blocks

    seed = cfg["seed"]
    model = load_checkpoint(inputs.pop("checkpoint"))
    kinds = [k.strip() for k in cfg["kinds"].split(",") if k.strip()]
    for kind in kinds:
        if kind not in KINDS:
            raise ValidationError(f"unknown corpus kind {kind!r}")
    # the settings and the knn records need only the flags and the
    # checkpoint, so a bad one is reported before the data file is read
    records = gen_knn_records(model.codebook, k=cfg["knn_k"]) if "knn" in kinds else []
    if "simjudge" in kinds:
        thresholds = SimilarityThresholds(tau_pos=cfg["tau_pos"], tau_neg=cfg["tau_neg"])
        budget = cfg["pairs"] if cfg["pairs"] is not None else 4 * model.k
        check_pair_budget(budget)
    blocks = _Counted(_stream_graphs(inputs, cfg["size_cap"]))
    embedder = _make_embedder(model, cfg, inputs)
    ids, tokens, global_rows = [], [], []
    if "simjudge" in kinds or "descmatch" in kinds:
        # one embedding per graph gives its token and its simjudge row;
        # descmatch names a graph's nodes from the rankings that the encoder
        # read. A block is dropped once its records are made
        def kept(b):
            block_records = gen_descmatch_records(b.block, b.tokens, b.ranked) if "descmatch" in kinds else []
            return b.block.ids, b.tokens, b.rows, block_records

        for block_ids, block_tokens, rows, block_records in encoded_blocks(
            blocks, model, kept, embedder, take=GLOBAL_ROW
        ):
            ids.extend(block_ids)
            tokens.extend(block_tokens)
            global_rows.append(rows)
            records.extend(block_records)
    else:
        for _ in blocks:  # the data file is checked whatever the kinds
            pass
    _require_graphs(len(blocks), cfg["data"])
    if "simjudge" in kinds:
        embeddings = np.vstack(global_rows)
        del global_rows  # not held during the pair scan
        records.extend(
            gen_simjudge_records(
                ids=ids,
                tokens=tokens,
                embeddings=embeddings,
                thresholds=thresholds,
                budget=budget,
                seed=seed,
            )
        )
    out = Path(cfg["out"])
    write_corpus(records, out / "corpus.jsonl")
    print(f"wrote {len(records)} records -> {out / 'corpus.jsonl'}")


def _assign_splits(ids: list[str], ratio: str, seed: int) -> dict[str, str]:
    import numpy as np

    try:
        parts = [float(x) for x in ratio.split(":")]
    except ValueError:
        parts = []
    if len(parts) != 3 or not all(0 <= p < math.inf for p in parts) or sum(parts) <= 0:
        raise ValidationError(f"bad split ratio {ratio!r}; expected like 8:1:1")
    weights = np.array(parts) / sum(parts)
    ids = sorted(ids)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ids))
    n_train = int(round(weights[0] * len(ids)))
    n_valid = int(round(weights[1] * len(ids)))
    # the split of each place in the permutation; zip drops the names past the last place
    names = ["train"] * n_train + ["valid"] * n_valid + ["test"] * len(ids)
    return {ids[idx]: name for idx, name in zip(order, names)}


def cmd_gen_prompts(cfg: dict, manifest: dict, inputs: dict) -> None:
    from .ingest import parse_label_csv
    from .model import load_checkpoint
    from .prompts import balance_split, load_template, render_prompt, write_prompt_files
    from .train import assign_tokens, format_token_table

    seed = cfg["seed"]
    model = load_checkpoint(inputs.pop("checkpoint"))
    blocks = _stream_graphs(inputs, cfg["size_cap"])
    embedder = _make_embedder(model, cfg, inputs)
    tmpl = load_template(cfg["task"])
    fed = []  # each graph's text and label, in file order; table_rows holds its id and tokens

    def noted():
        for block in blocks:
            fed.extend(zip(block.texts, block.labels))
            yield block

    table_rows = assign_tokens(noted(), model, embedder)
    _require_graphs(len(table_rows), cfg["data"])
    ids = [a.graph_id for a in table_rows]
    labels = parse_label_csv(_text(cfg, inputs, "labels"), set(ids)) if cfg["labels"] else {}
    split_of = _assign_splits(ids, cfg["split_ratio"], seed)
    records = [
        render_prompt(tmpl, a.graph_id, text, labels.get(a.graph_id, label), a.graph_token,
                      split=split_of[a.graph_id])
        for a, (text, label) in zip(table_rows, fed)
    ]
    balanced = balance_split(records, cfg["balance"], seed=seed)
    out = Path(cfg["out"])
    token_table = format_token_table(table_rows)
    with atomic_write(out / "tokens.tsv") as fh:
        fh.write(token_table)
    sidecar = {
        "task": cfg["task"],
        "balance_policy": cfg["balance"],
        "seed": seed,
        "token_table_sha256": hashlib.sha256(token_table.encode("utf-8")).hexdigest(),
    }
    write_prompt_files(balanced, out, sidecar)
    counts = {s: sum(1 for r in balanced if r.split == s) for s in ("train", "valid", "test")}
    print(f"wrote prompt files {counts} -> {out}")


def _load_responses(text: str) -> list[dict]:
    rows = []
    for line_no, line in numbered_lines(text):
        try:
            obj = decode_json(line)
        except ValueError as exc:
            raise ValidationError(f"response line {line_no}: not valid JSON ({exc})") from exc
        if not isinstance(obj, dict) or not isinstance(obj.get("text"), str) or "id" not in obj:
            raise ValidationError(f"response line {line_no}: need 'id' and a string 'text'")
        if type(obj["id"]) not in (str, int):
            raise ValidationError(f"response line {line_no}: 'id' must be a string or an integer")
        # a finite float: this also refuses nan, infinities and ints past float range
        if "score" in obj and not (
            type(obj["score"]) in (int, float) and abs(obj["score"]) <= sys.float_info.max
        ):
            raise ValidationError(f"response line {line_no}: 'score' must be a finite number")
        rows.append(obj)
    return rows


def _phrase_sets(tmpl) -> tuple[tuple[str, ...], tuple[str, ...]]:
    from .metrics import NEGATIVE_DEFAULT, POSITIVE_DEFAULT

    pos, neg = POSITIVE_DEFAULT, NEGATIVE_DEFAULT
    if tmpl is not None:
        if tmpl.positive and tmpl.positive.lower() not in pos:
            pos = pos + (tmpl.positive.lower(),)
        if tmpl.negative and tmpl.negative.lower() not in neg:
            neg = neg + (tmpl.negative.lower(),)
    return pos, neg


def cmd_eval(cfg: dict, manifest: dict, inputs: dict) -> None:
    from .metrics import UNKNOWN_CLASS, accuracy_and_f1, auc_roc, parse_answer, score_from_parse
    from .prompts import load_template

    responses = _load_responses(_text(cfg, inputs, "responses"))
    labels_by_id = {gid: label for block in _stream_graphs(inputs, cfg["size_cap"])
                    for gid, label in zip(block.ids, block.labels)}
    _require_graphs(len(labels_by_id), cfg["data"])
    tmpl = load_template(cfg["task"]) if cfg["task"] else None
    pos_set, neg_set = _phrase_sets(tmpl)
    preds, labels, scores = [], [], []
    used_explicit_scores = all("score" in r for r in responses)
    for r in responses:
        if r["id"] not in labels_by_id or labels_by_id[r["id"]] is None:
            raise ValidationError(f"no label for response id {r['id']!r}")
        parsed = parse_answer(r["text"], pos_set, neg_set)
        pred = {"Positive": 1, "Negative": 0, "Unknown": UNKNOWN_CLASS}[parsed.value]
        preds.append(pred)
        labels.append(labels_by_id[r["id"]])
        scores.append(float(r["score"]) if used_explicit_scores else score_from_parse(parsed))
    auc = auc_roc(scores, labels)
    report = accuracy_and_f1(preds, labels, classes=(1,))
    counts = report.counts[1]
    task_name = cfg["task"] or "unnamed"
    rows = [
        "task,auc,accuracy,micro_f1,tp,fp,tn,fn,score_source",
        f"{task_name},{auc:.9g},{report.accuracy:.9g},{report.micro_f1:.9g},"
        f"{counts.tp},{counts.fp},{counts.tn},{counts.fn},"
        f"{'response' if used_explicit_scores else 'parsed'}",
    ]
    with atomic_write(Path(cfg["out"]) / "metrics.csv") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"auc={auc:.4f} accuracy={report.accuracy:.4f} micro_f1={report.micro_f1:.4f}")


def cmd_stats(cfg: dict, manifest: dict, inputs: dict) -> None:
    import numpy as np

    from .metrics import (
        codebook_correlation,
        export_embeddings,
        format_csv_matrix,
        permutation_hits,
        scaffold_consistency,
    )
    from .model import load_checkpoint
    from .scaffold import group_scaffolds, scaffold_adjacencies
    from .train import GLOBAL_ROW, encoded_blocks

    seed = cfg["seed"]
    model = load_checkpoint(inputs.pop("checkpoint"))
    blocks = _stream_graphs(inputs, cfg["size_cap"])
    embedder = _make_embedder(model, cfg, inputs)
    out = Path(cfg["out"])
    m = min(cfg["corr_first"], model.k)
    sims, zero_rows = codebook_correlation(model.codebook, m)
    # one pass: each block's embedding gives its embeddings.csv rows and the
    # tokens that the permutation and scaffold checks read, and its stacks
    # give their relabelled copies and scaffolds before they are dropped
    rng = np.random.default_rng(seed)
    tokens, scaffolds, hits = [], [], 0

    def block_rows(b):
        nonlocal hits
        tokens.extend(b.tokens)
        hits += permutation_hits(model, b.block, b.tokens, cfg["trials"], rng, embedder)
        scaffolds.extend(scaffold_adjacencies(b.ranked))
        return zip(b.block.ids, b.tokens, b.rows)

    def embedding_rows():
        yield from chain.from_iterable(
            encoded_blocks(blocks, model, block_rows, embedder, take=GLOBAL_ROW)
        )
        _require_graphs(len(tokens), cfg["data"])  # before embeddings.csv is in place

    export_embeddings(embedding_rows(), model.enc.d, out / "embeddings.csv")
    perm_rate = hits / (len(tokens) * cfg["trials"])
    buckets = group_scaffolds(scaffolds)
    try:
        sc = scaffold_consistency(tokens, buckets, shuffles=100, seed=seed)
        scaffold_part = {
            "mean_purity": sc.mean_purity,
            "baseline_purity": sc.baseline_purity,
            "bucket_count": sc.bucket_count,
        }
    except ValidationError:
        scaffold_part = None  # no bucket with two members
    payload = {
        "permutation_consistency": perm_rate,
        "scaffold_consistency": scaffold_part,
        "zero_norm_codebook_rows": zero_rows,
        "correlation_size": m,
        "graph_count": len(tokens),
    }
    with atomic_write(out / "correlation.csv") as fh:
        fh.write(format_csv_matrix(sims))
    with atomic_write(out / "stats_report.json") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    print(f"permutation_consistency={perm_rate:.3f}; wrote {out / 'stats_report.json'}")


class Setting(NamedTuple):
    """One config key; its flag is always --<name with dashes>."""

    name: str
    type: type = str
    default: object = None
    choices: tuple | Declared | None = None
    help: str | None = None


class Declared(NamedTuple):
    """A default or choices tuple declared in the module that uses it, read
    only when a subcommand that takes its setting is parsed or replayed, so
    a run imports only the modules of its subcommand."""

    module: str
    attr: str  # dotted from the module; a dataclass field's default is its class attribute

    def read(self):
        return attrgetter(self.attr)(importlib.import_module(f".{self.module}", __package__))


def _train_default(field: str) -> Declared:
    return Declared("train", f"TrainConfig.{field}")  # the train defaults are declared in train.py only


SETTINGS = {s.name: s for s in (
    Setting("data"), Setting("checkpoint"), Setting("responses"), Setting("embed_table"),
    Setting("out", help="output directory"),
    Setting("size_cap", int, DEFAULT_SIZE_CAP, help="max nodes per graph"),
    Setting("jobs", int, 1, help="ignored by every subcommand; accepted so that existing command lines run"),
    Setting("seed", int),
    # train
    Setting("k", int, _train_default("k")), Setting("beta", float, _train_default("beta")),
    Setting("anchor", str, Declared("attributes", "ImportanceStrategy.kind"),
            Declared("attributes", "STRATEGY_KINDS")),
    Setting("anchor_seed", int, Declared("attributes", "ImportanceStrategy.seed")),
    Setting("warmup_epochs", int, _train_default("warmup_epochs")),
    Setting("epochs", int, _train_default("joint_epochs")),
    Setting("lr_warmup", float, _train_default("lr_warmup")), Setting("lr_gcn", float, _train_default("lr_gcn")),
    Setting("lr_codebook", float, _train_default("lr_codebook")),
    Setting("d_s", int, _train_default("d_s")), Setting("d_h", int, _train_default("d_h")),
    Setting("d", int, _train_default("d")), Setting("d_r", int, _train_default("d_r")),
    Setting("batch_size", int, _train_default("batch_size")),
    Setting("global_share", float, _train_default("global_share")),
    # tokenize
    Setting("node_level", bool, False), Setting("hops", int, 2),
    Setting("nodes", help="node list file: 'graph_id index' per line"),
    # gen-corpus
    Setting("kinds", str, "knn,simjudge,descmatch"), Setting("knn_k", int, 5),
    Setting("tau_pos", float, 0.8), Setting("tau_neg", float, 0.2), Setting("pairs", int),
    # gen-prompts and eval
    Setting("task"), Setting("labels", help="optional id,label CSV to join"),
    Setting("balance", str, "none", Declared("prompts", "BALANCE_POLICIES")),
    Setting("split_ratio", str, "8:1:1"),
    # stats
    Setting("corr_first", int, 50), Setting("trials", int, 10),
)}

# the settings that name an input file; a run reads and checksums each one it is given
INPUT_SETTINGS = ("data", "checkpoint", "responses", "embed_table", "nodes", "labels")

# subcommand -> (handler, help, required settings, other settings); every
# subcommand also takes out, size_cap and jobs. Entries are read by
# unpacking, because perfbench's tracer rebuilds them as plain tuples.
COMMANDS = {
    "train": (
        cmd_train, "train the structural tokenizer", ("data", "seed"),
        ("k", "beta", "anchor", "anchor_seed", "warmup_epochs", "epochs", "lr_warmup",
         "lr_gcn", "lr_codebook", "d_s", "d_h", "d", "d_r", "batch_size", "global_share"),
    ),
    "tokenize": (
        cmd_tokenize, "assign structural tokens", ("data", "checkpoint"),
        ("node_level", "hops", "nodes", "embed_table"),
    ),
    "gen-corpus": (
        cmd_gen_corpus, "generate hybrid structure QA corpora", ("data", "checkpoint", "seed"),
        ("kinds", "knn_k", "tau_pos", "tau_neg", "pairs", "embed_table"),
    ),
    "gen-prompts": (
        cmd_gen_prompts, "emit downstream prompt files", ("data", "checkpoint", "task", "seed"),
        ("labels", "balance", "split_ratio", "embed_table"),
    ),
    "eval": (
        cmd_eval, "score LLM responses against labels", ("responses", "data"), ("task",),
    ),
    "stats": (
        cmd_stats, "export analyses: correlation, embeddings, consistency",
        ("data", "checkpoint", "seed"), ("corr_first", "trials", "embed_table"),
    ),
}


def _settings(command: str) -> list[Setting]:
    """The settings of command, each default and choices tuple read."""
    *_, required, other = COMMANDS[command]
    settings = [SETTINGS[name] for name in (*required, *other, "out", "size_cap", "jobs")]
    return [s._replace(**{key: value.read() for key, value in s._asdict().items() if isinstance(value, Declared)})
            for s in settings]


def _fits(setting: Setting, value) -> bool:
    """None where the default is None, or a value of the declared type within
    the choices. An int passes where a float is declared; a bool passes only
    as a bool."""
    if value is None:
        return setting.default is None
    if isinstance(value, bool) != (setting.type is bool):
        return False
    kinds = (int, float) if setting.type is float else setting.type
    return isinstance(value, kinds) and (setting.choices is None or value in setting.choices)


def _resolve(args) -> dict:
    """The full config of args.command: the given flags over the table's
    defaults, or the values of a replayed manifest, each checked against the
    table. args holds only the flags given, so a replay refuses any flag but
    --out instead of dropping it."""
    settings = _settings(args.command)
    given = vars(args)
    if "from_manifest" not in given:
        return {s.name: given.get(s.name, s.default) for s in settings}
    dropped = ["--" + name.replace("_", "-") for name in given
               if name not in ("command", "from_manifest", "out")]
    if dropped:
        raise ValidationError(
            f"{', '.join(dropped)} cannot be combined with --from-manifest, "
            "which replays every setting but --out"
        )
    manifest = read_manifest(args.from_manifest)
    if manifest["command"] != args.command:
        raise ValidationError(f"manifest is for {manifest['command']!r}, not {args.command!r}")
    config, cfg = manifest["config"], {}
    for s in settings:
        if s.name not in config:
            raise ValidationError(f"manifest {args.from_manifest}: config lacks {s.name!r}")
        if not _fits(s, config[s.name]):
            expected = s.choices or s.type.__name__
            raise ValidationError(
                f"manifest config {s.name!r}: bad value {config[s.name]!r}, expected {expected}"
            )
        cfg[s.name] = config[s.name]
    if "out" in given:
        cfg["out"] = str(args.out)
    return cfg


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which declares its flags when it first parses,
    so a run declares only the flags of the subcommand it runs."""

    def __init__(self, *args, command: str, **kwargs):
        # no defaults: the namespace holds only the flags given, and
        # _resolve fills in the table's defaults
        super().__init__(*args, argument_default=argparse.SUPPRESS, **kwargs)
        self.command, self.declared = command, False

    def parse_known_args(self, args=None, namespace=None):
        if not self.declared:
            self.declared = True
            for s in _settings(self.command):
                flag = "--" + s.name.replace("_", "-")
                if s.type is bool:
                    self.add_argument(flag, action="store_true", help=s.help)
                else:
                    self.add_argument(flag, type=s.type, choices=s.choices, help=s.help)
            self.add_argument("--from-manifest", help="replay a previous run's manifest")
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sogtok", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (_, help_text, *_) in COMMANDS.items():
        sub.add_parser(command, help=help_text, command=command)
    return parser


def _read_input(path) -> bytes:
    """An input file's bytes, read in 1 MiB chunks. The chunks are for speed:
    freeing the last, empty 1 MiB read raises glibc malloc's mmap threshold
    to 1 MiB, so a stage's NumPy temporaries under 1 MiB reuse heap pages
    instead of faulting in a new mapping each (pipeline-2k `stats`: 7.6k
    minor page faults against 16.8k with one read of the whole file)."""
    with open(path, "rb") as fh:
        return b"".join(iter(lambda: fh.read(1 << 20), b""))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, _, required, _ = COMMANDS[args.command]
    made_out = False
    try:
        cfg = _resolve(args)
        for key in ("out", *required):
            if cfg[key] is None:
                raise ValidationError(f"--{key.replace('_', '-')} is required")
        for key in ("seed", "anchor_seed"):  # NumPy generators take no negative seed
            if cfg.get(key) is not None and cfg[key] < 0:
                raise ValidationError(f"--{key.replace('_', '-')} must be >= 0, got {cfg[key]}")
        # each input file is read once, here: its checksum is of the bytes the stage reads
        inputs = {name: _read_input(cfg[name])
                  for name in sorted(INPUT_SETTINGS) if cfg.get(name) is not None}
        manifest = build_manifest(args.command, cfg, cfg.get("seed"), inputs)
        out = Path(cfg["out"])
        made_out = not out.exists()
        out.mkdir(parents=True, exist_ok=True)
        handler(cfg, manifest, inputs)
        write_manifest(manifest, out / "manifest.json")
        return 0
    except NumericalError as exc:
        code, message = 3, str(exc)
    except OSError as exc:
        code, message = 1, str(exc)
    except (ValidationError, SogtokError) as exc:
        code, message = 2, str(exc)
    if made_out:
        with contextlib.suppress(OSError):
            out.rmdir()  # removes the directory this run made only while it is empty
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
