"""Quantized graph autoencoder: GCN encoder, codebook lookup, linear
decoder, three-term loss, analytic backward pass, and Adam.

All arrays are float64. The quantized rows are exact (bitwise) copies of
codebook entries; gradients follow the stop-gradient convention: the
reconstruction gradient reaches the encoder straight through the
quantization, the codebook learns only from the update term, and the
commitment term pulls encoder outputs toward their entries.

The encoder, forward and backward passes take one graph ((m, m) adjacency,
(m, d_s) features) or a stack of graphs with the same node count ((b, m, m),
(b, m, d_s)); a stack's results carry the same leading axis b. Each slice of
a stacked result has the bytes of the same call on that graph alone: the
products run per slice and every sum runs within one graph.

A forward pass computes only what backward() reads: its state's loss is
computed on first read, so a pass that only differentiates never computes
it. backward() reads the products Anorm . X and Anorm . relu(z1) that the
encoder formed, the same expressions in the same association, instead of
forming them again.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .attributes import ImportanceStrategy
from .errors import CheckpointError, DimensionMismatch, ValidationError
from .manifest import atomic_write

CHECKPOINT_MAGIC = b"SOGTOK1"
CHECKPOINT_VERSION = 1
CHECKPOINT_DIMS = ("d_s", "d_h", "d", "d_r", "K")


@dataclass
class EncoderParams:
    w1: np.ndarray  # d_s x d_h
    w2: np.ndarray  # d_h x d

    @property
    def d_s(self) -> int:
        return self.w1.shape[0]

    @property
    def d_h(self) -> int:
        return self.w1.shape[1]

    @property
    def d(self) -> int:
        return self.w2.shape[1]


@dataclass
class DecoderParams:
    wd: np.ndarray  # d x d_r

    @property
    def d_r(self) -> int:
        return self.wd.shape[1]


@dataclass
class Codebook:
    entries: np.ndarray  # K x d

    def __post_init__(self):
        if self.entries.ndim != 2 or self.entries.shape[0] < 2:
            raise ValidationError("codebook needs at least 2 entries")
        if not np.isfinite(self.entries).all():
            raise ValidationError("codebook entries must be finite")

    @property
    def k(self) -> int:
        return self.entries.shape[0]

    @property
    def d(self) -> int:
        return self.entries.shape[1]


@dataclass(frozen=True)
class QuantizedSelection:
    indices: np.ndarray  # (n,), or one per latent row of a stack
    quantized: np.ndarray  # n x d, rows are codebook entries

    def part(self, start: int, shape: tuple[int, ...]) -> QuantizedSelection:
        """The selection of the latent rows of shape `shape` that begin at row
        start of this flat selection: views, shaped like those rows."""
        stop = start + math.prod(shape[:-1])
        return QuantizedSelection(
            self.indices[start:stop].reshape(shape[:-1]), self.quantized[start:stop].reshape(shape)
        )


@dataclass(frozen=True)
class LossBreakdown:
    """Loss of one graph, or of each graph of a stack (arrays of length b)."""

    reconstruction: float | np.ndarray
    update: float | np.ndarray
    commitment: float | np.ndarray
    beta: float

    @property
    def total(self) -> float:
        return self.reconstruction + self.update + self.beta * self.commitment


def _transposed(a: np.ndarray) -> np.ndarray:
    """The matrix transpose of a graph's array, or of each one in a stack."""
    return np.swapaxes(a, -1, -2)


def normalized_adjacency(a: np.ndarray) -> np.ndarray:
    """Symmetric GCN propagation matrix D^{-1/2} (A + I) D^{-1/2}, of one
    (n, n) adjacency or of each in a (B, n, n) stack."""
    a_hat = a + np.eye(a.shape[-1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=-1))
    return a_hat * inv_sqrt[..., :, None] * inv_sqrt[..., None, :]


def encode(
    anorm: np.ndarray, x: np.ndarray, enc: EncoderParams
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Two-layer GCN h = Anorm . relu(Anorm . X . W1) . W2 (Kipf & Welling),
    of one graph or of each graph of a stack. Returns h and the products
    that backward() reads: Anorm . X, the pre-activation z1 = Anorm . X . W1
    and Anorm . relu(z1)."""
    if x.shape[-2] != anorm.shape[-1]:
        raise DimensionMismatch(
            f"feature rows {x.shape[-2]} != adjacency size {anorm.shape[-1]}"
        )
    if x.shape[-1] != enc.d_s:
        raise DimensionMismatch(f"feature dim {x.shape[-1]} != encoder d_s {enc.d_s}")
    ax = anorm @ x
    z1 = ax @ enc.w1
    s2 = anorm @ np.maximum(z1, 0.0)
    return s2 @ enc.w2, (ax, z1, s2)


def nearest(rows: np.ndarray, entries: np.ndarray, chunk: int = 256) -> np.ndarray:
    """Index of each row's nearest entry by Euclidean distance, lowest index
    winning ties: the argmin of ((b - c) ** 2).sum() for each row b.

    Each row chunk is ranked by one product, ‖c‖² − 2·b·cᵀ: the exact L2
    decomposition of Faiss without ‖b‖², which is the same for every column
    of a row. A row whose best and second-best values differ by more than a
    rounding bound keeps that best column. The other rows of a chunk (ties,
    near-ties) take the broadcast expression together, over each row's
    candidate columns, those within the bound of its best value; a row whose
    values may not be finite takes it over all columns. So the result equals
    the broadcast argmin, and memory is a few chunk x K arrays plus K x d
    floats."""
    n, d = rows.shape
    indices = np.empty(n, dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        entry_sq = np.einsum("ij,ij->i", entries, entries)
        neg2_entries_t = (entries * -2.0).T  # exact: a power of two
    # Why a settled row's best ranked column is the broadcast argmin
    # (Higham's rounding model, u = eps/2, S = ‖b‖² + ‖c‖² ≥ ‖b − c‖²/2 and
    # S ≥ 2|b·c|):
    # * broadcast: d rounded squares of rounded differences, summed in any
    #   order, lie within γ_{d+2}·‖b − c‖² ≤ (d+2)·eps·S of the true distance;
    # * ranked value ‖c‖² − 2·b·c = ‖b − c‖² − ‖b‖²: ‖c‖² and b·(−2c) lie
    #   within γ_d·‖c‖² and γ_d·S in any order, FMA or not (the factor −2 is
    #   exact), and the one addition adds u·2S, so it lies within (d+2)·eps·S
    #   of its true value. ‖b‖² is the same for every column of a row, so
    #   differences of ranked values are differences of true distances.
    # With M = ‖b‖² + maxⱼ‖cⱼ‖² ≥ S, a computed gap above twice the sum of
    # both bounds, 4(d+2)·eps·M, leaves the best column the unique minimum of
    # the broadcast distances too. tol = 8(d+2)·eps·M is twice that again. The
    # tiny term covers underflow, where relative bounds fail; rows whose 4M
    # overflows (so a distance could) or whose gap is NaN are not settled.
    # The same bound between the best and any other column j: a ranked value
    # more than tol above the best gives j a strictly larger broadcast
    # distance than the best column, so j is neither the argmin nor a tie.
    eps, tiny = np.finfo(np.float64).eps, np.finfo(np.float64).tiny
    max_entry_sq = entry_sq.max(initial=0.0)
    for start in range(0, n, chunk):
        block = rows[start : start + chunk]
        # non-finite values only send rows to the fallback, which warns as before
        with np.errstate(over="ignore", invalid="ignore"):
            row_sq = np.einsum("ij,ij->i", block, block)
            ranked = block @ neg2_entries_t
            ranked += entry_sq
            at = np.arange(len(block))
            best = ranked.argmin(axis=1)
            lowest = ranked[at, best]
            ranked[at, best] = np.inf
            gap = ranked[at, ranked.argmin(axis=1)] - lowest
            ranked[at, best] = lowest
            scale = row_sq + max_entry_sq
            tol = 8 * (d + 2) * (eps * scale + tiny)
            finite = np.isfinite(4.0 * scale)
            unsettled = np.flatnonzero(~((gap > tol) & finite))
            candidate = ranked[unsettled] - lowest[unsettled, None] <= tol[unsettled, None]
            candidate[~finite[unsettled]] = True
        indices[start : start + len(block)] = best
        if len(unsettled):
            # the broadcast distance of every (row, candidate) pair, in pieces
            # of at most one chunk's worth of floats; other columns stay inf,
            # so argmin picks the lowest candidate index among equals
            d2 = np.full(candidate.shape, np.inf)
            r, c = np.nonzero(candidate)
            step = max(1, ranked.size // max(d, 1))
            for s in range(0, len(r), step):
                rs, cs = r[s : s + step], c[s : s + step]
                d2[rs, cs] = ((block[unsettled[rs]] - entries[cs]) ** 2).sum(axis=1)
            indices[start + unsettled] = d2.argmin(axis=1)
    return indices


def quantize(h: np.ndarray, cb: Codebook) -> QuantizedSelection:
    """Per-row nearest codebook entry; quantized rows are exact copies (the
    fancy read makes a new array)."""
    if h.shape[1] != cb.d:
        raise DimensionMismatch(f"latent dim {h.shape[1]} != codebook dim {cb.d}")
    indices = nearest(h, cb.entries)
    return QuantizedSelection(indices=indices, quantized=cb.entries[indices])


def decode_and_reconstruct(
    quantized: np.ndarray, dec: DecoderParams
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed features Xhat = Q . Wd and adjacency Xhat . Xhat^T, of
    one graph or of each graph of a stack."""
    if quantized.shape[-1] != dec.wd.shape[0]:
        raise DimensionMismatch(
            f"quantized dim {quantized.shape[-1]} != decoder input {dec.wd.shape[0]}"
        )
    xhat = quantized @ dec.wd
    return xhat, xhat @ _transposed(xhat)


def compute_loss(
    a_target: np.ndarray,
    a_rec: np.ndarray,
    h: np.ndarray,
    sel: QuantizedSelection | None,
    beta: float,
) -> LossBreakdown:
    """Three-term loss of one graph, or of each graph of a stack; sel=None
    (warm-up) zeroes the quantization terms."""
    if a_target.shape != a_rec.shape:
        raise DimensionMismatch("adjacency shapes differ")
    recon = ((a_target - a_rec) ** 2).sum(axis=(-2, -1))
    # update and commitment share the forward value; their gradients differ
    gap = 0.0 if sel is None else ((h - sel.quantized) ** 2).sum(axis=(-2, -1))
    return LossBreakdown(reconstruction=recon, update=gap, commitment=gap, beta=beta)


@dataclass
class ForwardState:
    """Everything backward() needs, captured during the forward pass, and the
    loss, computed on first read."""

    a_target: np.ndarray
    anorm: np.ndarray
    ax: np.ndarray  # Anorm . X
    z1: np.ndarray  # pre-activation of the first layer
    s2: np.ndarray  # Anorm . relu(z1)
    h: np.ndarray
    sel: QuantizedSelection | None  # None during warm-up (no quantization)
    xhat: np.ndarray
    a_rec: np.ndarray
    beta: float

    @cached_property
    def loss(self) -> LossBreakdown:
        return compute_loss(self.a_target, self.a_rec, self.h, self.sel, self.beta)


@dataclass
class Gradients:
    """Gradients of one graph, or of each graph of a stack (leading axis b)."""

    w1: np.ndarray
    w2: np.ndarray
    wd: np.ndarray
    # The codebook learns only from the update term: each latent row adds
    # 2 (q - h) to the gradient of the entry it selected. Both are None when
    # no row was quantized (warm-up).
    entry_rows: np.ndarray | None  # 2 (q - h), shaped like h
    indices: np.ndarray | None  # each row's entry, shaped like h without its last axis


def forward(
    a_target: np.ndarray,
    anorm: np.ndarray,
    x: np.ndarray,
    enc: EncoderParams,
    dec: DecoderParams,
    cb: Codebook | None,
    beta: float,
    encoded: tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
    sel: QuantizedSelection | None = None,
) -> ForwardState:
    """Full pass on anorm = normalized_adjacency(a_target), of one graph or of
    a stack. With cb=None (warm-up pretraining) the decoder reads h itself and
    the quantization terms are zero. A caller that searched the rows of
    several stacks at once passes each stack's encode() result as encoded and
    its part of that search as sel, so the pass neither encodes nor searches
    again."""
    h, products = encode(anorm, x, enc) if encoded is None else encoded
    if sel is None and cb is not None:
        sel = quantize(h.reshape(-1, h.shape[-1]), cb).part(0, h.shape)
    xhat, a_rec = decode_and_reconstruct(h if sel is None else sel.quantized, dec)
    return ForwardState(a_target, anorm, *products, h, sel, xhat, a_rec, beta)


def backward(
    state: ForwardState,
    enc: EncoderParams,
    dec: DecoderParams,
    cb: Codebook | None,
) -> Gradients:
    """Analytic gradients of the three-term loss for one forward state, of one
    graph or of each graph of a stack."""
    beta = state.beta
    diff = state.a_rec - state.a_target
    dxhat = 4.0 * diff @ state.xhat

    if state.sel is None:
        # warm-up: plain autoencoder, decoder reads h directly
        dwd = _transposed(state.h) @ dxhat
        dh = dxhat @ dec.wd.T
        entry_rows = indices = None
    else:
        dwd = _transposed(state.sel.quantized) @ dxhat
        dq_recon = dxhat @ dec.wd.T
        # straight-through: the reconstruction gradient at q passes to h
        dh = 2.0 * beta * (state.h - state.sel.quantized) + dq_recon
        entry_rows, indices = 2.0 * (state.sel.quantized - state.h), state.sel.indices

    dw2 = _transposed(state.s2) @ dh
    dz2 = (state.anorm @ dh) @ enc.w2.T
    dz1 = dz2 * (state.z1 > 0.0)
    dw1 = _transposed(state.ax) @ dz1
    return Gradients(w1=dw1, w2=dw2, wd=dwd, entry_rows=entry_rows, indices=indices)


class Adam:
    """Bias-corrected Adam with one learning rate per parameter group."""

    def __init__(self, lrs: dict[str, float], b1: float = 0.9, b2: float = 0.999, eps: float = 1e-8):
        self.lrs = dict(lrs)
        self.b1 = b1
        self.b2 = b2
        self.eps = eps
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        """Update parameter arrays, and the moments, in place:
        m = b1·m + (1 − b1)·g, v = b2·v + (1 − b2)·g·g and
        p −= lr·(m / c1) / (√(v / c2) + eps), each operation in that order."""
        self.t += 1
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for name, p in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(p)
                self.v[name] = np.zeros_like(p)
            m, v = self.m[name], self.v[name]
            scratch = np.multiply(g, 1.0 - self.b1)
            m *= self.b1
            m += scratch
            np.multiply(g, 1.0 - self.b2, out=scratch)
            scratch *= g
            v *= self.b2
            v += scratch
            np.divide(m, c1, out=scratch)
            scratch *= self.lrs[name]
            denom = v / c2
            np.sqrt(denom, out=denom)
            denom += self.eps
            scratch /= denom
            p -= scratch


@dataclass
class TokenizerModel:
    """Frozen bundle of everything needed to map a graph to its token."""

    enc: EncoderParams
    dec: DecoderParams
    codebook: Codebook
    beta: float
    strategy: ImportanceStrategy
    seed: int
    manifest: dict = field(default_factory=dict)

    @property
    def d_s(self) -> int:
        return self.enc.d_s

    @property
    def k(self) -> int:
        return self.codebook.k


def init_params(
    d_s: int, d_h: int, d: int, d_r: int, rng: np.random.Generator
) -> tuple[EncoderParams, DecoderParams]:
    """Glorot-style scaled Gaussian initialization."""
    w1 = rng.normal(0.0, np.sqrt(2.0 / (d_s + d_h)), size=(d_s, d_h))
    w2 = rng.normal(0.0, np.sqrt(2.0 / (d_h + d)), size=(d_h, d))
    wd = rng.normal(0.0, np.sqrt(2.0 / (d + d_r)), size=(d, d_r))
    return EncoderParams(w1=w1, w2=w2), DecoderParams(wd=wd)


def save_checkpoint(model: TokenizerModel, path) -> None:
    """Write the checkpoint atomically: an interrupted write never leaves a
    partial checkpoint."""
    header = {
        "version": CHECKPOINT_VERSION,
        "d_s": model.enc.d_s,
        "d_h": model.enc.d_h,
        "d": model.enc.d,
        "d_r": model.dec.d_r,
        "K": model.codebook.k,
        "beta": model.beta,
        "strategy": {"kind": model.strategy.kind, "seed": model.strategy.seed},
        "seed": model.seed,
        "manifest": model.manifest,
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with atomic_write(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in (model.enc.w1, model.enc.w2, model.dec.wd, model.codebook.entries):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_header(fh) -> dict:
    """Magic, length field and JSON header; CheckpointError on any defect."""
    magic = fh.read(len(CHECKPOINT_MAGIC))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {magic!r}; not a tokenizer checkpoint")
    length = fh.read(4)
    hlen = struct.unpack("<I", length)[0] if len(length) == 4 else 0
    blob = fh.read(hlen)
    if len(length) != 4 or len(blob) != hlen:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("checkpoint header is not a JSON object")
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')}")
    missing = [key for key in (*CHECKPOINT_DIMS, "beta", "strategy", "seed") if key not in header]
    if missing:
        raise CheckpointError(f"checkpoint header lacks {', '.join(missing)}")
    if not all(type(header[key]) is int and header[key] > 0 for key in CHECKPOINT_DIMS):
        raise CheckpointError("checkpoint dimensions must be positive integers")
    strategy = header["strategy"]
    if not isinstance(strategy, dict) or not {"kind", "seed"} <= strategy.keys():
        raise CheckpointError("checkpoint strategy needs 'kind' and 'seed'")
    return header


def load_checkpoint(path) -> TokenizerModel:
    with open(path, "rb") as fh:
        header = _read_header(fh)
        d_s, d_h, d, d_r, k = (header[key] for key in CHECKPOINT_DIMS)

        def read_block(rows: int, cols: int) -> np.ndarray:
            raw = fh.read(rows * cols * 8)
            if len(raw) != rows * cols * 8:
                raise CheckpointError("truncated checkpoint")
            return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()

        w1 = read_block(d_s, d_h)
        w2 = read_block(d_h, d)
        wd = read_block(d, d_r)
        entries = read_block(k, d)
    strategy = ImportanceStrategy(
        kind=header["strategy"]["kind"], seed=header["strategy"]["seed"]
    )
    return TokenizerModel(
        enc=EncoderParams(w1=w1, w2=w2),
        dec=DecoderParams(wd=wd),
        codebook=Codebook(entries=entries),
        beta=header["beta"],
        strategy=strategy,
        seed=header["seed"],
        manifest=header.get("manifest", {}),
    )
