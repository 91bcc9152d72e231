"""CP and single-mode Tucker decompositions of individual order-3 filters.

A filter is a (channels x k1 x k2) tensor. Two decompositions are offered:

* CP of rank R: a sum of R rank-one tensors, each an outer product of a
  spectral vector (length channels), a vertical tap vector (k1) and a
  horizontal tap vector (k2). Computed by alternating least squares, with
  every restart of one filter stacked into a single sweep loop; the
  spatial tap columns are normalized to unit length with all scale pulled
  into the spectral columns, so the spectral side unambiguously owns scale.

* Tucker over the channel mode only, rank R: a core tensor (R x k1 x k2)
  times an orthonormal channel factor (channels x R). Because only one mode
  is compressed this is exactly the truncated SVD of the mode-0 unfolding,
  which is already optimal for that mode; no iteration exists or is needed.

``decompose_bank`` applies either one filter-by-filter across a 4-way
weight bank and reads/writes the ``DCP1`` container documented below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._io import Writer, reading
from ._settings import SEED, check_settings, setting
from .errors import FormatError, ShapeError
from .linalg import lstsq_gram, svd
from .tensor import as_tensor, frobenius_norm, khatri_rao, mode_product, unfold

__all__ = [
    "CP",
    "TUCKER",
    "CpOptions",
    "CpDecomp",
    "Tucker1Decomp",
    "cp_decompose",
    "cp_reconstruct",
    "tucker1_decompose",
    "tucker1_reconstruct",
    "decompose_bank",
    "save_decomps",
    "load_decomps",
    "DCP_MAGIC",
]

CP = "cp"
TUCKER = "tucker"
DCP_MAGIC = b"DCP1"
_KIND_TAGS = {CP: 0, TUCKER: 1}
_TAG_KINDS = {v: k for k, v in _KIND_TAGS.items()}


@dataclass(frozen=True)
class CpOptions:
    """Stopping and restart policy for the alternating least squares loop."""

    # stop when the relative error changes less than this per sweep
    tol: float = setting(1e-9, (">=", 0))
    max_iters: int = setting(500, (">=", 1))
    # random restarts tried in addition to the deterministic init
    restarts: int = setting(4, (">=", 0))
    seed: int = setting(0, SEED)

    def __post_init__(self):
        check_settings(self)


@dataclass
class CpDecomp:
    """Rank-R CP factors of one filter.

    ``x`` and ``y`` columns are unit-norm; ``spectral`` columns carry all
    scale. ``sweep_errors`` records the relative error after each ALS sweep
    of the winning run (monotonically non-increasing). ``rank`` and
    ``degenerate`` are read from the factors.
    """

    spectral: np.ndarray  # (channels, R)
    x: np.ndarray         # (k1, R)
    y: np.ndarray         # (k2, R)
    relative_error: float
    sweep_errors: list = field(default_factory=list)

    @property
    def rank(self) -> int:
        return self.spectral.shape[1]

    @property
    def degenerate(self) -> bool:
        """A zero filter's fit: no spectral entry is nonzero."""
        return not self.spectral.any()

    def reconstruct(self) -> np.ndarray:
        return cp_reconstruct(self)


@dataclass
class Tucker1Decomp:
    """Channel-mode Tucker factors of one filter: core (R, k1, k2), spectral (channels, R)."""

    core: np.ndarray
    spectral: np.ndarray
    relative_error: float

    @property
    def rank(self) -> int:
        return self.spectral.shape[1]

    @property
    def degenerate(self) -> bool:
        """A zero filter's fit: no core entry is nonzero."""
        return not self.core.any()

    def reconstruct(self) -> np.ndarray:
        return tucker1_reconstruct(self)


def cp_reconstruct(d: CpDecomp) -> np.ndarray:
    """Sum of rank-one terms: out[c, i, j] = sum_r spectral[c, r] x[i, r] y[j, r]."""
    return np.einsum("cr,ir,jr->cij", d.spectral, d.x, d.y)


def tucker1_reconstruct(d: Tucker1Decomp) -> np.ndarray:
    """Channel-mode product of the core with the spectral factor."""
    return mode_product(d.core, d.spectral, 0)


def _unit_basis_columns(length: int, rank: int) -> np.ndarray:
    cols = np.zeros((length, rank))
    for r in range(rank):
        cols[r % length, r] = 1.0
    return cols


def _solve_factor(unf: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    # Least-squares update of one factor of every run given its other two:
    # the normal equations use the Hadamard product of grams, solved
    # pseudo-inversely so collinear columns cannot crash a sweep.
    kr = khatri_rao(f, g)
    gram = (f.swapaxes(1, 2) @ f) * (g.swapaxes(1, 2) @ g)
    return lstsq_gram(gram, kr.swapaxes(1, 2) @ unf.T).swapaxes(1, 2)


def _pull_scale(factor: np.ndarray, spectral: np.ndarray):
    # Normalize nonzero columns to unit length, pushing the scale into the
    # spectral factor. Zero columns are left alone (their term is zero).
    norms = np.linalg.norm(factor, axis=-2, keepdims=True)
    norms[norms == 0] = 1.0
    return factor / norms, spectral * norms


def _init_factors(unfoldings, rank: int, rng: np.random.Generator, hosvd: bool):
    # Leading left singular vectors of each unfolding (hosvd) or none, padded
    # to ``rank`` columns with standard normal draws.
    factors = []
    for unf in unfoldings:
        f = svd(unf)[0][:, :rank] if hosvd else unf[:, :0]
        factors.append(np.hstack([f, rng.standard_normal((len(unf), rank - f.shape[1]))]))
    return factors


def cp_decompose(filt: np.ndarray, rank: int, opts: CpOptions | None = None,
                 stream: int = 0) -> CpDecomp:
    """Rank-R CP decomposition of an order-3 filter via ALS with restarts.

    Runs once from a deterministic init (leading singular vectors of each
    unfolding) and ``opts.restarts`` more times from seeded random inits,
    keeping the best fit; the first run wins a tie. All runs share one sweep
    loop over stacked factors, and each stops at its own sweep. ``stream``
    separates random streams when many filters share one options object (as
    ``decompose_bank`` does); results depend only on (filter, rank,
    opts.seed, stream).

    A zero filter cannot be fit: the result carries zero spectral columns
    and arbitrary unit spatial columns, so it reads as ``degenerate``.
    """
    filt = as_tensor(filt)
    if filt.ndim != 3:
        raise ShapeError(f"cp_decompose expects an order-3 filter, got order {filt.ndim}")
    if rank < 1:
        raise ShapeError("rank must be >= 1")
    opts = opts or CpOptions()
    runs = opts.restarts + 1
    norm_t = frobenius_norm(filt)
    unfoldings = [unfold(filt, mode) for mode in range(3)]
    inits = [_init_factors(unfoldings, rank, np.random.default_rng([opts.seed, stream, r]), r == 0)
             for r in range(runs)]
    a, b, c = (np.stack(f) for f in zip(*inits))

    errors = np.zeros((opts.max_iters, runs))
    sweeps = np.zeros(runs, dtype=int)
    live = np.arange(runs)
    for it in range(opts.max_iters):
        la = _solve_factor(unfoldings[0], b[live], c[live])
        lb = _solve_factor(unfoldings[1], la, c[live])
        lb, la = _pull_scale(lb, la)
        lc = _solve_factor(unfoldings[2], la, lb)
        lc, la = _pull_scale(lc, la)
        a[live], b[live], c[live] = la, lb, lc
        resid = (filt - np.einsum("ncr,nir,njr->ncij", la, lb, lc)).reshape(len(live), 1, -1)
        # A (1, K) @ (K, 1) product per run sums in the order frobenius_norm
        # does. A zero filter's fit is exact (all factors solve to zero), not 0/0.
        errors[it, live] = np.sqrt(resid @ resid.swapaxes(1, 2)).ravel() / (norm_t or 1.0)
        sweeps[live] += 1
        if it:  # a NaN error never counts as settled
            live = live[~(abs(errors[it - 1, live] - errors[it, live]) < opts.tol)]
        if not live.size:
            break

    best = int(np.argmin(errors[sweeps - 1, np.arange(runs)]))
    sweep_errors = errors[:sweeps[best], best].tolist()
    b, a = _pull_scale(b[best], a[best])
    c, a = _pull_scale(c[best], a)
    # Replace any collapsed spatial column with an arbitrary unit vector;
    # its spectral column is zeroed so the term still contributes nothing.
    for factor, k in ((b, filt.shape[1]), (c, filt.shape[2])):
        dead = np.linalg.norm(factor, axis=0) == 0
        if dead.any():
            a[:, dead] = 0.0
            factor[:, dead] = _unit_basis_columns(k, rank)[:, dead]
    return CpDecomp(spectral=a, x=b, y=c, relative_error=sweep_errors[-1],
                    sweep_errors=sweep_errors)


def tucker1_decompose(filt: np.ndarray, rank: int) -> Tucker1Decomp:
    """Channel-mode Tucker decomposition: truncated SVD of the mode-0 unfolding.

    ``rank`` is clamped to the channel count. The relative error equals the
    root of the discarded singular energy, which is optimal for this mode.
    """
    filt = as_tensor(filt)
    if filt.ndim != 3:
        raise ShapeError(f"tucker1_decompose expects an order-3 filter, got order {filt.ndim}")
    if rank < 1:
        raise ShapeError("rank must be >= 1")
    ch = filt.shape[0]
    r = min(rank, ch)
    u, _, _ = svd(unfold(filt, 0))
    spectral = np.ascontiguousarray(u[:, :r])
    core = mode_product(filt, spectral.T, 0)
    norm_t = frobenius_norm(filt)
    err = frobenius_norm(filt - mode_product(core, spectral, 0)) / (norm_t or 1.0)
    return Tucker1Decomp(core=core, spectral=spectral, relative_error=err)


def decompose_bank(bank, kind: str, rank: int, opts: CpOptions | None = None):
    """Decompose every filter of a (C_out, C_in, k1, k2) bank independently.

    Returns (decomps, errors) with one decomposition and one relative error
    per output channel; results depend only on (bank, kind, rank, opts.seed).
    """
    weights = as_tensor(getattr(bank, "weights", bank))
    if weights.ndim != 4:
        raise ShapeError(f"filter bank must be order 4, got order {weights.ndim}")
    if kind not in _KIND_TAGS:
        raise ShapeError(f"unknown decomposition kind {kind!r}")
    opts = opts or CpOptions()
    if kind == CP:
        decomps = [cp_decompose(w, rank, opts, stream=o) for o, w in enumerate(weights)]
    else:
        decomps = [tucker1_decompose(w, rank) for w in weights]
    errors = np.array([d.relative_error for d in decomps])
    return decomps, errors


# Each kind's blocks in file order: the spectral block, then the frozen
# spatial blocks that ``adapt`` stacks per filter.
_COMPONENTS = {CP: ("spectral", "x", "y"), TUCKER: ("spectral", "core")}


def _component_shapes(kind: str, ch: int, k1: int, k2: int, rank: int):
    if kind == CP:
        return [(ch, rank), (k1, rank), (k2, rank)]
    return [(ch, rank), (rank, k1, k2)]


def _kernel(d) -> tuple[int, int]:
    return (len(d.x), len(d.y)) if isinstance(d, CpDecomp) else d.core.shape[1:]


def _uniform_kind(decomps) -> str:
    # The kind of a non-empty list whose entries share it, their rank and
    # their filter shape; reads shapes only. The first odd entry is named.
    if not decomps:
        raise ShapeError("need at least one per-filter decomposition")
    first = decomps[0]
    kind = CP if isinstance(first, CpDecomp) else TUCKER
    shapes = _component_shapes(kind, len(first.spectral), *_kernel(first), first.rank)
    for o, d in enumerate(decomps):
        got = [np.shape(getattr(d, name, None)) for name in _COMPONENTS[kind]]
        if type(d) is not type(first) or got != shapes:
            raise ShapeError(f"decomposition {o} ({type(d).__name__} {got}) does not match "
                             f"decomposition 0 ({type(first).__name__} {shapes})")
    return kind


def save_decomps(path: str, decomps) -> None:
    """Write per-filter decompositions as a DCP1 file.

    Layout: magic ``b"DCP1"``, u32 kind (0=CP, 1=Tucker), u32 C_out, C_in,
    k1, k2, R, then per filter the components as little-endian float64 in
    row-major order (CP: spectral (C_in x R), x (k1 x R), y (k2 x R);
    Tucker: spectral (C_in x R), core (R x k1 x k2)), then each filter's
    ``relative_error``. Every filter must match the header's kind and shapes.
    """
    kind = _uniform_kind(decomps)
    first = decomps[0]
    w = Writer(DCP_MAGIC)
    w.u32(_KIND_TAGS[kind], len(decomps), len(first.spectral), *_kernel(first), first.rank)
    for d in decomps:
        for name in _COMPONENTS[kind]:
            w.array(getattr(d, name), "<f8")
    w.array([d.relative_error for d in decomps], "<f8")
    w.save(path)


def load_decomps(path: str):
    """Read a DCP1 file; returns (kind, decomps, errors)."""
    with reading(path, DCP_MAGIC) as r:
        tag, c_out, ch, k1, k2, rank = r.u32s(6, "decomposition header")
        if tag not in _TAG_KINDS:
            raise FormatError(f"unknown decomposition kind tag {tag}")
        kind = _TAG_KINDS[tag]
        shapes = _component_shapes(kind, ch, k1, k2, rank)
        sizes = [math.prod(shape) for shape in shapes]
        blob = r.array("<f8", (c_out, sum(sizes)), "filter components")
        errors = r.array("<f8", (c_out,), "errors")

    stacks = [part.reshape((c_out,) + shape) for part, shape in
              zip(np.split(blob, np.cumsum(sizes)[:-1], axis=1), shapes)]
    cls = CpDecomp if kind == CP else Tucker1Decomp
    decomps = [cls(relative_error=float(errors[o]),
                   **{name: stack[o] for name, stack in zip(_COMPONENTS[kind], stacks)})
               for o in range(c_out)]
    return kind, decomps, errors
