"""Haar-random unitary sampling and closed-form one- and two-copy twirls.

Sampling uses a counter-based PRNG (Philox) keyed by (seed, stream), so
independent streams can be drawn without coordination and the sequence for a
given ``SamplerConfig`` and dimension is bit-for-bit reproducible.  The
dimension is not part of the key: it enters where unitaries are drawn, from
the battery or spectral decomposition of the run.  Monte-Carlo pairs come
in chunks of ``chunk_size(d)``, and chunk c starts its own sequence at
Philox counter (0, 0, c, 0) (Salmon et al., SC'11), so any chunk is drawn
without drawing the ones before it; chunk 0 is the unaddressed sequence.

Each unitary is the Q factor of a complex Ginibre matrix Z = A + iB, whose
real parts A are drawn for the whole batch first and the imaginary parts B
after them.  Q is Haar-distributed, and unique, when the triangular factor
R = Q^dag Z has a real, positive diagonal (Mezzadri, math-ph/0609050); plain
QR alone is not Haar.  Q is computed by classical Gram-Schmidt with one
reorthogonalization (CGS2) over the columns, vectorised across the batch on
real and imaginary planes laid out batch-last.  Its R diagonal is a column
norm, positive by construction, so no phase fix is needed, and Q agrees
with LAPACK QR plus that phase fix up to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import StateLike, _check_dimension, partial_trace, purity, sector_lengths, swap_operator

__all__ = [
    "SamplerConfig",
    "HaarSampler",
    "chunk_size",
    "pair_chunk",
    "twirl1",
    "twirl2",
    "two_copy_local_twirl_probe",
]

#: Pairs per Monte-Carlo chunk at d <= 4 (``chunk_size`` shrinks it above).
#: Every Monte-Carlo estimate, verify's checks included, draws through
#: ``pair_chunk``, so (seed, stream), d and n fix the draws.
DEFAULT_CHUNK = 4096


def _check_u64(value: int, name: str) -> None:
    """Refuse a ``name`` (a Philox key word: seed or stream) that is no integer in [0, 2^64), a bool, float or str too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a non-negative 64-bit integer, got {value!r}")


@dataclass(frozen=True)
class SamplerConfig:
    """Addressable random stream: the Philox key (seed, stream), which with d and the draw sizes fixes the samples."""

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        _check_u64(self.seed, "seed")
        _check_u64(self.stream, "stream index")


class HaarSampler:
    """Stateful Haar sampler over U(d) for one (seed, stream) key, from the start of chunk ``chunk``."""

    def __init__(self, cfg: SamplerConfig, d: int, chunk: int = 0):
        _check_dimension(d)
        self.d = d
        # A uint64 array: numpy reads a list holding a word >= 2^63 through float64 and rounds the key.
        key = np.array([cfg.seed, cfg.stream], dtype=np.uint64)
        self._rng = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, chunk, 0]))

    def unitaries(self, n: int) -> np.ndarray:
        """Draw a batch of n Haar-random unitaries, shape (n, d, d)."""
        d = self.d
        a = self._rng.standard_normal((n, d, d))
        b = self._rng.standard_normal((n, d, d))
        return _gram_schmidt(a, b)


def _gram_schmidt(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Q of Z = a + ib, batch of shape (n, d, d), with R = Q^dag Z positive on its diagonal.

    Works on real and imaginary planes indexed [column, row, sample], so every
    numpy call runs on contiguous length-n rows.  Each column is projected off
    the earlier ones twice (the second pass restores orthogonality to rounding
    level) and then normalized.
    """
    n, d, _ = a.shape
    qr = np.ascontiguousarray(a.transpose(2, 1, 0))
    qi = np.ascontiguousarray(b.transpose(2, 1, 0))
    for j in range(d):
        vr, vi, pr, pi = qr[j], qi[j], qr[:j], qi[:j]
        for _ in range(2 if j else 0):  # c = P^dag v, then v -= P c, on real planes
            cr = np.einsum("jrn,rn->jn", pr, vr) + np.einsum("jrn,rn->jn", pi, vi)
            ci = np.einsum("jrn,rn->jn", pr, vi) - np.einsum("jrn,rn->jn", pi, vr)
            vr -= np.einsum("jrn,jn->rn", pr, cr) - np.einsum("jrn,jn->rn", pi, ci)
            vi -= np.einsum("jrn,jn->rn", pr, ci) + np.einsum("jrn,jn->rn", pi, cr)
        scale = 1.0 / np.sqrt(np.einsum("rn,rn->n", vr, vr) + np.einsum("rn,rn->n", vi, vi))
        vr *= scale
        vi *= scale
    q = np.empty((n, d, d), dtype=np.complex128)
    q.real = qr.transpose(2, 1, 0)
    q.imag = qi.transpose(2, 1, 0)
    return q


def chunk_size(d: int) -> int:
    """Pairs per Monte-Carlo chunk, min(DEFAULT_CHUNK, 2^16 / d^2): a chunk's two unitary stacks hold 2 MiB at most."""
    return min(DEFAULT_CHUNK, 2**16 // d**2)


def pair_chunk(cfg: SamplerConfig, d: int, c: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Chunk c of the pairs of ``cfg`` over U(d): k side-A unitaries, then k side-B ones, from the sampler at chunk c."""
    sampler = HaarSampler(cfg, d, chunk=c)
    ua = sampler.unitaries(k)
    return ua, sampler.unitaries(k)


def twirl1(x: np.ndarray) -> np.ndarray:
    """Average of U X U^dag over Haar U: (tr X / D) * identity."""
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    dim = x.shape[0]
    return (np.trace(x) / dim) * np.eye(dim, dtype=np.complex128)


def twirl2(x: np.ndarray) -> np.ndarray:
    """Average of U^(x)2 X (U^dag)^(x)2 over Haar U on a doubled space.

    The input lives on D^2 dimensions (two copies of a D-dimensional
    system); the result is a combination of the identity and the SWAP:

        (1/(D^2-1)) { [tr X - tr(S X)/D] 1 + [tr(S X) - tr X/D] S }.
    """
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {x.shape}")
    dim2 = x.shape[0]
    dim = int(round(np.sqrt(dim2)))
    if dim * dim != dim2:
        raise ValueError(f"matrix dimension {dim2} is not a perfect square")
    s = swap_operator(dim)
    trx = np.trace(x)
    trsx = np.trace(s @ x)
    coeff_id = trx - trsx / dim
    coeff_s = trsx - trx / dim
    return (coeff_id * np.eye(dim2, dtype=np.complex128) + coeff_s * s) / (dim2 - 1)


def two_copy_local_twirl_probe(rho: StateLike, d: int, p: np.ndarray) -> float:
    """tr[(P (x) P) T] for a Hermitian d^2 x d^2 probe P, in O(d^4), T the two-copy local twirl of rho.

    T, rho^(x)2 averaged over local unitary pairs on (A, B, A', B'), is
    (1 + (rA^2 G_A + rB^2 G_B + t^2 G_A G_B / D) / D) / d^4 with G = d S - 1
    for each side's two-copy SWAP S and D = d^2 - 1.  P (x) P reads
    (tr P)^2, tr[(tr_B P)^2], tr[(tr_A P)^2] and tr[P^2] on the span
    {1, S_A, S_B, S_A S_B}, so the d^4 x d^4 matrix is never formed.
    """
    r_a2, r_b2, t2 = sector_lengths(rho, d)
    one = np.trace(p).real ** 2
    s_a, s_b = purity(partial_trace(p, "A", d)), purity(partial_trace(p, "B", d))
    ga, gb = d * s_a - one, d * s_b - one
    gab = d * d * purity(p) - d * (s_a + s_b) + one
    dd = d * d - 1
    return (one + (r_a2 * ga + r_b2 * gb + t2 * gab / dd) / dd) / d**4
