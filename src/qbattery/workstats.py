"""Work under random local unitaries: exact values, closed forms, Monte Carlo.

The work of a local unitary pair is W(U_A, U_B) = tr[(rho - rho') H] with
rho' = (U_A (x) U_B) rho (U_A (x) U_B)^dag.  Over Haar-random pairs the mean
is E - tr[H]/d^2 (the average final state is maximally mixed) and the
variance has the closed form

    Var = ( rA^2 ha^2 + rB^2 hb^2 + t^2 g^2 v^2 / (d^2-1) ) / (d^2-1),

so only the sector lengths of the state and the traceless weights of the
Hamiltonian enter.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .battery import BatteryHamiltonian, SpectralDecomposition, spectral_decomposition
from .haar import SamplerConfig, chunk_size, pair_chunk
from .linalg import SPECTRUM_MARGIN, DensityMatrix, StateLike, _check_dimension, _shifted_spectrum, sector_lengths
from .montecarlo import MomentAccumulator

__all__ = [
    "WorkStatistics",
    "WorkHistogram",
    "work",
    "sector_variance",
    "analytic_work_variance",
    "mc_work_statistics",
    "work_sample_summary",
    "MAX_HISTOGRAM_BINS",
]

#: Finest histogram allowed: the counts array spans every bin between the
#: extreme work values, so a bin width needing more bins is refused up front.
MAX_HISTOGRAM_BINS = 10**7


@dataclass(frozen=True)
class WorkStatistics:
    """Mean/variance of work over unitary pairs; analytic results carry n = 0."""

    mean: float
    variance: float
    n_samples: int = 0
    se_mean: float = 0.0
    se_variance: float = 0.0


@dataclass(frozen=True)
class WorkHistogram:
    """Counts of work values in bins of fixed width anchored at zero."""

    bin_width: float
    origin: float
    counts: np.ndarray
    n_samples: int

    def edges(self) -> np.ndarray:
        return self.origin + self.bin_width * np.arange(len(self.counts) + 1)


def _state_data(rho: StateLike, d: int) -> np.ndarray:
    """The validated data of a state of a battery of local dimension d, of dimension d^2: the one intake of a state."""
    m = rho.data if isinstance(rho, DensityMatrix) else DensityMatrix(np.asarray(rho)).data
    if len(m) != d**2:
        raise ValueError(f"state dimension {len(m)} does not match battery d^2 = {d ** 2}")
    return m


def work(rho: StateLike, h: BatteryHamiltonian, ua: np.ndarray, ub: np.ndarray) -> float:
    """Exact work extracted by one local unitary pair."""
    m = _state_data(rho, h.d)
    u = np.kron(ua, ub)
    total = h.total
    return float(np.trace((m - u @ m @ u.conj().T) @ total).real)


def expectation(m: np.ndarray, obs: np.ndarray) -> float:
    """tr[m obs] for Hermitian m and obs, as an elementwise sum (O(D^2), no matrix product)."""
    return float(np.vdot(obs, m).real)


def mean_work(m: np.ndarray, obs: np.ndarray) -> float:
    """tr[m obs] - tr[obs]/D: the Haar-averaged work under a (D, D) obs of validated state data m."""
    return expectation(m, obs) - float(np.trace(obs).real) / len(obs)


def sector_variance(
    r_a2: float, r_b2: float, t2: float, ha2: float, hb2: float, g2v2: float, d: int
) -> float:
    """The Haar work variance of the module docstring from sector lengths and weights.

    Also evaluated at capped (Schmidt-number) or dephased (TPM) sector lengths.
    """
    dd = d * d - 1
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf, which the CLI refuses by name
        return (r_a2 * ha2 + r_b2 * hb2 + t2 * g2v2 / dd) / dd


def analytic_work_variance(rho: StateLike, h: BatteryHamiltonian) -> WorkStatistics:
    """Closed-form work variance over Haar-random local unitary pairs."""
    m = _state_data(rho, h.d)
    var = sector_variance(*sector_lengths(m, h.d), h.ha2, h.hb2, h.g2v2, h.d)
    return WorkStatistics(mean=mean_work(m, h.total), variance=var)


def pair_kron(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Batched Kronecker product of local unitary stacks."""
    k, d = ua.shape[0], ua.shape[1]
    return np.einsum("nab,ncd->nacbd", ua, ub).reshape(k, d * d, d * d)


def conjugation_traces(u: np.ndarray, m: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Batched tr[U m U^dag obs], one einsum per obs (one gives (k,), a stack (G, D, D) (k, G)): the kernels' reference."""
    c = u @ m @ u.conj().transpose(0, 2, 1)
    traces = np.stack([np.einsum("nij,ji->n", c, o).real for o in np.reshape(obs, (-1,) + c.shape[1:])], axis=-1)
    return traces if np.ndim(obs) == 3 else traces[:, 0]


def _cpus() -> int:
    """CPUs this process may run on (``os.cpu_count`` where there is no affinity mask)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(d: int) -> int:
    """Most threads that evaluate chunks at once: every CPU at d <= 8, one above.

    Above d = 8 the per-pair products are big enough for OpenBLAS to thread
    each of them itself; splitting the chunk as well made d = 16 slower.
    """
    return _cpus() if d <= 8 else 1


_pool = threading.local()  # .threads: the size of the iter_samples pool this thread belongs to


def _block(k: int, d: int) -> int:
    """Pairs per block of a per-pair kernel: min(k, 2^18 / d^4 / T), at least one.

    T is the number of threads of the ``iter_samples`` pool that runs the
    kernel, 1 on any other thread, so the (block, d^2, d^2) complex buffers
    of all the threads actually started stay within 4 MiB together, whatever
    the chunk; the chunk alone fixes the draws.
    """
    return min(k, max(1, 2**18 // d**4 // getattr(_pool, "threads", 1)))


def _pair_layout(x: np.ndarray, d: int) -> np.ndarray:
    """Matrices x[(a, b), column], one or a stack, laid out complex as (a, column, b): ``apply_pair``'s layout."""
    return np.ascontiguousarray(np.swapaxes(x.reshape(x.shape[:-2] + (d, d, -1)), -1, -2), dtype=complex)


def apply_pair(ua: np.ndarray, ub: np.ndarray, x: np.ndarray, tmp: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Batched (U_A (x) U_B) x for x given as ``_pair_layout``, one (d, c, d) or one per pair (k, d, c, d).

    Each side is one product per pair: side A is U_A @ x on (a, column b),
    side B a right product by U_B^T on (a' column, b).  A pair costs
    2 d^3 c multiply-adds and U_A (x) U_B is never formed.  At d <= 8 the
    products are small enough that OpenBLAS runs them on the calling thread,
    so each ``iter_samples`` worker keeps to its own CPU.  Side A goes into
    ``tmp`` (not x), the result into ``out`` (may be x), both of k d^2 c
    complex entries.  Returns shape (k, d, c, d), entry
    [n, a', column, b'] = ((U_A (x) U_B) x)[(a', b'), column].  Only
    ``pair_traces`` calls it: the populations kernels work in real coordinates.
    """
    k, d, c = ua.shape[0], ua.shape[1], x.shape[-2]
    t = np.matmul(ua, x.reshape(x.shape[:-3] + (d, c * d)), out=tmp.reshape(k, d, c * d))
    out = np.matmul(t.reshape(k, d * c, d), ub.transpose(0, 2, 1), out=out.reshape(k, d * c, d))
    return out.reshape(k, d, c, d)


def pair_traces(ua: np.ndarray, ub: np.ndarray, m: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """Batched tr[U m U^dag obs], U = U_A (x) U_B, m Hermitian: one obs gives (k,), a stack (G, d^2, d^2) (k, G).

    Per block of ``_block`` pairs, in two buffers reused for every block:
    ``apply_pair`` gives U m, whose conjugate transpose is copied once into
    ``_pair_layout`` order, and a second gives U (U m)^dag = U m U^dag, for
    4 d^5 multiply-adds per pair.  Each obs, laid out once per call as that
    product is, is read as the dot of their float views (Re a conj(b) =
    Re a Re b + Im a Im b): one d^4 product per pair and obs, so a column is
    bitwise its stack of one.  It takes the work of a battery whose
    interaction leaves the local energy eigenbases (``iter_work_values``)
    and verify's two-copy twirl probes.
    """
    k, d = ua.shape[0], ua.shape[1]
    b, dd = _block(k, d), d * d
    f = 2 * dd * dd  # floats per (d^2, d^2) complex matrix
    mx = _pair_layout(m, d)
    ox = _pair_layout(np.reshape(obs, (-1, dd, dd)), d).view(float).reshape(-1, f, 1)
    bufs = [np.empty((b, dd, dd), dtype=complex) for _ in range(2)]
    traces = np.empty((len(ox), k))
    for s in range(0, k, b):
        e = min(s + b, k)
        n = e - s
        p, q = (buf[:n] for buf in bufs)
        um = apply_pair(ua[s:e], ub[s:e], mx, p, q).reshape(n, d, d, d, d)
        np.conjugate(um.transpose(0, 2, 1, 4, 3), out=p.reshape(n, d, d, d, d))
        r = apply_pair(ua[s:e], ub[s:e], p.reshape(n, d, dd, d), q, p).view(float).reshape(n, 1, f)
        for g, o in enumerate(ox):
            np.matmul(r, o, out=traces[g, s:e, None, None])
    return traces.T if np.ndim(obs) == 3 else traces[0]


def _pair_coordinates(x0: np.ndarray, d: int) -> np.ndarray:
    """X[mu, nu] = tr[x0 (G_mu (x) G_nu)] of a Hermitian (d^2, d^2) x0 in an orthogonal Hermitian basis G_mu.

    G_mu is E_aa for mu = a < d, then E_ab + E_ba and i (E_ab - E_ba) for each
    a < b in ``np.triu_indices`` order, so a Hermitian R = sum_mu p_mu G_mu
    has the coordinates p = (R_aa, Re R_ab, Im R_ab).  Since
    tr[x0 (A (x) B)] = sum x0[(a, b), (a', b')] A[a', a] B[b', b] and each
    G_mu has two nonzero entries G_mu[row[s], col[s]] = coef[s] (a diagonal
    unit's second coefficient is 0), X is four gathers of x0: O(d^4).
    """
    a, b = np.triu_indices(d, 1)
    diag, one, off = np.arange(d), np.ones(d), np.ones(len(a))
    row = [np.concatenate([diag, a, a]), np.concatenate([diag, b, b])]
    col = [np.concatenate([diag, b, b]), np.concatenate([diag, a, a])]
    coef = [np.concatenate([one, off, 1j * off]), np.concatenate([0 * one, off, -1j * off])]
    x4 = x0.reshape(d, d, d, d)
    terms = (
        np.outer(coef[s], coef[t]) * x4[col[s][:, None], col[t][None, :], row[s][:, None], row[t][None, :]]
        for s in (0, 1)
        for t in (0, 1)
    )
    return np.ascontiguousarray(sum(terms).real)


def _projector_coordinates(
    re: np.ndarray, im: np.ndarray, upper: tuple[np.ndarray, np.ndarray], out: np.ndarray
) -> np.ndarray:
    """Coordinates in the basis of ``_pair_coordinates`` of the rank-1 projectors R_i = r_i r_i^dag, r_i = (row i of m)^dag.

    m is given by its real and imaginary planes ``re`` and ``im``, and is read
    only.  For rows m of V^dag U, R_i = U^dag |v_i><v_i| U.  With
    R_ab = conj(m_ia) m_ib the coordinates are |m_ia|^2, then
    Re m_ia Re m_ib + Im m_ia Im m_ib and Re m_ia Im m_ib - Im m_ia Re m_ib
    for (a, b) in ``upper``, the ``np.triu_indices`` of offset 1: O(d^3) per
    pair, written into ``out`` of shape (k, d, d^2).  The complex products
    are spelled out in real ufuncs, since numpy's complex multiply fuses
    multiply-adds in its vector loop but not in its tail, which would make a
    pair's bits depend on its place in the stack.
    """
    a, b = upper
    ra, rb, ia, ib = re[..., a], re[..., b], im[..., a], im[..., b]
    real = ra * rb
    real += ia * ib
    ra *= ib
    ia *= rb
    ra -= ia
    return np.concatenate([np.square(re) + np.square(im), real, ra], axis=-1, out=out)


def _real_adjoint(vecs: np.ndarray) -> np.ndarray | None:
    """V^dag in real form for the eigenvector columns V of one half, or None where V is exactly the identity.

    The real form of a complex (d, d) m is [[Re m, -Im m], [Im m, Re m]],
    which maps [Re x; Im x] to [Re mx; Im mx].
    """
    if np.array_equal(vecs, np.eye(len(vecs))):
        return None
    m = vecs.conj().T
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def _rotated_planes(
    w: np.ndarray | None, u: np.ndarray, planes: np.ndarray, out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Re, Im) of V^dag U per pair of a block u (n, d, d), for w = ``_real_adjoint(V)``.

    With P + iQ = V^dag, Re = P Re U - Q Im U and Im = Q Re U + P Im U: one
    real (2d, 2d) @ (2d, d) product per pair, w @ [Re U; Im U], the planes
    stacked into ``planes`` and the product written into ``out``, both
    (n, 2d, d).  That is the 4 d^3 real multiply-adds of the complex
    product, but numpy hands a complex d x d product to zgemm, which took
    about three times as long at d = 4, and 2.5-3.5x longer again when two
    threads called it at once.  With w None (V = 1, as for every diagonal
    local Hamiltonian) V^dag U is U, and its planes are read as they are.
    """
    if w is None:
        return u.real, u.imag
    d = u.shape[1]
    planes[:, :d] = u.real
    planes[:, d:] = u.imag
    np.matmul(w, planes, out=out)
    return out[:, :d], out[:, d:]


def _split_identity(xs: np.ndarray, d: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Per Hermitian x of a stack (G, d^2, d^2): s = tr(x)/d^2 and the ``_pair_coordinates`` X of x - s 1.

    s is the diagonal's first entry plus the mean of its differences from it,
    so x = c 1 gives s = c and X = 0 exactly.
    """
    diag = np.diagonal(xs, axis1=1, axis2=2).real
    shifts = diag[:, 0] + np.mean(diag - diag[:, :1], axis=1)
    eye = np.eye(d * d)
    return shifts, [_pair_coordinates(x - s * eye, d) for x, s in zip(xs, shifts)]


def _projector_blocks(
    ua: np.ndarray, ub: np.ndarray, spec: SpectralDecomposition
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield (s, e, p^A, p^B) per block of ``_block`` pairs: the projector coordinates of pairs s..e.

    p^A[n, i] are the coordinates of U_A^dag |v_i^A><v_i^A| U_A, read from row i
    of V_A^dag U_A, and likewise p^B, both (n, d, d^2).  V^dag U comes from
    ``_rotated_planes``: one real product per pair, none where V is the
    identity.  All buffers are allocated once per chunk; the two halves take
    turns in the planes and product buffers.
    """
    k, d = ua.shape[0], spec.d
    b = _block(k, d)
    upper = np.triu_indices(d, 1)
    wa, wb = _real_adjoint(spec.vecs_a), _real_adjoint(spec.vecs_b)
    pa, pb = (np.empty((b, d, d * d)) for _ in range(2))
    planes, prod = (np.empty((b, 2 * d, d)) for _ in range(2))
    for s in range(0, k, b):
        e = min(s + b, k)
        n = e - s
        coords_a = _projector_coordinates(*_rotated_planes(wa, ua[s:e], planes[:n], prod[:n]), upper, pa[:n])
        coords_b = _projector_coordinates(*_rotated_planes(wb, ub[s:e], planes[:n], prod[:n]), upper, pb[:n])
        yield s, e, coords_a, coords_b


def rotated_populations(
    x: np.ndarray, spec: SpectralDecomposition
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Per-chunk populations q[n, i, j] = <v_i^A v_j^B| U x U^dag |v_i^A v_j^B> of a Hermitian x.

    q_ij = tr[x (R_i^A (x) R_j^B)] with R_i^A = U_A^dag |v_i^A><v_i^A| U_A.  In
    the real coordinates of an orthogonal Hermitian basis this is
    q_ij = s + p_i^A . X . p_j^B (``_split_identity``, ``_projector_blocks``):
    O(d^3) per pair for the coordinates, then two products per pair,
    (d, d^2) @ (d^2, d^2) and @ (d^2, d), for d^5 + d^4 real multiply-adds,
    the same at every rank of x.  Every BLAS call is one product per pair, so
    a pair's value does not depend on the block.  x = c 1 gives q = c exactly.
    """
    (shift,), (xr,) = _split_identity(x[None], spec.d)

    def populations(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        q = np.empty((ua.shape[0], spec.d, spec.d))
        for s, e, pa, pb in _projector_blocks(ua, ub, spec):
            np.matmul(pa @ xr, pb.transpose(0, 2, 1), out=q[s:e])
        q += shift
        return q

    return populations


def rotated_energies(
    xs: np.ndarray, spec: SpectralDecomposition
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Per-chunk tr[U x_g U^dag H_D] = sum_ij e_joint[i, j] q_ij(U; x_g) for a stack of Hermitian x_g, shape (k, G).

    H_D is ``spec.h_diag``.  With q_ij = s + p_i^A . X . p_j^B as in
    ``rotated_populations``, the sum is s sum(e_joint) + <X, W>, where
    W = p^A^T e_joint p^B is formed once per pair (two products,
    d^4 + d^5 real multiply-adds) and shared by every column, which then
    costs one d^4 dot product per pair.  Every column is its own product, so
    it is bitwise what a stack of that x alone gives.
    """
    shifts, coords = _split_identity(xs, spec.d)
    e_sum = float(spec.e_joint.sum())

    def energies(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
        out = np.empty((ua.shape[0], len(coords)))
        for s, e, pa, pb in _projector_blocks(ua, ub, spec):
            w = (pa.transpose(0, 2, 1) @ spec.e_joint @ pb).reshape(e - s, 1, -1)
            for g, (shift, xr) in enumerate(zip(shifts, coords)):
                out[s:e, g] = shift * e_sum + np.matmul(w, xr.reshape(-1, 1))[:, 0, 0]
        return out

    return energies


def _check_samples(n: int) -> None:
    """Refuse an n that is no integer in [3, 2^63 - 1].

    A variance's standard error needs three samples, and the cap keeps every
    chunk index within Philox's 64-bit counter word.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"the number of samples must be an integer, got {n!r}")
    if n < 3:
        raise ValueError(f"need at least three samples, got {n}")
    if n > 2**63 - 1:
        raise ValueError(f"need at most 2^63 - 1 samples, got {n}")


def iter_samples(
    sample: Callable[[np.ndarray, np.ndarray], np.ndarray], d: int, n: int, cfg: SamplerConfig
) -> Iterator[np.ndarray]:
    """The Monte-Carlo loop: yield ``sample(ua, ub)`` per chunk of n Haar pairs, in chunk order.

    Every estimator, verify's twirl probes included, is a per-chunk sample
    function over local unitary stacks whose value for a pair depends on that
    pair alone.  The pairs come in chunks of ``chunk_size(d)``, the last
    holding the remainder, and chunk c is ``pair_chunk(cfg, d, c, k)``, drawn
    from its own place in the stream: (seed, stream), d and n fix the draws and
    the order in which moments are folded, whatever the thread count.  That
    is the reproducibility contract.

    Each chunk is one task, which draws it and applies ``sample`` to it.
    T = min(``_workers(d)``, chunks) threads run the tasks, from one executor
    opened per call, with at most 2T chunks in flight; with T = 1 this thread
    runs them and no thread is started.  A task holds its chunk's unitaries
    (2 MiB) and the kernels' blocks of ``_block`` pairs, so memory is
    bounded by T, not by n.  A ``break`` or an error in any task cancels the
    queued chunks and joins every thread before the caller goes on.
    """
    _check_samples(n)
    _check_dimension(d)
    k = chunk_size(d)
    chunks = range(-(-n // k))
    threads = min(_workers(d), len(chunks))

    def task(c: int) -> np.ndarray:
        return sample(*pair_chunk(cfg, d, c, min(k, n - c * k)))

    if threads == 1:
        yield from map(task, chunks)
        return
    pool = ThreadPoolExecutor(threads, initializer=setattr, initargs=(_pool, "threads", threads))
    try:
        pending = deque(pool.submit(task, c) for c in chunks[: 2 * threads])
        for c in chunks[2 * threads :]:
            yield pending.popleft().result()
            pending.append(pool.submit(task, c))
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def summarize(chunks: Iterable[np.ndarray]) -> list[WorkStatistics]:
    """Fold chunks of sample columns into moments with standard errors, one ``WorkStatistics`` per column.

    A chunk is (k, G): k samples of G columns, read from the same pairs; a
    1-D chunk is one column.  Column g of every chunk is folded, as a
    contiguous copy and in chunk order, into its own accumulator, so its
    moments are bitwise what a run of that column alone gives.
    """
    accs: list[MomentAccumulator] = []
    for values in chunks:
        columns = np.ascontiguousarray(np.reshape(values, (len(values), -1)).T)
        accs = accs or [MomentAccumulator() for _ in columns]
        for acc, column in zip(accs, columns):
            acc.add_chunk(column)
    return [WorkStatistics(acc.mean, acc.variance, acc.n, acc.se_mean, acc.se_variance) for acc in accs]


def iter_work_values(
    rho: StateLike,
    h: BatteryHamiltonian,
    n: int,
    cfg: SamplerConfig,
) -> Iterator[np.ndarray]:
    """Yield chunks of exact work values for n Haar-random unitary pairs.

    A work value is tr[rho H] - tr[U rho U^dag H].  Where the interaction has
    no part off the local energy eigenbases (``v_od`` exactly zero, as for
    the Ising family), H = sum_ij e_joint[i, j] P_i^A (x) P_j^B and the trace
    is read from the rotated populations of rho (``rotated_energies``) at
    d^5 + 2 d^4 real multiply-adds per pair; otherwise ``pair_traces`` takes
    it at 4 d^5 complex ones.
    """
    m = _state_data(rho, h.d)
    total = h.total
    energy = expectation(m, total)
    spec = spectral_decomposition(h)
    if spec.v_od.any():

        def sample(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
            return energy - pair_traces(ua, ub, m, total)

    else:
        energies = rotated_energies(m[None], spec)

        def sample(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
            return energy - energies(ua, ub)[:, 0]

    return iter_samples(sample, h.d, n, cfg)


def histogram_fits(h: BatteryHamiltonian, bin_width: float) -> bool:
    """Whether work values fill at most ``MAX_HISTOGRAM_BINS`` bins of this width.

    They lie in [E - max spec H, E - min spec H], so they fill at most
    range / bin_width + 2 bins.  The range is compared with a product rather
    than divided, since a subnormal width would overflow the quotient.  At
    d = 8 the range is read from ``linalg._shifted_spectrum``, so no
    Hermitian eigensolve wakes OpenBLAS's pool ahead of the histogram's
    threaded Monte Carlo; a range within ``SPECTRUM_MARGIN`` c of the limit,
    and an H of any other size, go to ``eigvalsh``, which decides.
    """
    limit = (MAX_HISTOGRAM_BINS - 2) * float(bin_width)
    bounds = _shifted_spectrum(h.total[None])
    if bounds is not None:
        (lo,), (hi,), (c,) = bounds
        width, margin = hi - lo, SPECTRUM_MARGIN * c
        if width + margin <= limit or width - margin > limit:
            return bool(width <= limit)
    spectrum = np.linalg.eigvalsh(h.total)
    return bool(spectrum[-1] - spectrum[0] <= limit)


def _check_bin_width(bin_width: float, h: BatteryHamiltonian) -> None:
    """The bin-width rule of a work histogram of battery h: positive, and ``histogram_fits``."""
    if not bin_width > 0:
        raise ValueError(f"bin width must be positive, got {bin_width}")
    if not histogram_fits(h, bin_width):
        raise ValueError(f"bin width {bin_width} needs more than {MAX_HISTOGRAM_BINS} bins over the work range")


def work_sample_summary(
    rho: StateLike,
    h: BatteryHamiltonian,
    n: int,
    cfg: SamplerConfig,
    *,
    bin_width: float,
) -> tuple[WorkStatistics, WorkHistogram]:
    """One pass over n work samples: moments plus a histogram of bins ``bin_width`` wide."""
    chunks = iter_work_values(rho, h, n, cfg)
    _check_bin_width(bin_width, h)
    lo, counts = None, np.zeros(0, dtype=np.int64)  # counts[i] is bin lo + i

    def counted(values: np.ndarray) -> np.ndarray:
        nonlocal lo, counts
        idx = np.floor(values / bin_width).astype(np.int64)
        base = int(idx.min()) if lo is None else min(lo, int(idx.min()))
        shift = 0 if lo is None else lo - base
        merged = np.bincount(idx - base, minlength=shift + counts.size)
        merged[shift : shift + counts.size] += counts
        lo, counts = base, merged
        return values

    stats = summarize(map(counted, chunks))[0]
    return stats, WorkHistogram(bin_width=bin_width, origin=lo * bin_width, counts=counts, n_samples=n)


def mc_work_statistics(
    rho: StateLike,
    h: BatteryHamiltonian,
    n: int,
    cfg: SamplerConfig,
) -> WorkStatistics:
    """Monte-Carlo mean/variance of work over n unitary pairs, with SEs."""
    return summarize(iter_work_values(rho, h, n, cfg))[0]
