import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from qbattery.haar import (
    HaarSampler,
    _gram_schmidt,
    SamplerConfig,
    chunk_size,
    pair_chunk,
    twirl1,
    twirl2,
    two_copy_local_twirl_probe,
)
from qbattery.linalg import MAX_LOCAL_DIM, random_density_matrix, random_hermitian, swap_operator
from qbattery.workstats import iter_samples

from oracles import subsystem_permutation, two_copy_local_twirl


# ---------------------------------------------------------------------------
# exact partial-twirl oracle on the 4-subsystem space (A, B, A', B')
# ---------------------------------------------------------------------------


def _ptrace_pair(x, d, positions):
    x8 = x.reshape([d] * 8)
    if positions == (0, 2):
        out = np.einsum("abcdafch->bdfh", x8)
    elif positions == (1, 3):
        out = np.einsum("abcdebgd->aceg", x8)
    else:
        raise ValueError(positions)
    return out.reshape(d * d, d * d)


def _embed_pair(n_pair, m_rest, d, positions):
    n4 = n_pair.reshape(d, d, d, d)
    m4 = m_rest.reshape(d, d, d, d)
    if positions == (0, 2):
        full = np.einsum("aceg,bdfh->abcdefgh", n4, m4)
    elif positions == (1, 3):
        full = np.einsum("bdfh,aceg->abcdefgh", n4, m4)
    else:
        raise ValueError(positions)
    return full.reshape(d**4, d**4)


def _partial_two_copy_twirl(x, d, positions):
    """Exact Haar average of (U (x) U) x (...)^dag over one copy pair."""
    perm = {(0, 2): (2, 1, 0, 3), (1, 3): (0, 3, 2, 1)}[positions]
    s_pair = subsystem_permutation(perm, (d, d, d, d))
    tr_x = _ptrace_pair(x, d, positions)
    tr_sx = _ptrace_pair(s_pair @ x, d, positions)
    m1 = tr_x - tr_sx / d
    m2 = tr_sx - tr_x / d
    eye_pair = np.eye(d * d)
    s_small = swap_operator(d)
    return (_embed_pair(eye_pair, m1, d, positions) + _embed_pair(s_small, m2, d, positions)) / (d * d - 1)


# ---------------------------------------------------------------------------


def test_unitarity():
    for d in (2, 3, 5):
        u = HaarSampler(SamplerConfig(seed=1), d).unitaries(1)[0]
        assert np.max(np.abs(u @ u.conj().T - np.eye(d))) < 1e-12


def test_determinism_and_stream_separation():
    cfg = SamplerConfig(seed=99, stream=4)
    a = HaarSampler(cfg, 3).unitaries(10)
    b = HaarSampler(cfg, 3).unitaries(10)
    assert np.array_equal(a, b)
    c = HaarSampler(SamplerConfig(seed=99, stream=5), 3).unitaries(10)
    assert not np.allclose(a, c)


def test_chunked_pairs_match_direct_draws():
    # chunk c, the ragged last one included, is its addressed sampler drawn side A, then side B
    cfg = SamplerConfig(seed=5)
    n, k = 9000, chunk_size(2)
    chunks = list(iter_samples(lambda ua, ub: (ua, ub), 2, n, cfg))
    assert [len(ua) for ua, _ in chunks] == [4096, 4096, 808]
    for c, (ua, ub) in enumerate(chunks):
        direct = HaarSampler(cfg, 2, chunk=c)
        assert np.array_equal(ua, direct.unitaries(min(k, n - c * k)))
        assert np.array_equal(ub, direct.unitaries(min(k, n - c * k)))
    serial = HaarSampler(cfg, 2)
    serial.unitaries(2 * k)
    assert not np.allclose(chunks[1][0], serial.unitaries(k))  # chunk 1 is not the serial continuation of chunk 0


def test_chunk_c_starts_at_philox_counter_word_2():
    cfg = SamplerConfig(seed=5, stream=2)
    rng = np.random.Generator(np.random.Philox(key=[5, 2], counter=[0, 0, 7, 0]))
    side_a, side_b = (_gram_schmidt(rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3))) for _ in "AB")
    ua, ub = pair_chunk(cfg, 3, 7, 2)
    assert np.array_equal(ua, side_a) and np.array_equal(ub, side_b)


def test_seeds_above_two_to_the_63_keep_every_bit_of_the_key():
    # numpy reads a list key holding a word >= 2^63 through float64, which rounds both seeds to 2^63
    a, b = (HaarSampler(SamplerConfig(seed=2**63 + k), 3).unitaries(4) for k in (1, 2))
    assert not np.allclose(a, b)
    c, e = (HaarSampler(SamplerConfig(seed=1, stream=2**63 + k), 3).unitaries(4) for k in (1, 2))
    assert not np.allclose(c, e)


@pytest.mark.parametrize("seed, stream", [(2**64 - 1, 0), (0, 2**64 - 1), (2**64 - 1, 2**64 - 1)])
def test_the_largest_seed_and_stream_draw_without_a_warning(seed, stream):
    # next to a small word, numpy reads a list key holding 2^64 - 1 through float64, whose cast back overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = HaarSampler(SamplerConfig(seed=seed, stream=stream), 2, chunk=3).unitaries(5)
    assert np.max(np.abs(u @ u.conj().transpose(0, 2, 1) - np.eye(2))) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_chunk_zero_is_the_unaddressed_samplers_first_draws(d):
    cfg = SamplerConfig(seed=17)
    serial = HaarSampler(cfg, d)
    ua, ub = next(iter_samples(lambda ua, ub: (ua, ub), d, 9000, cfg))
    assert len(ua) == chunk_size(d)
    assert np.array_equal(ua, serial.unitaries(len(ua)))
    assert np.array_equal(ub, serial.unitaries(len(ub)))


def test_single_copy_twirl_against_mc(rng):
    d = 2
    n = 100_000
    x = random_hermitian(rng, d)
    sampler = HaarSampler(SamplerConfig(seed=31), d)
    acc = np.zeros((d, d), dtype=complex)
    left = n
    while left:
        k = min(8192, left)
        u = sampler.unitaries(k)
        acc += (u @ x @ u.conj().transpose(0, 2, 1)).sum(axis=0)
        left -= k
    assert np.max(np.abs(acc / n - twirl1(x))) < 5 / np.sqrt(n)


def test_eigenphases_uniform_chi2():
    # marginal phase of each eigenvalue is uniform on [-pi, pi]
    sampler = HaarSampler(SamplerConfig(seed=17), 3)
    u = sampler.unitaries(10_000)
    phases = np.angle(np.linalg.eigvals(u)).ravel()
    counts, _ = np.histogram(phases, bins=20, range=(-np.pi, np.pi))
    expected = phases.size / 20
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < stats.chi2.ppf(0.99, 19)


def test_left_right_invariance_ks(rng):
    d = 3
    x = random_hermitian(rng, d)
    y = random_hermitian(rng, d)
    v = HaarSampler(SamplerConfig(seed=1234), d).unitaries(1)[0]
    u1 = HaarSampler(SamplerConfig(seed=7, stream=0), d).unitaries(2000)
    u2 = HaarSampler(SamplerConfig(seed=7, stream=1), d).unitaries(2000)
    plain = np.einsum("nij,ji->n", u1 @ x @ u1.conj().transpose(0, 2, 1), y).real
    rot = v @ u2 @ x @ u2.conj().transpose(0, 2, 1) @ v.conj().T
    shifted = np.einsum("nij,ji->n", rot, y).real
    assert stats.ks_2samp(plain, shifted).pvalue > 0.01


def test_twirl1_trivials(rng):
    d = 4
    np.testing.assert_allclose(twirl1(np.eye(d)), np.eye(d), atol=1e-14)
    x = random_hermitian(rng, d)
    x -= np.trace(x) / d * np.eye(d)
    assert np.max(np.abs(twirl1(x))) < 1e-14


def test_twirl2_trivials():
    d = 3
    s = swap_operator(d)
    np.testing.assert_allclose(twirl2(np.eye(d * d)), np.eye(d * d), atol=1e-13)
    np.testing.assert_allclose(twirl2(s), s, atol=1e-13)


def test_twirl2_against_mc(rng):
    d = 2
    n = 40_000
    x = random_hermitian(rng, d * d)
    target = twirl2(x)
    sampler = HaarSampler(SamplerConfig(seed=77), d)
    total = np.zeros((d * d, d * d), dtype=complex)
    total_sq = np.zeros((2, d * d, d * d))
    left = n
    while left:
        k = min(4096, left)
        u = sampler.unitaries(k)
        uu = np.einsum("nab,ncd->nacbd", u, u).reshape(k, d * d, d * d)
        vals = uu @ x @ uu.conj().transpose(0, 2, 1)
        total += vals.sum(axis=0)
        total_sq[0] += np.sum(vals.real**2, axis=0)
        total_sq[1] += np.sum(vals.imag**2, axis=0)
        left -= k
    mean = total / n
    se = np.sqrt(
        np.clip(np.stack([total_sq[0] / n - mean.real**2, total_sq[1] / n - mean.imag**2]), 0, None) / (n - 1)
    )
    dev = np.stack([np.abs(mean.real - target.real), np.abs(mean.imag - target.imag)])
    assert np.max(dev / (se + 1e-12)) < 5


def test_two_copy_local_twirl_trivials(rng):
    d = 2
    phi = two_copy_local_twirl(np.eye(d * d) / d**2, d)
    np.testing.assert_allclose(phi, np.eye(d**4) / d**4, atol=1e-14)
    rho = random_density_matrix(rng, d * d)
    assert abs(np.trace(two_copy_local_twirl(rho, d)) - 1) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_two_copy_local_twirl_against_exact_partial_twirls(rng, d):
    rho = random_density_matrix(rng, d * d).data
    x = np.kron(rho, rho)
    oracle = _partial_two_copy_twirl(_partial_two_copy_twirl(x, d, (0, 2)), d, (1, 3))
    np.testing.assert_allclose(two_copy_local_twirl(rho, d), oracle, atol=1e-12)


def test_two_copy_local_twirl_depends_only_on_sector_lengths(rng):
    d = 2
    rho = random_density_matrix(rng, d * d).data
    va = HaarSampler(SamplerConfig(seed=2), d).unitaries(1)[0]
    vb = HaarSampler(SamplerConfig(seed=3), d).unitaries(1)[0]
    u = np.kron(va, vb)
    rotated = u @ rho @ u.conj().T
    np.testing.assert_allclose(
        two_copy_local_twirl(rho, d), two_copy_local_twirl(rotated, d), atol=1e-12
    )


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_copy_local_twirl_probe_is_the_full_matrix_on_p_tensor_p(rng, d):
    rho = random_density_matrix(rng, d * d)
    eye = np.eye(d)
    pa, pb = random_hermitian(rng, d), random_hermitian(rng, d)
    for p in (np.eye(d * d), np.kron(pa, eye), np.kron(eye, pb), np.kron(pa, pb), random_hermitian(rng, d * d)):
        full = np.vdot(np.kron(p, p), two_copy_local_twirl(rho, d)).real
        assert abs(two_copy_local_twirl_probe(rho, d, p) - full) <= 1e-12 * abs(full)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(seed=-1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=0, stream=-1)


def test_sampler_config_is_the_philox_key_alone():
    assert [f.name for f in fields(SamplerConfig)] == ["seed", "stream"]


@pytest.mark.parametrize("d", [1, MAX_LOCAL_DIM + 1, 300])
def test_a_dimension_outside_the_supported_range_is_refused_where_unitaries_are_drawn(d):
    HaarSampler(SamplerConfig(seed=0), MAX_LOCAL_DIM)
    message = re.escape(f"local dimension must lie in 2..{MAX_LOCAL_DIM}, got {d}")
    with pytest.raises(ValueError, match=message):
        HaarSampler(SamplerConfig(seed=0), d)
    with pytest.raises(ValueError, match=message):
        pair_chunk(SamplerConfig(seed=0), d, 0, 3)
    with pytest.raises(ValueError, match=message):  # at d > 256 a chunk would hold no pair
        next(iter_samples(lambda ua, ub: ua, d, 10, SamplerConfig(seed=0)))


@pytest.mark.parametrize(
    "key, name",
    [
        ({"seed": 1.5}, "seed"),
        ({"seed": 1.0}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"seed": 1, "stream": 0.9}, "stream index"),
        ({"seed": 1, "stream": False}, "stream index"),
        ({"seed": 1, "stream": "0"}, "stream index"),
    ],
)
def test_a_key_word_that_is_no_integer_is_refused_by_name(key, name):
    # a float key word would be truncated by the uint64 key array: seed 1.5 drew seed 1's unitaries
    with pytest.raises(ValueError, match=f"^{name} must be a non-negative 64-bit integer, got "):
        SamplerConfig(**key)


def test_numpy_integer_key_words_draw_the_unitaries_of_their_values():
    a = HaarSampler(SamplerConfig(seed=np.uint64(2**64 - 1), stream=np.int32(3)), 2).unitaries(2)
    assert np.array_equal(a, HaarSampler(SamplerConfig(seed=2**64 - 1, stream=3), 2).unitaries(2))


# ---------------------------------------------------------------------------
# Gram-Schmidt draws against LAPACK QR on the same normals
# ---------------------------------------------------------------------------


def _lapack_reference(cfg, d, n):
    """The sampler's normals, drawn again, and Q of their QR with R's diagonal phases absorbed."""
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, cfg.stream]))
    a = rng.standard_normal((n, d, d))
    b = rng.standard_normal((n, d, d))
    q, r = np.linalg.qr(a + 1j * b)
    diag = np.einsum("nii->ni", r)
    return a, b, q * (diag / np.abs(diag))[:, None, :]


@pytest.mark.parametrize("d", range(2, MAX_LOCAL_DIM + 1))
def test_draws_match_lapack_qr_on_the_same_normals(d):
    n = 200
    cfg = SamplerConfig(seed=20261018, stream=d)
    a, b, ref = _lapack_reference(cfg, d, n)
    q = HaarSampler(cfg, d).unitaries(n)
    assert np.array_equal(q, _gram_schmidt(a, b))
    assert np.max(np.abs(q - ref)) <= 1e-12
    qh = q.conj().transpose(0, 2, 1)
    assert np.max(np.linalg.norm(qh @ q - np.eye(d), axis=(1, 2))) <= 1e-13
    r = qh @ (a + 1j * b)
    diag = np.einsum("nii->ni", r)
    assert np.max(np.abs(np.tril(r, -1))) <= 1e-12
    assert np.max(np.abs(diag.imag)) <= 1e-12
    assert diag.real.min() > 0


@pytest.mark.parametrize("d", [4, 8])
def test_eigenphases_uniform_chi2_at_larger_d(d):
    u = HaarSampler(SamplerConfig(seed=17), d).unitaries(10_000)
    phases = np.angle(np.linalg.eigvals(u)).ravel()
    counts, _ = np.histogram(phases, bins=20, range=(-np.pi, np.pi))
    expected = phases.size / 20
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert chi2 < stats.chi2.ppf(0.99, 19)
