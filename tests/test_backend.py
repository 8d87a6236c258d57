"""Back-end tests: normalization, whitening, conversation PCA, PLDA, archives.

The PLDA score test checks the closed form against direct numerical
integration of the latent speaker variable, and the psi recovery test checks
the whole estimator against the generating model.
"""

import math
import struct

import numpy as np
import pytest

from diarkit.backend import (
    BACKEND_MAGIC,
    EMBED_MAGIC,
    EmbeddingRecord,
    Plda,
    apply_whitener,
    conversation_pca,
    fit_pca_whitener,
    fit_plda,
    length_normalize,
    load_backend,
    project_plda,
    read_embeddings,
    save_backend,
    score_matrix,
    write_embeddings,
)
from diarkit.errors import FormatError, InvalidInputError
from plda_reference import plda_score


# ------------------------------------------------------------- normalization

def test_length_normalize_hand_case():
    out = length_normalize(np.array([3.0, 4.0]))
    assert np.allclose(out, math.sqrt(2.0) * np.array([0.6, 0.8]), rtol=0, atol=1e-15)


def test_length_normalize_row_norms():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 17))
    out = length_normalize(x)
    assert np.allclose(np.linalg.norm(out, axis=1), math.sqrt(17.0), rtol=0, atol=1e-12)
    # direction preserved
    i = 11
    cos = out[i] @ x[i] / (np.linalg.norm(out[i]) * np.linalg.norm(x[i]))
    assert cos > 1.0 - 1e-12


def test_length_normalize_rejects_zero():
    with pytest.raises(InvalidInputError):
        length_normalize(np.zeros((3, 5)))


# ----------------------------------------------------------------- whitening

def test_whitener_identity_covariance():
    rng = np.random.default_rng(1)
    mix = rng.normal(size=(8, 8))
    x = rng.normal(size=(500, 8)) @ mix.T + rng.normal(size=8)
    w = fit_pca_whitener(x)
    y = apply_whitener(w, x)
    assert np.allclose(y.mean(axis=0), 0.0, atol=1e-10)
    assert np.allclose(np.cov(y, rowvar=False, ddof=1), np.eye(8), atol=1e-8)


def test_whitener_one_dimension():
    """One column: np.cov gives a 0-d variance, which the whitener takes as a
    1 x 1 covariance."""
    x = np.random.default_rng(5).normal(2.0, 3.0, size=(40, 1))
    w = fit_pca_whitener(x)
    assert w.transform.shape == (1, 1)
    assert w.transform[0, 0] == pytest.approx(1.0 / x[:, 0].std(ddof=1), rel=1e-12)
    y = apply_whitener(w, x)
    assert abs(y.mean()) < 1e-12 and y.std(ddof=1) == pytest.approx(1.0, rel=1e-12)


def test_whitener_is_mean_shift_plus_matrix():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 4))
    w = fit_pca_whitener(x)
    probe = rng.normal(size=(5, 4))
    manual = (probe - w.mean) @ w.transform.T
    assert np.array_equal(apply_whitener(w, probe), manual)


def test_whitener_sign_canonicalization():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
    w = fit_pca_whitener(x)
    # each row is an eigenvector over sqrt(eigenvalue); dominant entry positive
    for row in w.transform:
        assert row[np.abs(row).argmax()] > 0
    w2 = fit_pca_whitener(x.copy())
    assert np.array_equal(w.transform, w2.transform)


def test_whitener_needs_enough_data():
    with pytest.raises(InvalidInputError):
        fit_pca_whitener(np.random.default_rng(4).normal(size=(8, 8)))


def test_whitener_drops_directions_of_rounding_variance():
    """Rows on a plane in 3-D leave one covariance eigenvalue at rounding
    level. Whitening that direction would scale rounding noise to unit
    variance; the whitener keeps the two real ones. Rows with no variance
    above rounding at all are rejected."""
    rng = np.random.default_rng(6)
    x = rng.normal(size=(200, 2)) @ rng.normal(size=(2, 3)) + rng.normal(size=3)
    w = fit_pca_whitener(x)
    assert w.transform.shape == (2, 3)
    assert np.allclose(np.cov(apply_whitener(w, x), rowvar=False), np.eye(2), atol=1e-8)
    with pytest.raises(InvalidInputError, match="covariance is singular"):
        fit_pca_whitener(np.where(rng.random((12, 1)) < 0.3, np.nextafter(1.0, 0.0), 1.0))


# ---------------------------------------------------------- conversation PCA

def test_conversation_pca_rank_rule():
    rng = np.random.default_rng(5)
    _, rank = conversation_pca(rng.normal(size=(150, 32)))
    assert rank == 15
    _, rank = conversation_pca(rng.normal(size=(520, 64)))
    assert rank == 52
    _, rank = conversation_pca(rng.normal(size=(10, 32)))
    assert rank == 1
    _, rank = conversation_pca(rng.normal(size=(11, 32)))
    assert rank == 2
    # capped by the dimension
    _, rank = conversation_pca(rng.normal(size=(200, 12)))
    assert rank == 12


def test_conversation_pca_full_rank_is_identity():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(100, 8))
    y, rank = conversation_pca(x, fraction=1.0)
    assert rank == 8
    assert np.allclose(y, x, rtol=0, atol=1e-10)


def test_conversation_pca_denoises():
    rng = np.random.default_rng(7)
    basis = np.zeros((2, 16))
    basis[0, 0] = basis[1, 1] = 1.0
    signal = rng.normal(size=(40, 2), scale=3.0) @ basis
    noise = rng.normal(size=(40, 16), scale=0.01)
    y, rank = conversation_pca(signal + noise, fraction=0.05)
    assert rank == 2
    # off-subspace coordinates shrink well below the injected noise
    assert np.abs(y[:, 2:] - np.mean(noise[:, 2:], axis=0)).max() < 0.01


def test_conversation_pca_idempotent():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(30, 10))
    once, rank1 = conversation_pca(x, fraction=0.1)
    twice, rank2 = conversation_pca(once, fraction=0.1)
    assert rank1 == rank2 == 3
    assert np.allclose(twice, once, rtol=0, atol=1e-10)


def test_conversation_pca_needs_two_segments():
    with pytest.raises(InvalidInputError):
        conversation_pca(np.ones((1, 5)))


# ------------------------------------------------------------------- PLDA fit

def test_plda_psi_recovery():
    # generate from the model itself, rotated and sheared so nothing is
    # axis-aligned; generalized eigenvalues are invariant to that
    rng = np.random.default_rng(9)
    psi_true = np.array([4.0, 2.0, 1.0, 0.5, 0.25])
    speakers, per_speaker, dim = 2000, 10, 5
    mix = np.eye(dim) + 0.3 * rng.normal(size=(dim, dim))
    shift = rng.normal(size=dim, scale=2.0)
    y = rng.normal(size=(speakers, dim)) * np.sqrt(psi_true)
    x = np.repeat(y, per_speaker, axis=0) + rng.normal(size=(speakers * per_speaker, dim))
    x = x @ mix.T + shift
    labels = np.repeat(np.arange(speakers), per_speaker)
    plda = fit_plda(x, labels)
    assert np.all(np.diff(plda.psi) <= 0)
    assert np.all(np.abs(plda.psi - psi_true) <= 0.10 * psi_true)
    # the diagonalizer sends the within covariance to the identity; the
    # unbiased estimate divides by samples minus classes
    proj = project_plda(plda, x)
    means = np.stack([proj[labels == s].mean(axis=0) for s in range(speakers)])
    resid = proj - np.repeat(means, per_speaker, axis=0)
    within = resid.T @ resid / (len(x) - speakers)
    assert np.allclose(within, np.eye(dim), atol=0.05)


def test_plda_rejects_degenerate_training():
    rng = np.random.default_rng(10)
    with pytest.raises(InvalidInputError):
        fit_plda(rng.normal(size=(10, 3)), np.zeros(10))          # one speaker
    with pytest.raises(InvalidInputError):
        fit_plda(rng.normal(size=(10, 3)), np.arange(10))         # all singletons
    with pytest.raises(InvalidInputError):
        fit_plda(rng.normal(size=(6, 8)), [0, 0, 0, 1, 1, 1])     # singular within


def test_project_plda_is_affine():
    rng = np.random.default_rng(11)
    plda = Plda(mean=rng.normal(size=4), transform=rng.normal(size=(4, 4)),
                psi=np.array([2.0, 1.0, 0.5, 0.1]))
    x = rng.normal(size=(7, 4))
    manual = (x - plda.mean) @ plda.transform.T
    assert np.array_equal(project_plda(plda, x), manual)


# ----------------------------------------------------------------- PLDA score

def _llr_by_integration(u1, u2, psi):
    """Numerically integrate the latent speaker variable out of the
    same-speaker likelihood; the different-speaker side is closed form."""
    y = np.linspace(-14.0, 14.0, 40001)

    def norm_pdf(v, var):
        return np.exp(-0.5 * v * v / var) / math.sqrt(2.0 * math.pi * var)

    integrand = norm_pdf(y, psi) * norm_pdf(u1 - y, 1.0) * norm_pdf(u2 - y, 1.0)
    p_same = np.trapezoid(integrand, y)
    p_diff = norm_pdf(np.array(u1), psi + 1.0) * norm_pdf(np.array(u2), psi + 1.0)
    return math.log(p_same) - math.log(float(p_diff))


@pytest.mark.parametrize("psi_val", [0.5, 2.0, 7.3])
def test_plda_score_matches_integration(psi_val):
    plda = Plda(mean=np.zeros(1), transform=np.eye(1), psi=np.array([psi_val]))
    grid = np.linspace(-5.0, 5.0, 21)
    worst = 0.0
    for u1 in grid:
        for u2 in grid:
            closed = plda_score(plda, np.array([u1]), np.array([u2]))
            oracle = _llr_by_integration(u1, u2, psi_val)
            worst = max(worst, abs(closed - oracle))
    assert worst < 1e-6


def test_plda_score_factors_over_dimensions():
    psi = np.array([3.0, 0.7])
    plda = Plda(np.zeros(2), np.eye(2), psi)
    u1, u2 = np.array([1.2, -0.4]), np.array([0.3, 2.2])
    per_dim = [
        plda_score(Plda(np.zeros(1), np.eye(1), psi[d:d + 1]),
                   u1[d:d + 1], u2[d:d + 1])
        for d in range(2)
    ]
    assert abs(plda_score(plda, u1, u2) - sum(per_dim)) < 1e-12


def test_plda_score_zero_psi_dimension_is_neutral():
    base = Plda(np.zeros(1), np.eye(1), np.array([2.0]))
    padded = Plda(np.zeros(2), np.eye(2), np.array([2.0, 0.0]))
    u1, u2 = np.array([1.5]), np.array([-0.6])
    assert plda_score(base, u1, u2) == pytest.approx(
        plda_score(padded, np.array([1.5, 9.9]), np.array([-0.6, -3.3])), abs=1e-12)


def test_score_matrix_matches_pairwise():
    rng = np.random.default_rng(12)
    plda = Plda(np.zeros(3), np.eye(3), np.array([3.0, 1.0, 0.2]))
    u = rng.normal(size=(9, 3))
    s = score_matrix(plda, u)
    assert np.allclose(s, s.T, rtol=0, atol=1e-12)
    for i in range(9):
        for j in range(9):
            assert s[i, j] == pytest.approx(plda_score(plda, u[i], u[j]), abs=1e-10)


def test_same_speaker_pairs_score_higher():
    rng = np.random.default_rng(13)
    psi_true = np.full(4, 9.0)
    speakers, per = 30, 20
    y = rng.normal(size=(speakers, 4)) * np.sqrt(psi_true)
    x = np.repeat(y, per, axis=0) + rng.normal(size=(speakers * per, 4))
    labels = np.repeat(np.arange(speakers), per)
    plda = fit_plda(x, labels)
    proj = project_plda(plda, x)
    s = score_matrix(plda, proj)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(labels), dtype=bool)
    assert s[same & off_diag].mean() > s[~same].mean() + 1.0


# ----------------------------------------------------------- embedding files

def _records():
    rng = np.random.default_rng(14)
    return [
        EmbeddingRecord("conv1", 0.0, 1.5, "spk_a", rng.normal(size=6)),
        EmbeddingRecord("conv1", 0.75, 2.25, "", rng.normal(size=6)),
        EmbeddingRecord("conv2", 10.0, 11.5, "spk_b", rng.normal(size=6)),
    ]


def test_embeddings_roundtrip(tmp_path):
    path = tmp_path / "emb.bin"
    records = _records()
    write_embeddings(path, records)
    back = read_embeddings(path)
    assert len(back) == 3
    for orig, got in zip(records, back):
        assert got.conversation_id == orig.conversation_id
        assert got.start_s == pytest.approx(orig.start_s, abs=5e-4)
        assert got.end_s == pytest.approx(orig.end_s, abs=5e-4)
        assert got.speaker == orig.speaker
        # storage is float32
        assert np.array_equal(got.vector, orig.vector.astype(np.float32).astype(np.float64))


def test_embeddings_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_embeddings(p1, _records())
    write_embeddings(p2, _records())
    assert p1.read_bytes() == p2.read_bytes()


def test_embeddings_bad_magic(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings(path, _records())
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_embeddings(path)


def test_embeddings_truncated(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings(path, _records())
    raw = path.read_bytes()
    path.write_bytes(raw[:-10])
    with pytest.raises(FormatError):
        read_embeddings(path)


def test_embeddings_trailing_bytes(tmp_path):
    path = tmp_path / "emb.bin"
    write_embeddings(path, _records())
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(FormatError):
        read_embeddings(path)


def test_embeddings_malformed_header(tmp_path):
    path = tmp_path / "emb.bin"
    head = b"conv1 0.000"  # two fields only
    payload = EMBED_MAGIC + struct.pack("<II", 1, 2)
    payload += struct.pack("<H", len(head)) + head
    payload += np.zeros(2, dtype="<f4").tobytes()
    path.write_bytes(payload)
    with pytest.raises(FormatError):
        read_embeddings(path)


def test_embeddings_reject_empty_and_ragged(tmp_path):
    with pytest.raises(InvalidInputError):
        write_embeddings(tmp_path / "e.bin", [])
    bad = [
        EmbeddingRecord("c", 0.0, 1.0, "", np.zeros(4)),
        EmbeddingRecord("c", 1.0, 2.0, "", np.zeros(5)),
    ]
    with pytest.raises(InvalidInputError):
        write_embeddings(tmp_path / "r.bin", bad)


# ------------------------------------------------------------- backend files

def _fitted_backend():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(400, 6)) @ rng.normal(size=(6, 6)) + rng.normal(size=6)
    whitener = fit_pca_whitener(x, n_components=4)
    wx = apply_whitener(whitener, x)
    labels = [f"s{i % 40}" for i in range(400)]
    return whitener, fit_plda(wx, labels)


def test_whitener_n_components_shape_and_variance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(500, 8)) * np.array([5.0, 4, 3, 2, 1, 0.5, 0.2, 0.1])
    w = fit_pca_whitener(x, n_components=3)
    assert w.transform.shape == (3, 8)
    wx = apply_whitener(w, x)
    assert np.allclose(np.cov(wx, rowvar=False, ddof=1), np.eye(3), atol=1e-10)
    # the kept rows are exactly the leading rows of the full whitener
    full = fit_pca_whitener(x)
    assert np.array_equal(w.transform, full.transform[:3])


def test_whitener_n_components_validation():
    x = np.random.default_rng(0).normal(size=(50, 4))
    for bad in (0, 5, -1):
        with pytest.raises(InvalidInputError):
            fit_pca_whitener(x, n_components=bad)


def test_backend_roundtrip_bit_exact(tmp_path):
    whitener, plda = _fitted_backend()
    path = tmp_path / "backend.bin"
    save_backend(path, whitener, plda)
    w2, p2 = load_backend(path)
    assert np.array_equal(w2.mean, whitener.mean)
    assert np.array_equal(w2.transform, whitener.transform)
    assert np.array_equal(p2.mean, plda.mean)
    assert np.array_equal(p2.transform, plda.transform)
    assert np.array_equal(p2.psi, plda.psi)
    save_backend(tmp_path / "again.bin", w2, p2)
    assert path.read_bytes() == (tmp_path / "again.bin").read_bytes()


def test_backend_file_errors(tmp_path):
    whitener, plda = _fitted_backend()
    path = tmp_path / "backend.bin"
    save_backend(path, whitener, plda)
    raw = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(FormatError):
        load_backend(bad)
    bad.write_bytes(raw[:-8])
    with pytest.raises(FormatError):
        load_backend(bad)
    bad.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(FormatError):
        load_backend(bad)
    bad.write_bytes(BACKEND_MAGIC + raw[4:10])
    with pytest.raises(FormatError):
        load_backend(bad)


def test_backend_save_rejects_dim_mismatch(tmp_path):
    whitener, plda = _fitted_backend()
    shrunk = Plda(plda.mean[:3], plda.transform[:3, :3], plda.psi[:3])
    with pytest.raises(InvalidInputError):
        save_backend(tmp_path / "x.bin", whitener, shrunk)
