import warnings

import numpy as np
import pytest

from hyperadapt import decomp
from hyperadapt.data import synth_filter_bank
from hyperadapt.decomp import (
    CpDecomp,
    CpOptions,
    Tucker1Decomp,
    cp_decompose,
    cp_reconstruct,
    decompose_bank,
    load_decomps,
    save_decomps,
    tucker1_decompose,
    tucker1_reconstruct,
)
from hyperadapt.errors import NumericalError, ShapeError, UsageError
from hyperadapt.filteradapt import FilterBank
from hyperadapt.linalg import lstsq_gram, svd
from hyperadapt.tensor import frobenius_norm, khatri_rao, unfold


def outer3(a, b, c):
    return np.einsum("i,j,k->ijk", a, b, c)


def rel_err(filt, approx):
    return frobenius_norm(filt - approx) / frobenius_norm(filt)


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def separated_pair(rng, n, max_cos=0.8):
    # Independent draws, rejecting near-collinear pairs: ALS converges
    # arbitrarily slowly in the degenerate swamp regime.
    while True:
        u, v = random_unit(rng, n), random_unit(rng, n)
        if abs(u @ v) < max_cos:
            return u, v


class TestCpDecompose:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(0)
        filt = outer3(rng.standard_normal(3), random_unit(rng, 7), random_unit(rng, 7))
        d = cp_decompose(filt, 1)
        assert d.relative_error <= 1e-8
        assert rel_err(filt, cp_reconstruct(d)) <= 1e-8

    def test_exact_rank_two(self):
        rng = np.random.default_rng(1)
        a1, a2 = separated_pair(rng, 3)
        x1, x2 = separated_pair(rng, 7)
        y1, y2 = separated_pair(rng, 7)
        filt = outer3(2.0 * a1, x1, y1) + outer3(1.5 * a2, x2, y2)
        d = cp_decompose(filt, 2)
        assert d.relative_error <= 1e-6

    def test_error_nests_in_rank(self):
        rng = np.random.default_rng(2)
        filt = rng.standard_normal((3, 7, 7))
        e1 = cp_decompose(filt, 1).relative_error
        e2 = cp_decompose(filt, 2).relative_error
        assert e2 <= e1 + 1e-12

    def test_sweep_errors_monotone(self):
        rng = np.random.default_rng(3)
        filt = rng.standard_normal((3, 5, 5))
        d = cp_decompose(filt, 2)
        diffs = np.diff(d.sweep_errors)
        assert np.all(diffs <= 1e-12)

    def test_spatial_columns_unit_norm(self):
        rng = np.random.default_rng(4)
        d = cp_decompose(rng.standard_normal((3, 5, 7)), 2)
        assert np.allclose(np.linalg.norm(d.x, axis=0), 1.0, atol=1e-12)
        assert np.allclose(np.linalg.norm(d.y, axis=0), 1.0, atol=1e-12)

    def test_zero_filter_degenerate(self):
        d = cp_decompose(np.zeros((3, 5, 5)), 2)
        assert d.degenerate
        assert d.relative_error == 0.0
        assert not d.spectral.any()
        assert np.allclose(np.linalg.norm(d.x, axis=0), 1.0)
        assert np.allclose(np.linalg.norm(d.y, axis=0), 1.0)
        assert not cp_reconstruct(d).any()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        filt = rng.standard_normal((3, 5, 5))
        d1 = cp_decompose(filt, 2, CpOptions(seed=9))
        d2 = cp_decompose(filt, 2, CpOptions(seed=9))
        assert np.array_equal(d1.spectral, d2.spectral)
        assert np.array_equal(d1.x, d2.x)
        assert np.array_equal(d1.y, d2.y)

    @pytest.mark.parametrize("filt", [np.zeros((3, 4, 4)), np.arange(48.0).reshape(3, 4, 4)])
    def test_errors_are_python_floats(self, filt):
        d = cp_decompose(filt, 2)
        assert type(d.relative_error) is float
        assert d.sweep_errors and all(type(e) is float for e in d.sweep_errors)
        assert d.relative_error == d.sweep_errors[-1]
        assert type(d.degenerate) is bool

    def test_rank_zero_rejected(self):
        with pytest.raises(ShapeError):
            cp_decompose(np.ones((3, 3, 3)), 0)

    @pytest.mark.parametrize("options", [{"restarts": -1}, {"max_iters": 0}])
    def test_bad_options_rejected(self, options):
        with pytest.raises(UsageError):
            CpOptions(**options)

    @pytest.mark.parametrize("options", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1.0}, {"seed": -1},
    ])
    def test_bad_tol_and_seed_rejected(self, options):
        with pytest.raises(UsageError, match=next(iter(options))):
            CpOptions(**options)


def serial_restarts(filt, rank, opts, stream):
    """Every ALS run of ``cp_decompose``, one restart after another.

    A copy of the serial restart loop that batched ALS replaced: each run
    starts from the same (seed, stream, restart) init and has its own sweep
    loop. Returns one (spectral, x, y, sweep_errors) tuple per run.
    """
    norm_t = frobenius_norm(filt)
    unf = [unfold(filt, mode) for mode in range(3)]

    def solve(u, f, g):
        return lstsq_gram((f.T @ f) * (g.T @ g), khatri_rao(f, g).T @ u.T).T

    def pull_scale(factor, spectral):
        norms = np.linalg.norm(factor, axis=0)
        nz = norms > 0
        factor, spectral = factor.copy(), spectral.copy()
        factor[:, nz] /= norms[nz]
        spectral[:, nz] *= norms[nz]
        return factor, spectral

    runs = []
    for ridx in range(opts.restarts + 1):
        rng = np.random.default_rng([opts.seed, stream, ridx])
        if ridx == 0:
            init = []
            for u in unf:
                f = svd(u)[0]
                have = min(rank, f.shape[1])
                f = f[:, :have]
                if have < rank:
                    f = np.hstack([f, rng.standard_normal((f.shape[0], rank - have))])
                init.append(np.ascontiguousarray(f))
        else:
            init = [rng.standard_normal((n, rank)) for n in filt.shape]
        a, b, c = init
        errors = []
        prev = None
        for _ in range(opts.max_iters):
            a = solve(unf[0], b, c)
            b = solve(unf[1], a, c)
            b, a = pull_scale(b, a)
            c = solve(unf[2], a, b)
            c, a = pull_scale(c, a)
            err = frobenius_norm(filt - np.einsum("cr,ir,jr->cij", a, b, c)) / norm_t
            errors.append(err)
            if prev is not None and abs(prev - err) < opts.tol:
                break
            prev = err
        runs.append((a, b, c, errors))
    return runs


def _oracle_cases():
    # The filters of acceptance criteria 1 (exact rank one, CP rank 1) and 2
    # (Gaussian, CP rank 2), noisy synthetic banks at three seeds, and a rank
    # above the channel count, whose deterministic init is padded with draws.
    exact = synth_filter_bank(100, 7, seed=1).weights[:12]
    gaussian = np.random.default_rng(2).standard_normal((3, 3, 7, 7))
    padded = np.random.default_rng(3).standard_normal((1, 3, 5, 5))
    cases = {"criterion1": (exact, 1), "criterion2": (gaussian, 2), "padded": (padded, 4)}
    for seed in range(3):
        bank = synth_filter_bank(4, 7, seed=seed, noise=0.05).weights
        cases[f"noisy{seed}"] = (bank, 2)
    return cases


ORACLE_CASES = _oracle_cases()


class TestAgainstSerialRestarts:
    """Batched restarts reproduce the serial restart loop, run by run."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_same_winner_and_sweeps(self, case):
        bank, rank = ORACLE_CASES[case]
        opts = CpOptions()
        for o, filt in enumerate(bank):
            d = cp_decompose(filt, rank, opts, stream=o)
            runs = serial_restarts(filt, rank, opts, stream=o)
            finals = np.array([errors[-1] for *_, errors in runs])
            order = np.argsort(finals, kind="stable")
            first, second = finals[order[0]], finals[order[1]]
            # Runs that end within 1e-9 of the best are ties: either may win.
            winners = [order[0]] if second - first > 1e-9 else \
                [r for r in order if finals[r] - first <= 1e-9]
            matches = [r for r in winners if len(runs[r][3]) == len(d.sweep_errors)
                       and np.allclose(d.sweep_errors, runs[r][3], rtol=1e-12, atol=0)]
            assert matches, (case, o, finals, len(d.sweep_errors))
            a, b, c, errors = runs[matches[0]]
            assert d.relative_error == pytest.approx(errors[-1], rel=1e-12, abs=0)
            recon = np.einsum("cr,ir,jr->cij", a, b, c)
            assert rel_err(recon, cp_reconstruct(d)) <= 1e-9

    @pytest.mark.parametrize("stream", range(8))
    def test_exact_tie_goes_to_first_run(self, stream):
        # Every run fits a one-hot filter exactly, but not every run with the
        # same signs: the deterministic run must win, as a strict < gave.
        filt = np.zeros((3, 4, 4))
        filt[0, 1, 2] = 2.0
        runs = serial_restarts(filt, 1, CpOptions(), stream)
        assert all(errors[-1] == 0.0 for *_, errors in runs)
        d = cp_decompose(filt, 1, stream=stream)
        for got, want in zip((d.spectral, d.x, d.y), runs[0]):
            assert np.array_equal(got, want)


class TestCpReconstruct:
    def test_single_rank_one_term(self):
        d = CpDecomp(
            spectral=np.array([[2.0], [0.0], [0.0]]),
            x=np.array([[1.0], [0.0]]),
            y=np.array([[0.0], [1.0]]),
            relative_error=0.0,
        )
        out = cp_reconstruct(d)
        expected = outer3([2.0, 0.0, 0.0], [1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(out, expected)

    def test_linear_in_spectral(self):
        rng = np.random.default_rng(6)
        d = cp_decompose(rng.standard_normal((3, 5, 5)), 2)
        doubled = CpDecomp(spectral=2 * d.spectral, x=d.x, y=d.y, relative_error=0.0)
        assert np.allclose(cp_reconstruct(doubled), 2 * cp_reconstruct(d), atol=1e-12)

    def test_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        d = CpDecomp(spectral=rng.standard_normal((3, 2)),
                     x=rng.standard_normal((4, 2)),
                     y=rng.standard_normal((5, 2)), relative_error=0.0)
        out = cp_reconstruct(d)
        expected = np.zeros((3, 4, 5))
        for c in range(3):
            for i in range(4):
                for j in range(5):
                    expected[c, i, j] = sum(
                        d.spectral[c, r] * d.x[i, r] * d.y[j, r] for r in range(2)
                    )
        assert np.allclose(out, expected, atol=1e-12)


class TestTucker:
    def test_full_rank_no_truncation(self):
        rng = np.random.default_rng(8)
        filt = rng.standard_normal((3, 7, 7))
        d = tucker1_decompose(filt, 3)
        assert d.relative_error <= 1e-10
        assert rel_err(filt, tucker1_reconstruct(d)) <= 1e-10

    def test_rank_one_unfolding(self):
        rng = np.random.default_rng(9)
        filt = outer3(rng.standard_normal(3), rng.standard_normal(7), rng.standard_normal(7))
        assert tucker1_decompose(filt, 1).relative_error <= 1e-10

    def test_error_equals_singular_tail(self):
        # independent oracle: singular values of the channel unfolding
        rng = np.random.default_rng(10)
        filt = rng.standard_normal((3, 7, 7))
        d = tucker1_decompose(filt, 2)
        s = np.linalg.svd(unfold(filt, 0), compute_uv=False)
        assert d.relative_error == pytest.approx(s[2] / frobenius_norm(filt), abs=1e-9)

    def test_spectral_orthonormal(self):
        rng = np.random.default_rng(11)
        d = tucker1_decompose(rng.standard_normal((3, 5, 5)), 2)
        assert np.abs(d.spectral.T @ d.spectral - np.eye(2)).max() <= 1e-10

    def test_rank_clamped_to_channels(self):
        d = tucker1_decompose(np.random.default_rng(12).standard_normal((3, 5, 5)), 10)
        assert d.rank == 3

    def test_reconstruct_identity_and_zero(self):
        rng = np.random.default_rng(13)
        filt = rng.standard_normal((3, 4, 4))
        ident = Tucker1Decomp(core=filt.copy(), spectral=np.eye(3), relative_error=0.0)
        assert np.allclose(tucker1_reconstruct(ident), filt)
        zero = Tucker1Decomp(core=np.zeros((2, 4, 4)), spectral=rng.standard_normal((3, 2)),
                             relative_error=0.0)
        assert not tucker1_reconstruct(zero).any()

    def test_zero_filter_degenerate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = tucker1_decompose(np.zeros((3, 5, 5)), 2)
            recon = tucker1_reconstruct(d)
        assert d.degenerate
        assert d.relative_error == 0.0 and type(d.relative_error) is float
        assert d.core.shape == (2, 5, 5) and not d.core.any()
        assert recon.shape == (3, 5, 5) and not recon.any()

    def test_dominates_cp_at_equal_rank(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            filt = rng.standard_normal((3, 7, 7))
            cp_err = cp_decompose(filt, 2).relative_error
            tk_err = tucker1_decompose(filt, 2).relative_error
            assert tk_err <= cp_err + 1e-9


class TestDecomposeBank:
    def _rank_one_bank(self, c_out=4, k=5, seed=0):
        rng = np.random.default_rng(seed)
        filt = outer3(rng.standard_normal(3), random_unit(rng, k), random_unit(rng, k))
        return FilterBank(np.stack([filt] * c_out))

    def test_identical_rank_one_filters(self):
        bank = self._rank_one_bank()
        _, errors = decompose_bank(bank, "cp", 1)
        assert len(errors) == 4
        assert np.all(errors <= 1e-8)

    def test_tucker_full_rank_bank(self):
        rng = np.random.default_rng(15)
        bank = FilterBank(rng.standard_normal((4, 3, 5, 5)))
        _, errors = decompose_bank(bank, "tucker", 3)
        assert np.all(errors <= 1e-10)

    def test_tucker_mean_error_monotone_in_rank(self):
        rng = np.random.default_rng(16)
        bank = FilterBank(rng.standard_normal((4, 3, 5, 5)))
        means = [decompose_bank(bank, "tucker", r)[1].mean() for r in (1, 2, 3)]
        assert means[0] >= means[1] >= means[2]

    def test_one_cp_decompose_call_per_filter(self, monkeypatch):
        # The traced benchmark harness wraps decomp.cp_decompose and reads
        # its per-filter metric decomp.cp_filter_ms from these calls, so
        # decompose_bank must go through the module binding once per filter.
        calls = []
        original = decomp.cp_decompose

        def counting(filt, rank, opts=None, stream=0):
            calls.append(stream)
            return original(filt, rank, opts, stream)

        monkeypatch.setattr(decomp, "cp_decompose", counting)
        decomps, _ = decompose_bank(self._rank_one_bank(c_out=5), "cp", 1)
        assert calls == [0, 1, 2, 3, 4]
        assert len(decomps) == 5

    def test_accepts_plain_array(self):
        rng = np.random.default_rng(18)
        decomps, errors = decompose_bank(rng.standard_normal((2, 3, 3, 3)), "tucker", 2)
        assert len(decomps) == 2 and errors.shape == (2,)

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_bank_is_a_numerical_error(self, kind, value):
        # An infinite entry can leave LAPACK's SVD iterating without end.
        weights = synth_filter_bank(4, 5, seed=0).weights
        weights[2, 1, 3, 0] = value
        with pytest.raises(NumericalError, match="non-finite"):
            decompose_bank(weights, kind, 2)


class TestDerivedFacts:
    """Rank and degeneracy are read from the factors, never stored beside them."""

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    def test_degenerate_follows_the_factors(self, tmp_path, kind):
        rng = np.random.default_rng(21)
        weights = np.stack([np.zeros((3, 5, 5)), rng.standard_normal((3, 5, 5))])
        decomps, _ = decompose_bank(weights, kind, 2)
        path = str(tmp_path / "d.dcp")
        save_decomps(path, decomps)
        loaded = load_decomps(path)[1]
        assert [d.degenerate for d in decomps] == [True, False]
        assert [d.degenerate for d in loaded] == [True, False]
        # Zeroing the block that carries a filter's energy makes it degenerate.
        (decomps[1].spectral if kind == "cp" else decomps[1].core)[:] = 0.0
        assert decomps[1].degenerate

    @pytest.mark.parametrize("kind", ["cp", "tucker"])
    @pytest.mark.parametrize("key", ["rank", "degenerate"])
    def test_rank_and_degenerate_are_not_settable(self, kind, key):
        d = decompose_bank(np.ones((1, 3, 4, 5)), kind, 2)[0][0]
        assert d.rank == d.spectral.shape[1]
        parts = {"spectral": d.spectral, "relative_error": 0.0}
        parts.update({"x": d.x, "y": d.y} if kind == "cp" else {"core": d.core})
        with pytest.raises(TypeError, match=key):
            type(d)(**parts, **{key: 1})


class TestDecompFile:
    def test_cp_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        bank = FilterBank(rng.standard_normal((3, 3, 5, 5)))
        decomps, errors = decompose_bank(bank, "cp", 2)
        path = tmp_path / "d.dcp"
        save_decomps(str(path), decomps)
        kind, loaded, errs = load_decomps(str(path))
        assert kind == "cp"
        assert np.array_equal(errs, errors)
        for a, b in zip(decomps, loaded):
            assert np.array_equal(a.spectral, b.spectral)
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)

    def test_tucker_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        bank = FilterBank(rng.standard_normal((3, 3, 5, 5)))
        decomps, errors = decompose_bank(bank, "tucker", 2)
        path = tmp_path / "d.dcp"
        save_decomps(str(path), decomps)
        kind, loaded, _ = load_decomps(str(path))
        assert kind == "tucker"
        for a, b in zip(decomps, loaded):
            assert np.array_equal(a.core, b.core)
            assert np.array_equal(a.spectral, b.spectral)
