"""Polynomial response-surface fitting."""

import numpy as np
import pytest

from repro.charlib.fitting import PolynomialFit, _multi_indices


class TestMultiIndices:
    def test_counts(self):
        assert len(_multi_indices(1, 3)) == 4
        assert len(_multi_indices(2, 2)) == 6  # 1, x, y, x2, xy, y2
        assert len(_multi_indices(2, 4)) == 15
        assert len(_multi_indices(6, 2)) == 28

    def test_degree_bound(self):
        for exps in _multi_indices(3, 2):
            assert sum(exps) <= 2


class TestExactRecovery:
    def test_recovers_quadratic_surface(self, rng):
        def f(x, y):
            return 2.0 + 3.0 * x - 1.5 * y + 0.5 * x * y + x * x

        pts = rng.uniform(-2, 2, size=(60, 2))
        values = np.array([f(x, y) for x, y in pts])
        fit = PolynomialFit.fit(pts, values, degree=2)
        assert fit.quality.rms_error < 1e-9
        assert fit.quality.r_squared > 1.0 - 1e-12
        # Query strictly inside the training hull (outside it, predictions
        # are clamped by design).
        for x, y in rng.uniform(-1.5, 1.5, size=(10, 2)):
            assert fit.predict(x, y) == pytest.approx(f(x, y), abs=1e-8)

    def test_recovers_1d_cubic(self, rng):
        xs = np.linspace(0, 5, 30)
        ys = 1 + xs - 0.2 * xs**3
        fit = PolynomialFit.fit(xs, ys, degree=3)
        assert fit.predict(2.5) == pytest.approx(1 + 2.5 - 0.2 * 2.5**3, abs=1e-9)

    def test_underdetermined_rejected(self):
        with pytest.raises(ValueError):
            PolynomialFit.fit(np.zeros((3, 2)), np.zeros(3), degree=2)

    def test_noisy_fit_reports_residuals(self, rng):
        xs = rng.uniform(0, 1, size=(200, 2))
        ys = xs[:, 0] + rng.normal(0, 0.01, 200)
        fit = PolynomialFit.fit(xs, ys, degree=1)
        assert 0.005 < fit.quality.rms_error < 0.02
        assert fit.quality.max_error >= fit.quality.rms_error


class TestClampingAndVectorization:
    def test_prediction_clamped_to_training_range(self, rng):
        xs = np.linspace(0, 1, 20)
        fit = PolynomialFit.fit(xs, xs**2, degree=2)
        # Outside the range, the polynomial is NOT extrapolated.
        assert fit.predict(5.0) == pytest.approx(fit.predict(1.0))
        assert fit.predict(-3.0) == pytest.approx(fit.predict(0.0))

    def test_scalar_vector_agreement(self, rng):
        pts = rng.uniform(0, 10, size=(80, 3))
        values = pts[:, 0] * pts[:, 1] - pts[:, 2] ** 2
        fit = PolynomialFit.fit(pts, values, degree=2)
        queries = rng.uniform(0, 10, size=(25, 3))
        vector = fit.predict_many(queries)
        scalar = [fit.predict(*q) for q in queries]
        assert np.allclose(vector, scalar)

    def test_predict_wrong_arity_raises(self):
        fit = PolynomialFit.fit(np.linspace(0, 1, 10), np.zeros(10), degree=1)
        with pytest.raises(ValueError):
            fit.predict(1.0, 2.0)
        with pytest.raises(ValueError):
            fit.predict_many(np.zeros((5, 2)))


class TestSerialization:
    def test_roundtrip(self, rng):
        pts = rng.uniform(0, 1, size=(50, 2))
        values = pts[:, 0] + 2 * pts[:, 1]
        fit = PolynomialFit.fit(pts, values, degree=2, var_names=["a", "b"])
        clone = PolynomialFit.from_dict(fit.to_dict())
        assert clone.var_names == ["a", "b"]
        for q in rng.uniform(0, 1, size=(10, 2)):
            assert clone.predict(*q) == pytest.approx(fit.predict(*q), abs=1e-12)
        assert clone.quality.rms_error == pytest.approx(fit.quality.rms_error)


def library_fits(library):
    """``(label, fit)`` for every fit of a characterized library."""
    for (drive, load), fits in sorted(library.single.items()):
        for fn, fit in sorted(fits.items()):
            yield f"single[{drive},{load}].{fn}", fit
    for drive, fits in sorted(library.branch.items()):
        for fn, fit in sorted(fits.items()):
            yield f"branch[{drive}].{fn}", fit


def probe_points(fit, rng):
    """In-range points (corners, interior, random) and points clamped
    beyond the training range, on every edge and mixed per variable."""
    lo, hi = fit.lo, fit.hi
    span = hi - lo
    points = [lo + t * span for t in (0.0, 0.13, 0.5, 0.87, 1.0)]
    points += list(lo + rng.uniform(0.0, 1.0, size=(8, lo.size)) * span)
    points += [lo - 0.5 * span - 1.0, hi + 0.5 * span + 1.0]
    odd = np.arange(lo.size) % 2 == 1
    points += [np.where(odd, lo - span, hi + span), np.where(odd, hi * 3, lo * 3)]
    return [[float(v) for v in point] for point in points]


class TestCompiledEvaluator:
    """Synthesis evaluates fits through the compiled scalar evaluator;
    the interpreted ``PolynomialFit.predict`` is its reference."""

    def test_matches_interpreted_reference_on_default_library(
        self, library, rng
    ):
        checked = 0
        for label, fit in library_fits(library):
            assert "predict" in vars(fit), f"{label} is not compiled"
            for point in probe_points(fit, rng):
                compiled = fit.predict(*point)
                reference = PolynomialFit.predict(fit, *point)
                assert compiled == reference, (label, point)
                checked += 1
        assert checked > 0
