"""Least-squares polynomial response-surface fitting.

Implements the paper's "surface fitting" (two variables, 3rd/4th order)
and "hyperplane fitting" (more variables, used for branch components) as
one generic n-variable polynomial least-squares fit with input
normalization and range clamping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly


@dataclass(frozen=True)
class FitQuality:
    """Residual statistics of a fit, on the training data."""

    rms_error: float
    max_error: float
    r_squared: float

    def as_dict(self) -> dict:
        return {
            "rms_error": self.rms_error,
            "max_error": self.max_error,
            "r_squared": self.r_squared,
        }


#: When False, new fits keep the interpreted ``predict`` instead of the
#: compiled evaluator — the perf harness uses this to time the seed
#: baseline faithfully. Results are bit-identical either way.
COMPILE_SCALAR = True

#: Interned (exponents, lo, hi) shapes: fits with equal shape ids share
#: normalized powers and term columns in :func:`predict_many_grouped`.
#: Grow-only over a process's handful of distinct training grids.
_SHAPE_IDS: dict[tuple, int] = {}


def _multi_indices(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= ``degree``."""
    out = []
    for exps in itertools.product(range(degree + 1), repeat=n_vars):
        if sum(exps) <= degree:
            out.append(exps)
    out.sort(key=lambda e: (sum(e), e))
    return out


class PolynomialFit:
    """An n-variable polynomial fitted by linear least squares.

    Inputs are affinely normalized to [-1, 1] over the training range for
    conditioning; queries are clamped to the training range so the
    polynomial is never extrapolated (the paper's functions are likewise
    only valid over the characterized slew/length window).
    """

    def __init__(
        self,
        exponents: list[tuple[int, ...]],
        coeffs: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        quality: FitQuality,
        var_names: list[str] | None = None,
    ):
        self.exponents = exponents
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.quality = quality
        self.var_names = var_names or [f"x{i}" for i in range(len(lo))]
        if len(self.exponents) != self.coeffs.size:
            raise ValueError("coefficient/term count mismatch")
        # Scalar fast path: plain-float structures, precomputed once.
        self._lo_list = [float(v) for v in self.lo]
        self._inv_span = [
            float(2.0 / (hi_v - lo_v)) if hi_v > lo_v else 0.0
            for lo_v, hi_v in zip(self.lo, self.hi)
        ]
        self._hi_list = [float(v) for v in self.hi]
        self._max_exp = [
            max(e[v] for e in self.exponents) for v in range(self.n_vars)
        ]
        self._terms = [
            (float(c), [(v, p) for v, p in enumerate(exps) if p > 0])
            for c, exps in zip(self.coeffs, self.exponents)
        ]
        shape = (
            tuple(tuple(e) for e in self.exponents),
            self.lo.tobytes(),
            self.hi.tobytes(),
        )
        self._shape_id = _SHAPE_IDS.setdefault(shape, len(_SHAPE_IDS))
        self._partial_cache: dict[float, object] = {}
        # The scalar entry point is megacalled by synthesis; shadow the
        # interpreted method with a straight-line compiled evaluator that
        # performs the exact same float operations in the same order.
        if COMPILE_SCALAR:
            self.predict = self._compile_scalar()

    # ------------------------------------------------------------------

    @property
    def n_vars(self) -> int:
        return self.lo.size

    def _normalize(self, x: np.ndarray) -> np.ndarray:
        span = np.where(self.hi > self.lo, self.hi - self.lo, 1.0)
        clipped = np.clip(x, self.lo, self.hi)
        return 2.0 * (clipped - self.lo) / span - 1.0

    def _design(self, xn: np.ndarray) -> np.ndarray:
        """Design matrix for normalized inputs, shape (n_pts, n_terms)."""
        n_pts = xn.shape[0]
        cols = np.empty((n_pts, len(self.exponents)))
        # Precompute powers per variable up to the max needed exponent.
        max_exp = max(max(e) for e in self.exponents)
        powers = [np.ones((n_pts, max_exp + 1)) for _ in range(self.n_vars)]
        for v in range(self.n_vars):
            for p in range(1, max_exp + 1):
                powers[v][:, p] = powers[v][:, p - 1] * xn[:, v]
        for t, exps in enumerate(self.exponents):
            col = None
            for v, p in enumerate(exps):
                if p:
                    # First factor is 1 * powers == powers, so the explicit
                    # ones column is skipped without changing any product.
                    col = powers[v][:, p] if col is None else col * powers[v][:, p]
            cols[:, t] = 1.0 if col is None else col
        return cols

    def _compile_scalar(self):
        """Generate the specialized scalar evaluator for this fit.

        Emits one flat function with the ranges and coefficients inlined
        as literals (``repr`` round-trips floats exactly) and the same
        operation order as :meth:`predict`, so results are bit-identical
        while skipping all list indexing and loop interpretation.
        """
        n = self.n_vars
        lines = [
            "def _predict(*args):",
            f"    if len(args) != {n}:",
            f"        raise ValueError(f'expected {n} arguments, got {{len(args)}}')",
        ]
        for v in range(n):
            lo, hi = repr(self._lo_list[v]), repr(self._hi_list[v])
            inv = repr(self._inv_span[v])
            lines.append(f"    v{v} = args[{v}]")
            lines.append(f"    v{v} = {lo} if v{v} < {lo} else {hi} if v{v} > {hi} else v{v}")
            lines.append(f"    x{v} = (v{v} - {lo}) * {inv} - 1.0")
            for p in range(2, self._max_exp[v] + 1):
                prev = f"x{v}" if p == 2 else f"x{v}_{p - 1}"
                lines.append(f"    x{v}_{p} = {prev} * x{v}")
        lines.append("    total = 0.0")
        for coeff, factors in self._terms:
            # Factor product first, coefficient last — the canonical term
            # order shared with ``predict`` and ``predict_many`` so scalar
            # and batched evaluation are bit-identical.
            parts = [
                f"x{v}" if p == 1 else f"x{v}_{p}" for v, p in factors
            ]
            parts.append(repr(coeff))
            lines.append(f"    total += {' * '.join(parts)}")
        lines.append("    return total")
        namespace: dict = {}
        exec("\n".join(lines), {}, namespace)
        return namespace["_predict"]

    def predict(self, *args: float) -> float:
        """Evaluate at one point given as scalars (clamped to range).

        Interpreted reference for the compiled evaluator installed by
        ``_compile_scalar`` (which shadows this method per instance);
        normalized powers are built with plain floats.
        """
        if len(args) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} arguments, got {len(args)}")
        powers = []
        for v, value in enumerate(args):
            lo, hi = self._lo_list[v], self._hi_list[v]
            clipped = lo if value < lo else hi if value > hi else value
            xn = (clipped - lo) * self._inv_span[v] - 1.0
            var_pows = [1.0, xn]
            for _ in range(self._max_exp[v] - 1):
                var_pows.append(var_pows[-1] * xn)
            powers.append(var_pows)
        total = 0.0
        for coeff, factors in self._terms:
            if factors:
                v0, p0 = factors[0]
                term = powers[v0][p0]
                for v, p in factors[1:]:
                    term = term * powers[v][p]
                total += term * coeff
            else:
                total += coeff
        return total

    def partial_curve(self, x0: float):
        """Vectorized evaluator over the second variable with the first fixed.

        For a 2-variable fit queried at one fixed first input (the routing
        tables: one input slew, many lengths), the normalized powers of
        ``x0`` fold into the coefficients once, leaving a clip plus a
        Horner evaluation per call. Values agree with ``predict_many`` up
        to floating-point rounding (the summation order differs).
        """
        if self.n_vars != 2:
            raise ValueError("partial_curve requires a 2-variable fit")
        curve = self._partial_cache.get(x0)
        if curve is None:
            lo0, hi0 = self._lo_list[0], self._hi_list[0]
            v0 = lo0 if x0 < lo0 else hi0 if x0 > hi0 else x0
            xn0 = (v0 - lo0) * self._inv_span[0] - 1.0
            contracted = np.zeros(self._max_exp[1] + 1)
            for (e0, e1), c in zip(self.exponents, self.coeffs):
                contracted[e1] += float(c) * xn0**e0
            lo1, hi1 = self._lo_list[1], self._hi_list[1]
            inv1 = self._inv_span[1]

            def curve(values: np.ndarray) -> np.ndarray:
                xn = (np.clip(values, lo1, hi1) - lo1) * inv1 - 1.0
                return npoly.polyval(xn, contracted)

            self._partial_cache[x0] = curve
        return curve

    def _batch_powers(self, x: np.ndarray) -> list[list[np.ndarray]]:
        """Per-variable normalized power columns, built exactly like the
        scalar evaluator (clamp, affine normalize, repeated multiply)."""
        powers: list[list[np.ndarray]] = []
        for v in range(self.n_vars):
            lo, hi = self._lo_list[v], self._hi_list[v]
            # (clip - lo) * inv_span - 1.0, composed in place: the op
            # order matches the scalar evaluator, only the temporaries
            # are elided.
            xn = np.clip(x[:, v], lo, hi)
            xn -= lo
            xn *= self._inv_span[v]
            xn -= 1.0
            var_pows: list[np.ndarray] = [None, xn]  # index = exponent
            for _ in range(self._max_exp[v] - 1):
                var_pows.append(var_pows[-1] * xn)
            powers.append(var_pows)
        return powers

    def _term_columns(self, powers: list[list[np.ndarray]]) -> list[np.ndarray | None]:
        """Per-term factor products (coefficient-free; None for the
        constant term), left-associated like the scalar evaluator."""
        cols: list[np.ndarray | None] = []
        for __, factors in self._terms:
            if factors:
                v0, p0 = factors[0]
                col = powers[v0][p0]
                for v, p in factors[1:]:
                    col = col * powers[v][p]
                cols.append(col)
            else:
                cols.append(None)
        return cols

    def predict_many(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at points given as an (n_pts, n_vars) array.

        Performs the exact float operations of the scalar ``predict`` —
        same clamps, same power chains, same term order — element-wise
        over the batch, so ``predict_many(x)[k] == predict(*x[k])`` bit
        for bit. The lockstep commit scheduler relies on this to keep
        batched bisection trajectories identical to the scalar flow.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.n_vars:
            raise ValueError(f"expected (n, {self.n_vars}) array, got {x.shape}")
        return _accumulate_terms(
            self._term_columns(self._batch_powers(x)),
            self._terms,
            x.shape[0],
            np.empty(x.shape[0]),
        )

    # ------------------------------------------------------------------

    @classmethod
    def fit(
        cls,
        x: np.ndarray,
        y: np.ndarray,
        degree: int,
        var_names: list[str] | None = None,
        rcond: float | None = None,
    ) -> "PolynomialFit":
        """Fit a total-degree-``degree`` polynomial to samples ``(x, y)``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1:
            x = x[:, None]
        n_pts, n_vars = x.shape
        exponents = _multi_indices(n_vars, degree)
        if n_pts < len(exponents):
            raise ValueError(
                f"{n_pts} samples cannot determine {len(exponents)} terms"
            )
        lo = x.min(axis=0)
        hi = x.max(axis=0)
        stub = cls(
            exponents,
            np.zeros(len(exponents)),
            lo,
            hi,
            FitQuality(0.0, 0.0, 1.0),
            var_names,
        )
        design = stub._design(stub._normalize(x))
        coeffs, *_ = np.linalg.lstsq(design, y, rcond=rcond)
        pred = design @ coeffs
        resid = y - pred
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        quality = FitQuality(
            rms_error=float(np.sqrt(np.mean(resid**2))),
            max_error=float(np.max(np.abs(resid))) if n_pts else 0.0,
            r_squared=1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0,
        )
        return cls(exponents, coeffs, lo, hi, quality, var_names)

    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "exponents": [list(e) for e in self.exponents],
            "coeffs": self.coeffs.tolist(),
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
            "quality": self.quality.as_dict(),
            "var_names": self.var_names,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PolynomialFit":
        return cls(
            [tuple(e) for e in data["exponents"]],
            np.array(data["coeffs"]),
            np.array(data["lo"]),
            np.array(data["hi"]),
            FitQuality(**data["quality"]),
            data.get("var_names"),
        )


def _accumulate_terms(cols, terms, n, scratch) -> np.ndarray:
    """Sum one fit's terms over shared term columns.

    Performs ``total += coeff`` / ``total += col * coeff`` in term order —
    the canonical order shared with the scalar evaluators — with the
    per-term product placed into a caller-provided scratch buffer so the
    accumulation allocates one output array instead of one per term.
    The float results are bit for bit the naive loop's (``np.multiply``
    into a buffer performs the same element-wise ops as ``col * coeff``).
    """
    total = np.zeros(n)
    for col, (coeff, __) in zip(cols, terms):
        if col is None:
            total += coeff
        else:
            np.multiply(col, coeff, out=scratch)
            total += scratch
    return total


def predict_many_grouped(
    fits: list["PolynomialFit"], x: np.ndarray
) -> list[np.ndarray]:
    """Evaluate several fits at the same points, sharing term columns.

    The branch fits of one driving buffer are trained on one sample grid,
    so they share exponents and input ranges; their normalized powers and
    per-term factor products are then identical and are computed once for
    the whole group (fits interned the same ``_shape_id`` at load time
    exactly when that holds). Each fit still accumulates its terms in its
    own order with the canonical term op order, so every output column is
    bit for bit what ``fit.predict_many(x)`` (and hence ``fit.predict``)
    returns. Fits that do not share shape fall back to per-fit calls.
    """
    first = fits[0]
    if len(fits) > 1 and all(
        f._shape_id == first._shape_id for f in fits[1:]
    ):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != first.n_vars:
            raise ValueError(
                f"expected (n, {first.n_vars}) array, got {x.shape}"
            )
        cols = first._term_columns(first._batch_powers(x))
        scratch = np.empty(x.shape[0])
        return [
            _accumulate_terms(cols, f._terms, x.shape[0], scratch)
            for f in fits
        ]
    return [f.predict_many(x) for f in fits]
