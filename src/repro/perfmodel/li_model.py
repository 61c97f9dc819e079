"""Li's Model: per-operator-class linear regression on (FLOPs, bytes).

The model fits, for every operator class present in a trace, a
non-negative linear law ``time = a*flops + b*bytes + c``.  Relative
weighting makes the fit minimize *relative* error, so small operators are
not drowned out by large ones.

TrioSim uses the model in hybrid form (paper §4.4): when an operator's
parameters change (batch size, shard), the new time is the *traced* time
scaled by the model's predicted ratio — anchoring to the measurement keeps
the prediction exact when nothing changes and smooth as parameters move.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.perfmodel.base import AnchoredScalingMixin
from repro.perfmodel.features import NUM_FEATURES, features, op_features
from repro.trace.trace import Trace

_EPS = 1e-12

#: scipy ``(major, minor)`` releases whose compiled NNLS routine
#: ``tests/test_perfmodel_li_model.py`` has matched bit for bit against
#: ``scipy.optimize.nnls`` on every zoo fit problem.
VERIFIED_SCIPY_RELEASES = frozenset({(1, 17)})


@functools.lru_cache(maxsize=None)
def _nnls_kernel():
    """scipy's compiled Lawson-Hanson routine ``nnls(A, b, maxiter) ->
    (x, rnorm, info)``, loaded straight from ``scipy/optimize/_slsqplib``
    so that ``scipy/optimize/__init__.py`` (0.5 s of imports) never runs;
    ``None`` on a scipy release outside :data:`VERIFIED_SCIPY_RELEASES`
    or when the extension file is missing."""
    import scipy

    release = tuple(int(part) for part in scipy.__version__.split(".")[:2])
    if release not in VERIFIED_SCIPY_RELEASES:
        return None
    name = "scipy.optimize._slsqplib"
    stem = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_slsqplib")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.exists(stem + suffix):
            break
    else:
        return None
    registered = name in sys.modules
    loader = importlib.machinery.ExtensionFileLoader(name, stem + suffix)
    module = loader.create_module(importlib.util.spec_from_loader(name, loader))
    loader.exec_module(module)
    if not registered:
        # CPython files a single-phase extension in sys.modules as it
        # loads.  Left there, a later ``import scipy.optimize`` would
        # find it and never set it as the package's ``_slsqplib``
        # attribute, so take it out again.
        sys.modules.pop(name, None)
    return module.nnls


def _nnls(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Non-negative least squares by scipy's Lawson-Hanson solver.

    Calls the compiled routine that ``scipy.optimize.nnls`` wraps, with
    that wrapper's contract: finite float64 inputs (``ValueError``
    otherwise), ``maxiter = 3 * n`` and ``RuntimeError`` when it is
    reached.  The routine is C code over scipy's bundled
    LAPACK/BLAS, so no numpy port gives bit-equal coefficients.  On a
    scipy release the differential test has not verified, the fit goes
    through ``scipy.optimize.nnls`` itself.
    """
    A = np.asarray_chkfinite(X, dtype=np.float64, order="C")
    b = np.asarray_chkfinite(y, dtype=np.float64)
    kernel = _nnls_kernel()
    if kernel is None:
        from scipy.optimize import nnls

        return nnls(A, b)[0]
    coef, _rnorm, info = kernel(A, b, 3 * A.shape[1])
    if info == 3:
        raise RuntimeError("Maximum number of iterations reached.")
    return coef


@dataclass
class _ClassModel:
    """Fitted coefficients for one operator class."""

    coef: np.ndarray
    samples: int

    def predict(self, feats: np.ndarray) -> float:
        return float(self.coef @ feats)


class LiModel(AnchoredScalingMixin):
    """Regression-based operator execution-time model.

    :meth:`predict_scaled` (from :class:`AnchoredScalingMixin`) returns
    ``op.duration`` untouched when both scales are 1 and otherwise the
    traced time scaled by the model's predicted ratio.

    Usage::

        model = LiModel.fit(trace)
        t = model.predict("conv", flops=2e9, nbytes=4e6)
        t2 = model.predict_scaled(trace, op, flops_scale=2.0, bytes_scale=2.0)
    """

    #: Minimum samples required to fit a full 3-coefficient law; smaller
    #: classes fall back to a pure-throughput model.
    MIN_SAMPLES = 4

    def __init__(self):
        self._classes: Dict[str, _ClassModel] = {}
        self._global: Optional[_ClassModel] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(cls, trace: Trace) -> "LiModel":
        """Fit per-class regressions on all operators of *trace*."""
        model = cls()
        by_kind: Dict[str, list] = {}
        rows_all = []
        y_all = []
        for op in trace.operators:
            feats = op_features(trace, op)
            by_kind.setdefault(op.kind, []).append((feats, op.duration))
            rows_all.append(feats)
            y_all.append(op.duration)
        for kind, samples in by_kind.items():
            model._classes[kind] = cls._fit_class(samples)
        model._global = cls._fit_class(list(zip(rows_all, y_all)))
        return model

    @staticmethod
    def _fit_class(samples) -> _ClassModel:
        X = np.array([feats for feats, _dur in samples])
        y = np.array([dur for _feats, dur in samples])
        if len(samples) >= LiModel.MIN_SAMPLES and np.linalg.matrix_rank(X) >= 2:
            # Relative weighting: minimize sum((pred - y)^2 / y^2).
            w = 1.0 / np.maximum(y, _EPS)
            coef = _nnls(X * w[:, None], y * w)
            if coef @ X.mean(axis=0) > _EPS:
                return _ClassModel(coef, len(samples))
        # Throughput fallback: time proportional to the dominant feature.
        total_flops = float(X[:, 0].sum())
        total_bytes = float(X[:, 1].sum())
        total_time = float(y.sum())
        coef = np.zeros(NUM_FEATURES)
        if total_flops > 0:
            coef[0] = total_time / total_flops
        elif total_bytes > 0:
            coef[1] = total_time / total_bytes
        else:
            coef[2] = total_time / max(len(samples), 1)
        return _ClassModel(coef, len(samples))

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    @property
    def known_kinds(self):
        return sorted(self._classes)

    def predict(self, kind: str, flops: float, nbytes: float) -> float:
        """Predicted execution time of an operator of class *kind*."""
        feats = features(flops, nbytes)
        cls_model = self._classes.get(kind, self._global)
        if cls_model is None:
            raise RuntimeError("model is not fitted")
        return max(cls_model.predict(feats), 0.0)
