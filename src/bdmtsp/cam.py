"""Continuous approximation models for dispatch-length prediction.

A configuration (m vehicles, n customers, d visibility) maps to a mean
tour length.  Features are the monomials m^p1 * n^p2 * d^p3 of
``TERMS``; models are ordinary least squares fits over those features,
thinned by backward stepwise selection.  Three published coefficient
sets are embedded for direct prediction.  They predict closed-walk
means (every route returns to the depot), while ``bdmtsp sweep``
records open walks unless run with ``--closed``: compare the published
models only against closed sweeps.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import BdmtspError

__all__ = [
    "TERMS",
    "Configuration",
    "CamModel",
    "SweepResult",
    "SelectionStep",
    "feature_matrix",
    "fit_ols",
    "metrics",
    "backward_select",
    "step_model",
    "predict",
    "sweep_configs",
    "PUBLISHED_3F",
    "PUBLISHED_9F",
    "PUBLISHED_16F",
    "published_models",
    "model_to_json",
    "model_from_json",
    "sweep_to_csv",
    "sweep_from_csv",
]

# The model basis: (m, n, d) power triples over the powers 0, 1/2, 1 and
# 2, in odometer order (the m power varies slowest, the d power fastest).
TERMS = tuple(itertools.product((0.0, 0.5, 1.0, 2.0), repeat=3))


@dataclass(frozen=True)
class Configuration:
    """One sweep point: fleet size, customer count, visibility."""

    m: int
    n: int
    d: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.d) < 1:
            raise BdmtspError("configuration components must be >= 1")


def _power(base: float, exp: float) -> float:
    # 0^0 is the intercept convention, not an error
    if exp == 0.0:
        return 1.0
    return base**exp


def _monomials(config, terms) -> list[float]:
    """m^p1 * n^p2 * d^p3 at ``config`` for each power triple in ``terms``.

    Raises when a value overflows or is not finite, so no fit or
    prediction ever sees an inf or a nan feature.
    """
    try:
        if isinstance(config, Configuration):
            m, n, d = float(config.m), float(config.n), float(config.d)
        else:
            m, n, d = (float(v) for v in config)
        if min(m, n, d) < 0:  # a half power would turn complex
            raise BdmtspError("m, n and d must be nonnegative")
        values = [_power(m, p1) * _power(n, p2) * _power(d, p3) for p1, p2, p3 in terms]
    except OverflowError:
        values = [math.inf]
    if not all(map(math.isfinite, values)):
        raise BdmtspError("(m, n, d) too large: model features overflow the float range")
    return values


def feature_matrix(configs: Sequence) -> np.ndarray:
    """Feature rows, one column per ``TERMS`` entry, for each configuration."""
    if len(configs) == 0:
        raise BdmtspError("need at least one configuration")
    out = np.empty((len(configs), len(TERMS)))
    for i, config in enumerate(configs):
        out[i] = _monomials(config, TERMS)
    return out


def fit_ols(X, y) -> np.ndarray:
    """Least-squares coefficients via a rank-revealing orthogonal solve.

    Returns the minimum-norm solution when columns are linearly
    dependent; never forms the normal equations.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.size == 0 or y.ndim != 1:
        raise BdmtspError("need a nonempty 2D matrix and 1D response")
    if X.shape[0] != y.shape[0]:
        raise BdmtspError("row count mismatch between X and y")
    if X.shape[0] < X.shape[1]:
        raise BdmtspError("need at least as many rows as columns")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise BdmtspError("non-finite entries in regression input")
    b, *_ = np.linalg.lstsq(X, y, rcond=None)
    return b


def metrics(y, yhat, p: int, sigma2: float | None = None) -> dict[str, float]:
    """Fit-quality summary for a model with ``p`` features.

    ``rmse_paper`` divides sqrt(SSE) by n (an idiosyncratic variant kept
    for comparability); ``rmse_std`` is the usual sqrt(SSE/n).  ``cp``
    needs the residual variance of the richest model considered; it is
    NaN when ``sigma2`` is not supplied.
    """
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1:
        raise BdmtspError("y and predictions must be equal-length vectors")
    n = len(y)
    if n <= p:
        raise BdmtspError("need more observations than features")
    if np.any(y == 0):
        raise BdmtspError("zero observations break the percentage error")
    resid = y - yhat
    sse = float(resid @ resid)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - sse / sst if sst > 0 else math.nan
    with np.errstate(divide="ignore"):
        log_mean_sse = math.log(sse / n) if sse > 0 else -math.inf
    return {
        "rmse_std": math.sqrt(sse / n),
        "rmse_paper": math.sqrt(sse) / n,
        "mape": float(np.mean(np.abs(resid) / np.abs(y))),
        "cp": (sse + 2 * p * sigma2) / n if sigma2 is not None else math.nan,
        "aic": n * log_mean_sse + 2 * p,
        "bic": n * log_mean_sse + p * math.log(n),
        "adj_r2": 1.0 - (1.0 - r2) * (n - 1) / (n - p - 1)
        if n - p - 1 > 0
        else math.nan,
    }


@dataclass(frozen=True)
class SelectionStep:
    """One backward-selection stage: retained columns and their fit."""

    feature_idx: tuple[int, ...]
    coef: tuple[float, ...]
    sse: float
    stats: dict


def _subset_sse(Xn: np.ndarray, y: np.ndarray, cols: list[int]) -> float:
    b, *_ = np.linalg.lstsq(Xn[:, cols], y, rcond=None)
    r = y - Xn[:, cols] @ b
    return float(r @ r)


def backward_select(X, y) -> list[SelectionStep]:
    """Backward stepwise selection down to a single feature.

    At each stage the feature whose removal minimizes the refitted SSE
    is dropped (ties: lowest column index).  Returns one step per
    feature count, ascending.  Candidate scoring runs on column-scaled
    copies for conditioning; recorded coefficients come from fit_ols on
    the original columns.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    p_full = X.shape[1]
    b_full = fit_ols(X, y)
    resid = y - X @ b_full
    sse_full = float(resid @ resid)
    n = X.shape[0]
    sigma2 = sse_full / (n - p_full) if n > p_full else None

    norms = np.linalg.norm(X, axis=0)
    norms[norms == 0] = 1.0
    Xn = X / norms

    def record(cols: list[int]) -> SelectionStep:
        b = fit_ols(X[:, cols], y)
        yhat = X[:, cols] @ b
        r = y - yhat
        sse = float(r @ r)
        stats = metrics(y, yhat, p=len(cols), sigma2=sigma2)
        return SelectionStep(
            feature_idx=tuple(cols), coef=tuple(float(v) for v in b), sse=sse, stats=stats
        )

    current = list(range(p_full))
    steps = [record(current)]
    while len(current) > 1:
        best_cols = None
        best_sse = math.inf
        for drop in current:
            trial = [c for c in current if c != drop]
            sse = _subset_sse(Xn, y, trial)
            if sse < best_sse:
                best_sse = sse
                best_cols = trial
        current = best_cols
        steps.append(record(current))
    steps.reverse()
    return steps


@dataclass(frozen=True)
class CamModel:
    """Prediction model: monomial terms with coefficients."""

    terms: tuple[tuple[tuple[float, float, float], float], ...]
    provenance: str  # fitted | published_3f | published_9f | published_16f
    fit_stats: dict | None = None

    def __post_init__(self) -> None:
        if not self.terms:
            raise BdmtspError("model needs at least one term")
        for term, coef in self.terms:
            if term not in TERMS or not math.isfinite(coef):
                raise BdmtspError(
                    f"model term {term}: powers must be a basis triple "
                    "(each 0, 0.5, 1 or 2) and the coefficient finite"
                )


def step_model(step: SelectionStep) -> CamModel:
    """Attach power triples to a selection step's retained columns."""
    terms = tuple((TERMS[idx], coef) for idx, coef in zip(step.feature_idx, step.coef))
    return CamModel(terms=terms, provenance="fitted", fit_stats=dict(step.stats))


def predict(model: CamModel, config) -> float:
    """Evaluate the model polynomial at one configuration."""
    values = _monomials(config, [term for term, _ in model.terms])
    total = 0.0
    for (_, coef), value in zip(model.terms, values):
        total += coef * value
    if not math.isfinite(total):
        raise BdmtspError("the model prediction overflows the float range")
    return total


def sweep_configs() -> tuple[Configuration, ...]:
    """The benchmark grid: m 1..7, n 50..500 by 50, d 5..30 by 5.

    Visibility varies fastest, then customers, then vehicles; the grid
    holds 7*10*6 = 420 configurations.
    """
    return tuple(
        Configuration(m=m, n=n, d=d)
        for m in range(1, 8)
        for n in range(50, 501, 50)
        for d in range(5, 31, 5)
    )


@dataclass(frozen=True)
class SweepResult:
    """Mean observed lengths for a configuration list."""

    configs: tuple[Configuration, ...]
    y: tuple[float, ...]
    reps: int
    seed: int

    def __post_init__(self) -> None:
        if len(self.configs) != len(self.y):
            raise BdmtspError("configs and responses must align")


# ---------------------------------------------------------- published


def _model(provenance, rows, stats):
    return CamModel(
        terms=tuple(((p1, p2, p3), b) for p1, p2, p3, b in rows),
        provenance=provenance,
        fit_stats=stats,
    )


# Coefficients transcribed digit-for-digit from the published tables.
PUBLISHED_3F = _model(
    "published_3f",
    (
        (0.0, 1.0, 0.0, 0.391),
        (0.0, 1.0, 0.5, -0.055),
        (1.0, 1.0, 1.0, 2.33e-4),
    ),
    {"mape": 0.0983, "rmse": 5.44, "features": 3},
)

PUBLISHED_9F = _model(
    "published_9f",
    (
        (0.5, 0.0, 0.5, 0.52829),
        (0.0, 1.0, 0.0, 0.29958),
        (1.0, 1.0, 0.0, 0.17818),
        (1.0, 1.0, 0.5, -0.08168),
        (0.0, 1.0, 0.5, -0.03651),
        (2.0, 1.0, 0.0, -0.02354),
        (2.0, 1.0, 0.5, 0.01102),
        (1.0, 1.0, 1.0, 0.00927),
        (2.0, 1.0, 1.0, -0.00126),
    ),
    {"mape": 0.0282, "rmse": 2.35, "features": 9},
)

PUBLISHED_16F = _model(
    "published_16f",
    (
        (0.5, 1.0, 0.0, -2.82526),
        (0.0, 1.0, 0.0, 1.93401),
        (1.0, 1.0, 0.0, 1.56537),
        (0.5, 1.0, 0.5, 1.40787),
        (1.0, 1.0, 0.5, -0.82816),
        (0.0, 1.0, 0.5, -0.81389),
        (0.5, 0.0, 0.5, 0.52925),
        (0.5, 1.0, 1.0, -0.17718),
        (1.0, 1.0, 1.0, 0.11576),
        (2.0, 1.0, 0.0, -0.10610),
        (0.0, 1.0, 1.0, 0.08903),
        (2.0, 1.0, 0.5, 0.06008),
        (2.0, 1.0, 1.0, -0.00922),
        (1.0, 1.0, 2.0, -0.00053),
        (0.5, 1.0, 2.0, 0.00041),
        (2.0, 1.0, 2.0, 0.00006),
    ),
    {"mape": 0.0211, "rmse": 1.68, "features": 16},
)


def published_models() -> dict[str, CamModel]:
    return {
        "published_3f": PUBLISHED_3F,
        "published_9f": PUBLISHED_9F,
        "published_16f": PUBLISHED_16F,
    }


# -------------------------------------------------------- persistence


def model_to_json(model: CamModel) -> str:
    return json.dumps(
        {
            "provenance": model.provenance,
            "terms": [{"powers": list(t), "coef": c} for t, c in model.terms],
            "fit_stats": model.fit_stats,
        },
        indent=2,
    )


def model_from_json(text: str) -> CamModel:
    try:
        raw = json.loads(text)
        terms = tuple(
            (tuple(float(p) for p in t["powers"]), float(t["coef"]))
            for t in raw["terms"]
        )
        return CamModel(
            terms=terms,
            provenance=str(raw.get("provenance", "fitted")),
            fit_stats=raw.get("fit_stats"),
        )
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise BdmtspError(f"invalid model JSON: {exc}") from None


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["m,n,d,mean_len,reps,seed"]
    for config, value in zip(result.configs, result.y):
        lines.append(
            f"{config.m},{config.n},{config.d},{value!r},{result.reps},{result.seed}"
        )
    return "\n".join(lines) + "\n"


def sweep_from_csv(text: str) -> SweepResult:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "m,n,d,mean_len,reps,seed":
        raise BdmtspError("sweep CSV must start with header m,n,d,mean_len,reps,seed")
    configs = []
    values = []
    runs = set()
    for ln in lines[1:]:
        fields = ln.split(",")
        if len(fields) != 6:
            raise BdmtspError(f"sweep CSV row needs 6 fields: {ln!r}")
        m, n, d, value, reps, seed = fields
        try:
            m, n, d, reps, seed = int(m), int(n), int(d), int(reps), int(seed)
            value = float(value)
        except ValueError:
            raise BdmtspError(f"bad sweep CSV row: {ln!r}") from None
        configs.append(Configuration(m=m, n=n, d=d))
        values.append(value)
        runs.add((reps, seed))
    if not configs:
        raise BdmtspError("sweep CSV contains no rows")
    if len(runs) > 1:
        raise BdmtspError("sweep CSV rows disagree on reps/seed")
    reps, seed = runs.pop()
    return SweepResult(configs=tuple(configs), y=tuple(values), reps=reps, seed=seed)
