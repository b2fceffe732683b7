"""Synthetic dataset generators for demos, validation, and tests.

Three families:

- a fixed 1000-row loan-repayment table with exact cell counts, handy
  because every estimator variant has a closed-form value on it;
- Gaussian linear structural models over a sensitive / legitimate /
  suspect DAG, with optional unobserved legitimate covariates that shape
  the response but are withheld from the output;
- a two-group "wine-like" ratings benchmark whose group gap, covariate
  structure, and noise floor are calibrated to the published UCI
  wine-quality summary statistics, for use where the real CSV is absent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import Categorical, ColumnSpec, Dataset, Role, Schema, make_dataset
from ..errors import ContractError
from .trees import require_count


def simple_example_schema(edu_role: Role = Role.LEGITIMATE) -> Schema:
    """Schema for the loan table; pass Role.SUSPECT to re-declare education."""
    if edu_role not in (Role.LEGITIMATE, Role.SUSPECT):
        raise ContractError("education can only be legitimate or suspect")
    return Schema(
        columns=(
            ColumnSpec("default", Role.RESPONSE),
            ColumnSpec("edu", edu_role, categorical=True),
            ColumnSpec("group", Role.SENSITIVE, categorical=True),
        )
    )


def gen_simple_example() -> Dataset:
    """1000-row loan-repayment table with exact per-cell default counts.

    Cells (edu, group): low/s-: 225 defaults of 450; low/s+: 60 of 150;
    high/s-: 20 of 100; high/s+: 30 of 300. Low education and the s-
    group appear first so they become the dropped reference levels.
    """
    cells = (
        ("low", "s-", 225, 225),
        ("low", "s+", 60, 90),
        ("high", "s-", 20, 80),
        ("high", "s+", 30, 270),
    )
    default: list[float] = []
    edu: list[str] = []
    group: list[str] = []
    for edu_level, group_level, yes, no in cells:
        default.extend([1.0] * yes + [0.0] * no)
        edu.extend([edu_level] * (yes + no))
        group.extend([group_level] * (yes + no))
    return make_dataset({"default": default, "edu": edu, "group": group})


@dataclass(frozen=True)
class DagSpec:
    """Gaussian linear structural model over binary sensitive roots.

    Sensitive columns are thresholded standard normals (levels g0/g1);
    the 0/1 indicators feed the structural equations. Unobserved
    legitimate covariates influence the response but are dropped from the
    emitted dataset. Every noise term is a unit Gaussian. A fair model
    has zero direct sensitive->response and suspect->response
    coefficients.
    """

    n: int
    p_s: int
    p_x_observed: int
    p_x_unobserved: int
    p_w: int
    coef_s_to_x: np.ndarray
    coef_s_to_w: np.ndarray
    coef_x_to_y: np.ndarray
    coef_s_to_y: np.ndarray
    coef_w_to_y: np.ndarray
    fair: bool = True
    seed: int = 0

    def __post_init__(self):
        p_x = self.p_x_observed + self.p_x_unobserved
        if min(self.n, self.p_s) < 1 or min(self.p_x_observed, self.p_x_unobserved, self.p_w) < 0:
            raise ContractError("invalid DAG dimensions")
        expected = {
            "coef_s_to_x": (self.p_s, p_x),
            "coef_s_to_w": (self.p_s, self.p_w),
            "coef_x_to_y": (p_x,),
            "coef_s_to_y": (self.p_s,),
            "coef_w_to_y": (self.p_w,),
        }
        for name, shape in expected.items():
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise ContractError(f"{name} must have shape {shape}, got {arr.shape}")
            object.__setattr__(self, name, arr)
        if self.fair and (
            np.any(self.coef_s_to_y != 0) or np.any(self.coef_w_to_y != 0)
        ):
            raise ContractError(
                "a fair DAG requires zero direct sensitive->response and "
                "suspect->response coefficients"
            )


def default_dag_spec(
    n: int = 2000,
    p_s: int = 1,
    p_x_observed: int = 2,
    p_x_unobserved: int = 1,
    p_w: int = 1,
    fair: bool = True,
    seed: int = 0,
) -> DagSpec:
    """Draw a random DagSpec with moderate edge weights."""
    for name, value, minimum in (
        ("n", n, 1), ("p_s", p_s, 1), ("p_x_observed", p_x_observed, 0),
        ("p_x_unobserved", p_x_unobserved, 0), ("p_w", p_w, 0), ("seed", seed, 0),
    ):
        require_count(name, value, minimum)
    rng = np.random.default_rng(seed)
    p_x = p_x_observed + p_x_unobserved
    zeros_s, zeros_w = np.zeros(p_s), np.zeros(p_w)
    return DagSpec(
        n=n,
        p_s=p_s,
        p_x_observed=p_x_observed,
        p_x_unobserved=p_x_unobserved,
        p_w=p_w,
        coef_s_to_x=rng.uniform(-1.0, 1.0, size=(p_s, p_x)),
        coef_s_to_w=rng.uniform(-1.0, 1.0, size=(p_s, p_w)),
        coef_x_to_y=rng.uniform(0.5, 1.5, size=p_x),
        coef_s_to_y=zeros_s if fair else rng.uniform(0.5, 1.5, size=p_s),
        coef_w_to_y=zeros_w if fair else rng.uniform(0.25, 0.75, size=p_w),
        fair=fair,
        seed=seed,
    )


def gen_dag(spec: DagSpec) -> tuple[Dataset, Schema]:
    """Sample along the DAG edges and emit the observed columns plus schema."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    s = (rng.standard_normal((n, spec.p_s)) > 0).astype(float)
    p_x = spec.p_x_observed + spec.p_x_unobserved
    x_all = s @ spec.coef_s_to_x + rng.standard_normal((n, p_x))
    w = s @ spec.coef_s_to_w + rng.standard_normal((n, spec.p_w))
    y = (
        s @ spec.coef_s_to_y
        + x_all @ spec.coef_x_to_y
        + w @ spec.coef_w_to_y
        + rng.standard_normal(n)
    )

    columns: dict[str, object] = {"y": y}
    specs = [ColumnSpec("y", Role.RESPONSE)]
    for j in range(spec.p_s):
        columns[f"s{j}"] = Categorical.from_codes(s[:, j] > 0, ("g0", "g1"))
        specs.append(ColumnSpec(f"s{j}", Role.SENSITIVE, categorical=True))
    for j in range(spec.p_x_observed):
        columns[f"x{j}"] = x_all[:, j]
        specs.append(ColumnSpec(f"x{j}", Role.LEGITIMATE))
    for j in range(spec.p_w):
        columns[f"w{j}"] = w[:, j]
        specs.append(ColumnSpec(f"w{j}", Role.SUSPECT))
    return make_dataset(columns), Schema(columns=tuple(specs))


# Calibration of the wine-like benchmark. Constraints, matching the
# published summary statistics of the combined UCI wine-quality data:
# 25% red wines; raw group mean gap (white - red) 0.24; response sd 0.875;
# the covariate-mediated share of the gap 0.60, the direct share -0.36;
# residual variance 0.535 so a full linear fit leaves rmse ~ 0.73.
_WINE_FEATURES = (
    "fixed_acidity",
    "volatile_acidity",
    "citric_acid",
    "residual_sugar",
    "chlorides",
    "free_sulfur",
    "total_sulfur",
    "density",
    "ph",
    "alcohol",
)
_WINE_BETA_BASE = np.array(
    [0.25, -0.20, 0.18, 0.15, -0.12, 0.10, 0.08, -0.06, 0.05, 0.03]
)
_WINE_ALPHA_BASE = np.array(
    [0.3, -0.2, 0.3, 0.4, -0.5, 0.9, 1.4, -1.1, 0.9, 1.2]
)
_WINE_SIGNAL_VAR = 0.219  # sum beta_j^2
_WINE_MEDIATED_GAP = 0.60  # sum beta_j alpha_j
_WINE_DIRECT_GAP = -0.36  # white coefficient given covariates
_WINE_NOISE_SD = float(np.sqrt(0.535))
_WINE_MEAN = 5.82
_WINE_P_RED = 0.25
_WINE_OFFSETS = np.array([7.2, 0.34, 0.32, 5.4, 0.056, 30.5, 115.7, 0.995, 3.22, 10.5])

_WINE_BETA = _WINE_BETA_BASE * float(
    np.sqrt(_WINE_SIGNAL_VAR / np.sum(_WINE_BETA_BASE**2))
)
_WINE_ALPHA = _WINE_ALPHA_BASE * (
    _WINE_MEDIATED_GAP / float(_WINE_BETA @ _WINE_ALPHA_BASE)
)


def wine_like_schema(covariate_role: Role = Role.LEGITIMATE) -> Schema:
    cols = [
        ColumnSpec("quality", Role.RESPONSE),
        ColumnSpec("type", Role.SENSITIVE, categorical=True),
    ]
    cols += [ColumnSpec(name, covariate_role) for name in _WINE_FEATURES]
    return Schema(columns=tuple(cols))


def gen_wine_like(n: int = 6497, seed: int = 0) -> tuple[Dataset, Schema]:
    """Two-group ratings benchmark shaped like the UCI wine-quality data.

    Ten covariates are group-shifted unit Gaussians; the rating is linear
    in them plus a direct group term and Gaussian noise. Red wines make
    up 25% of rows (exact count, shuffled order).
    """
    require_count("n", n, 8)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n_red = int(np.floor(_WINE_P_RED * n + 0.5))
    white = np.ones(n)
    white[:n_red] = 0.0
    rng.shuffle(white)

    z = rng.standard_normal((n, len(_WINE_FEATURES)))
    x = _WINE_OFFSETS + white[:, None] * _WINE_ALPHA + z
    intercept = _WINE_MEAN - 0.75 * (_WINE_DIRECT_GAP + _WINE_MEDIATED_GAP)
    quality = (
        intercept
        + _WINE_DIRECT_GAP * white
        + (x - _WINE_OFFSETS) @ _WINE_BETA
        + _WINE_NOISE_SD * rng.standard_normal(n)
    )

    columns: dict[str, object] = {
        "quality": quality,
        "type": Categorical.from_codes(white > 0, ("red", "white")),
    }
    for j, name in enumerate(_WINE_FEATURES):
        columns[name] = x[:, j]
    return make_dataset(columns), wine_like_schema()
