"""Synthetic data generation and missingness amputation.

Generators produce fully observed Datasets: i.i.d. standard normal columns,
or a Clayton copula with per-column margins (standard exponential,
chi-squared with 4 df, or uniform).  Amputation routines then mask cells of
the designated incomplete columns under one of four mechanisms:

* ``mcar``       -- every cell independently with one probability
* ``mar_1_to_x`` -- cells whose control value lies above the control median
                    are x times more likely to be missing
* ``mar_rank``   -- a fixed count of cells drawn with probability
                    proportional to the rank of the control value
* ``mar_mean``   -- two missingness probabilities split at the control mean

Controls are always complete columns, so every mechanism here is MAR (or
MCAR), never MNAR.
"""

from dataclasses import dataclass

import numpy as np

from .data import ColumnRoles, Dataset
from .errors import DegenerateDataError
from .numerics import chi2_quantile, ranks

__all__ = [
    "DistributionSpec",
    "MechanismSpec",
    "pattern_names",
    "gen_std_normal",
    "gen_clayton",
    "generate",
    "default_controls",
    "apply_mcar",
    "apply_mar_1_to_x",
    "apply_mar_rank",
    "apply_mar_mean",
    "apply_mechanism",
]

DISTRIBUTION_KINDS = ("std_normal", "clayton")
MARGIN_KINDS = ("exp1", "chisq4", "uniform")
MECHANISM_KINDS = ("mcar", "mar_1_to_x", "mar_rank", "mar_mean")

# default per-target (p_high, p_low) pairs for mar_mean, cycled over targets
DEFAULT_MAR_MEAN_RATES = ((0.12, 0.06), (0.02, 0.175))


def _check_prob(value, name) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class DistributionSpec:
    """What to sample: independent standard normals or a Clayton copula.

    ``theta`` and ``margins`` apply to the copula only; ``margins`` names
    one marginal distribution per column.
    """

    kind: str
    dim: int
    theta: float = None
    margins: tuple = None

    def __post_init__(self):
        if self.kind not in DISTRIBUTION_KINDS:
            raise ValueError(
                f"unknown distribution kind {self.kind!r}; "
                f"expected one of {DISTRIBUTION_KINDS}"
            )
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.kind == "std_normal":
            if self.theta is not None or self.margins is not None:
                raise ValueError("std_normal takes no theta or margins")
            return
        if self.dim < 2:
            raise ValueError("a copula needs dim >= 2")
        if self.theta is None or float(self.theta) <= 0.0:
            raise ValueError(f"clayton theta must be > 0, got {self.theta}")
        object.__setattr__(self, "theta", float(self.theta))
        margins = tuple(self.margins) if self.margins is not None else None
        if margins is None or len(margins) != self.dim:
            raise ValueError(f"clayton needs one margin per column ({self.dim})")
        for m in margins:
            if m not in MARGIN_KINDS:
                raise ValueError(
                    f"unknown margin {m!r}; expected one of {MARGIN_KINDS}"
                )
        object.__setattr__(self, "margins", margins)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "dim": self.dim}
        if self.kind == "clayton":
            out["theta"] = self.theta
            out["margins"] = list(self.margins)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "DistributionSpec":
        return cls(
            kind=d["kind"],
            dim=d["dim"],
            theta=d.get("theta"),
            margins=tuple(d["margins"]) if d.get("margins") is not None else None,
        )


@dataclass(frozen=True)
class MechanismSpec:
    """How to remove cells.

    ``target_columns`` are dataset column indices; None means every
    incomplete column of the roles in effect.  ``controls`` pairs each
    target with a complete column (None selects a round-robin pairing).
    ``p_high``/``p_low`` are the per-target group rates for mar_mean;
    left as None they cycle through the stock configuration
    (0.12, 0.06), (0.02, 0.175).
    """

    kind: str
    target_columns: tuple = None
    miss_prob: float = None
    odds: float = None
    controls: tuple = None
    p_high: tuple = None
    p_low: tuple = None

    def __post_init__(self):
        if self.kind not in MECHANISM_KINDS:
            raise ValueError(
                f"unknown mechanism kind {self.kind!r}; "
                f"expected one of {MECHANISM_KINDS}"
            )
        for name in ("target_columns", "controls"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(int(j) for j in value))
        if self.kind in ("mcar", "mar_1_to_x", "mar_rank"):
            if self.miss_prob is None:
                raise ValueError(f"{self.kind} requires miss_prob")
            object.__setattr__(
                self, "miss_prob", _check_prob(self.miss_prob, "miss_prob")
            )
        if self.kind == "mar_1_to_x":
            odds = 9.0 if self.odds is None else float(self.odds)
            if odds < 1.0:
                raise ValueError(f"odds must be >= 1, got {odds}")
            if 2.0 * self.miss_prob * odds / (odds + 1.0) > 1.0 + 1e-12:
                raise ValueError(
                    f"high-group probability 2*p*x/(x+1) exceeds 1 "
                    f"for p={self.miss_prob}, x={odds}"
                )
            object.__setattr__(self, "odds", odds)
        elif self.odds is not None:
            raise ValueError(f"odds only applies to mar_1_to_x, not {self.kind}")
        if self.kind == "mar_mean":
            for name in ("p_high", "p_low"):
                value = getattr(self, name)
                if value is not None:
                    object.__setattr__(
                        self,
                        name,
                        tuple(_check_prob(v, name) for v in value),
                    )
            if (self.p_high is None) != (self.p_low is None):
                raise ValueError("p_high and p_low must be given together")
            if self.p_high is not None and len(self.p_high) != len(self.p_low):
                raise ValueError("p_high and p_low must have equal length")
        elif self.p_high is not None or self.p_low is not None:
            raise ValueError(f"p_high/p_low only apply to mar_mean, not {self.kind}")

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        for name in ("target_columns", "miss_prob", "odds", "controls"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value) if isinstance(value, tuple) else value
        for name in ("p_high", "p_low"):
            value = getattr(self, name)
            if value is not None:
                out[name] = list(value)
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "MechanismSpec":
        def _tup(key):
            return tuple(d[key]) if d.get(key) is not None else None

        return cls(
            kind=d["kind"],
            target_columns=_tup("target_columns"),
            miss_prob=d.get("miss_prob"),
            odds=d.get("odds"),
            controls=_tup("controls"),
            p_high=_tup("p_high"),
            p_low=_tup("p_low"),
        )


def pattern_names(p: int, q: int) -> tuple:
    """Column names x1..xp, y1..yq for a p-complete, q-incomplete layout."""
    return tuple(f"x{u}" for u in range(1, p + 1)) + tuple(
        f"y{v}" for v in range(1, q + 1)
    )


def gen_std_normal(n: int, d: int, rng, names=None) -> Dataset:
    """Fully observed n x d matrix of i.i.d. standard normal entries."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    values = rng.standard_normal((n, d))
    if names is None:
        names = tuple(f"c{j}" for j in range(1, d + 1))
    return Dataset(values, np.ones((n, d), dtype=bool), names)


def gen_clayton(n: int, spec: DistributionSpec, rng, names=None) -> Dataset:
    """Clayton-copula sample with the margins listed in ``spec.margins``.

    Mixture construction: one Gamma(1/theta, 1) frailty per row, independent
    Exp(1) shocks per cell, U = (1 + E/V)^(-1/theta).  Margins are applied
    columnwise to the common copula draw through their quantile functions.
    """
    if spec.kind != "clayton":
        raise ValueError(f"gen_clayton needs a clayton spec, got {spec.kind!r}")
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    theta = spec.theta
    v = rng.gamma(1.0 / theta, 1.0, size=n)
    e = rng.exponential(1.0, size=(n, spec.dim))
    u = (1.0 + e / v[:, None]) ** (-1.0 / theta)

    values = np.empty_like(u)
    for j, margin in enumerate(spec.margins):
        if margin == "exp1":
            values[:, j] = -np.log1p(-u[:, j])
        elif margin == "chisq4":
            values[:, j] = chi2_quantile(u[:, j], 4)
        else:
            values[:, j] = u[:, j]
    if names is None:
        names = tuple(f"c{j}" for j in range(1, spec.dim + 1))
    return Dataset(values, np.ones((n, spec.dim), dtype=bool), names)


def generate(spec: DistributionSpec, n: int, rng, names=None) -> Dataset:
    """Sample a fully observed dataset according to the distribution spec."""
    if spec.kind == "std_normal":
        return gen_std_normal(n, spec.dim, rng, names)
    return gen_clayton(n, spec, rng, names)


def _resolve_targets(roles: ColumnRoles, targets) -> tuple:
    if targets is None:
        targets = roles.incomplete
    targets = tuple(int(j) for j in targets)
    if not targets:
        raise DegenerateDataError("no target columns to amputate")
    allowed = set(roles.incomplete)
    for j in targets:
        if j not in allowed:
            raise ValueError(
                f"target column {j} is not one of the incomplete columns"
            )
    return targets


def _resolve_controls(roles: ColumnRoles, targets, controls) -> tuple:
    if controls is None:
        return default_controls(roles, len(targets))
    controls = tuple(int(j) for j in controls)
    if len(controls) != len(targets):
        raise ValueError(
            f"need one control per target ({len(targets)}), got {len(controls)}"
        )
    allowed = set(roles.complete)
    for j in controls:
        if j not in allowed:
            raise ValueError(f"control column {j} is not a complete column")
    return controls


def default_controls(roles: ColumnRoles, n_targets: int) -> tuple:
    """Round-robin pairing: the v-th target is controlled by the
    (v mod p)-th complete column."""
    return tuple(roles.complete[v % roles.p] for v in range(n_targets))


def apply_mcar(ds: Dataset, roles: ColumnRoles, p, rng, targets=None) -> Dataset:
    """Mask each target cell independently with probability p."""
    p = _check_prob(p, "miss_prob")
    targets = _resolve_targets(roles, targets)
    mask = np.array(ds.mask)
    for j in targets:
        mask[:, j] &= rng.random(ds.n) >= p
    return ds.with_mask(mask)


def apply_mar_1_to_x(
    ds: Dataset, roles: ColumnRoles, p, x, rng, controls=None, targets=None
) -> Dataset:
    """Mask target cells at odds x : 1 above versus below the control median.

    Group rates solve p_high = x * p_low with mean rate p, giving
    p_high = 2px/(x+1) and p_low = 2p/(x+1).  Rows strictly above the
    median form the high group; ties go low.  With x = 1 this is exactly
    apply_mcar, draw for draw.
    """
    p = _check_prob(p, "miss_prob")
    x = float(x)
    if x < 1.0:
        raise ValueError(f"odds must be >= 1, got {x}")
    p_high = 2.0 * p * x / (x + 1.0)
    p_low = 2.0 * p / (x + 1.0)
    if p_high > 1.0 + 1e-12:
        raise ValueError(
            f"high-group probability {p_high:.4f} exceeds 1; lower p or x"
        )
    targets = _resolve_targets(roles, targets)
    controls = _resolve_controls(roles, targets, controls)
    mask = np.array(ds.mask)
    thresholds = {}  # per control column: targets sharing a control share its median
    for j, c in zip(targets, controls):
        if c not in thresholds:
            control = ds.values[:, c]
            high = control > np.median(control)
            thresholds[c] = np.where(high, min(p_high, 1.0), p_low)
        mask[:, j] &= rng.random(ds.n) >= thresholds[c]
    return ds.with_mask(mask)


def apply_mar_rank(
    ds: Dataset, roles: ColumnRoles, p, rng, controls=None, targets=None
) -> Dataset:
    """Mask a fixed count of target cells, drawn by control-column rank.

    Exactly round(n*p) rows per target are drawn without replacement with
    selection weights proportional to the ranks of the control values
    (average ranks on ties), so higher control values are more likely to
    lose their pair.
    """
    p = _check_prob(p, "miss_prob")
    targets = _resolve_targets(roles, targets)
    controls = _resolve_controls(roles, targets, controls)
    n = ds.n
    m = int(np.floor(n * p + 0.5))
    mask = np.array(ds.mask)
    for j, c in zip(targets, controls):
        if m == 0:
            continue
        weights = ranks(ds.values[:, c])
        weights = weights / weights.sum()
        chosen = rng.choice(n, size=m, replace=False, p=weights)
        mask[chosen, j] = False
    return ds.with_mask(mask)


def apply_mar_mean(ds: Dataset, roles: ColumnRoles, rules, rng) -> Dataset:
    """Mask target cells at one of two rates split at the control mean.

    ``rules``: one (target, control, p_high, p_low) tuple per target.
    Rows with control strictly greater than the control's mean are masked
    with p_high, the rest with p_low.  A constant control puts every row
    in the low group.
    """
    rules = tuple(rules)
    if not rules:
        raise DegenerateDataError("no mar_mean rules given")
    targets = _resolve_targets(roles, tuple(r[0] for r in rules))
    _resolve_controls(roles, targets, tuple(r[1] for r in rules))
    mask = np.array(ds.mask)
    high = {}  # per control column: targets sharing a control share its mean
    for j, c, p_high, p_low in rules:
        p_high = _check_prob(p_high, "p_high")
        p_low = _check_prob(p_low, "p_low")
        if c not in high:
            control = ds.values[:, c]
            high[c] = control > control.mean()
        threshold = np.where(high[c], p_high, p_low)
        mask[:, int(j)] &= rng.random(ds.n) >= threshold
    return ds.with_mask(mask)


def apply_mechanism(ds: Dataset, roles: ColumnRoles, spec: MechanismSpec, rng) -> Dataset:
    """Apply the mechanism described by ``spec`` to the dataset."""
    targets = _resolve_targets(roles, spec.target_columns)
    if spec.kind == "mcar":
        return apply_mcar(ds, roles, spec.miss_prob, rng, targets=targets)
    if spec.kind == "mar_1_to_x":
        return apply_mar_1_to_x(
            ds, roles, spec.miss_prob, spec.odds, rng,
            controls=spec.controls, targets=targets,
        )
    if spec.kind == "mar_rank":
        return apply_mar_rank(
            ds, roles, spec.miss_prob, rng,
            controls=spec.controls, targets=targets,
        )
    controls = _resolve_controls(roles, targets, spec.controls)
    if spec.p_high is not None:
        pairs = list(zip(spec.p_high, spec.p_low))
        if len(pairs) != len(targets):
            raise ValueError(
                f"mar_mean needs one (p_high, p_low) pair per target "
                f"({len(targets)}), got {len(pairs)}"
            )
    else:
        pairs = [
            DEFAULT_MAR_MEAN_RATES[v % len(DEFAULT_MAR_MEAN_RATES)]
            for v in range(len(targets))
        ]
    rules = [
        (j, c, ph, pl)
        for (j, c), (ph, pl) in zip(zip(targets, controls), pairs)
    ]
    return apply_mar_mean(ds, roles, rules, rng)
