"""Synthetic data generation and missingness amputation.

Generators produce fully observed Datasets: i.i.d. standard normal columns,
or a Clayton copula with per-column margins (standard exponential,
chi-squared with 4 df, or uniform).  ``apply_mechanism`` then masks cells of
the designated incomplete columns under one of four mechanisms:

* ``mcar``       -- every cell independently with one probability
* ``mar_1_to_x`` -- cells whose control value lies above the control median
                    are x times more likely to be missing
* ``mar_rank``   -- a fixed count of cells drawn with probability
                    proportional to the rank of the control value
* ``mar_mean``   -- two missingness probabilities split at the control mean

Controls are always complete columns, so every mechanism here is MAR (or
MCAR), never MNAR.

A mechanism is checked in two steps.  ``MechanismSpec`` checks its
parameters on their own: the kind, ``miss_prob`` in [0, 1], ``odds`` >= 1
and the mar_1_to_x high-group rate 2px/(x+1) <= 1, the ``p_high``/``p_low``
rates in [0, 1] and of equal count.  Each kind reads only its own optional
fields (``MECHANISM_KINDS``): ``miss_prob`` is for mcar, mar_1_to_x and
mar_rank, ``odds`` for mar_1_to_x, ``controls`` for every kind but mcar,
``p_high``/``p_low`` for mar_mean, and ``target_columns`` for all.  A field
the kind does not read is an error, not ignored; a ``DistributionSpec`` is
held to the same rule (``theta`` and ``margins`` are for clayton only).
``fit_mechanism`` checks it against the column roles of a dataset: every
target incomplete, every control complete, one control and one mar_mean
rate pair per target.  It resolves
the default targets and controls, and ``amputate_block`` calls it once.
The numeric fields of both specs take numbers only (``check_number``,
``check_integer``): a quoted number or a bool from a JSON file is an error,
not converted.  Both specs, and ``harness.Scenario``, read and write their
JSON through one field-driven pair, ``Spec.to_dict`` and ``Spec.from_dict``.

The Monte-Carlo harness makes R datasets of one shape at a time, as one
(R, n, d) value array and one mask.  ``generate_block`` and
``amputate_block`` work on those arrays: each replication's draws come
from its own generator, in the order a lone dataset draws them, and the
rest (Clayton's margins, the medians and means that split the rows,
mar_rank's control ranks, the masks) runs once over the block.
``generate`` and ``apply_mechanism`` are their calls for one dataset.
"""

import numbers
from dataclasses import MISSING, dataclass, fields
from functools import partial
from itertools import cycle, repeat

import numpy as np

from .data import ColumnRoles, Dataset
from .errors import DegenerateDataError
from .numerics import chi2_quantile, median, ranks

__all__ = [
    "Spec",
    "DistributionSpec",
    "MechanismSpec",
    "check_number",
    "check_integer",
    "pattern_names",
    "generate_block",
    "generate",
    "fit_mechanism",
    "amputate_block",
    "apply_mechanism",
]

# each kind with the optional fields it reads; a spec rejects any other
DISTRIBUTION_KINDS = {"std_normal": (), "clayton": ("theta", "margins")}
MARGIN_KINDS = ("exp1", "chisq4", "uniform")
MECHANISM_KINDS = {
    "mcar": ("target_columns", "miss_prob"),
    "mar_1_to_x": ("target_columns", "miss_prob", "odds", "controls"),
    "mar_rank": ("target_columns", "miss_prob", "controls"),
    "mar_mean": ("target_columns", "controls", "p_high", "p_low"),
}

# default per-target (p_high, p_low) pairs for mar_mean, cycled over targets
DEFAULT_MAR_MEAN_RATES = ((0.12, 0.06), (0.02, 0.175))


def check_number(value, name) -> float:
    """``value`` as a float; ValueError naming the field ``name`` unless it is
    a real number.  Strings and bools are not numbers here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def check_integer(value, name) -> int:
    """``value`` as an int; ValueError naming the field ``name`` unless it is
    an integral number (``7`` or ``7.0``, not ``7.5``, ``"7"`` or ``True``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not (
        isinstance(value, numbers.Integral) or float(value).is_integer()
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


class Spec:
    """JSON for a frozen dataclass, built from its fields.

    ``to_dict`` gives every field that is not None, a tuple as a list and a
    nested Spec as an object.  ``from_dict`` reads that document back: it
    rejects a key that names no field, a tuple field that is not a list, a
    null where the field's default is not None, and a missing required
    field, each with a ValueError naming the field and the class it was
    in; an error inside a nested Spec also names the field that holds it.
    The dataclass checks the values.
    """

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Spec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            if value is not None:
                out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r}")
        known = {f.name: f for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ValueError(f"unknown field {key!r} in {cls.__name__}")
        kwargs = {}
        for name, f in known.items():
            if name not in d:
                if f.default is MISSING:
                    raise ValueError(f"{cls.__name__} is missing required field {name!r}")
                continue
            value = d[name]
            if value is None:
                if f.default is not None:
                    raise ValueError(f"{name} must not be null")
            elif isinstance(f.type, type) and issubclass(f.type, Spec):
                try:
                    value = f.type.from_dict(value)
                except ValueError as exc:
                    raise ValueError(f"{cls.__name__} field {name!r}: {exc}") from None
            elif f.type is tuple:
                if not isinstance(value, list):
                    raise ValueError(f"{name} must be a list, got {value!r}")
                value = tuple(value)
            kwargs[name] = value
        return cls(**kwargs)


def _check_kind(spec, kinds: dict, what: str) -> None:
    """ValueError unless ``spec.kind`` is one of ``kinds`` and every optional
    field the kind does not read is None."""
    if spec.kind not in kinds:
        raise ValueError(
            f"unknown {what} kind {spec.kind!r}; expected one of {tuple(kinds)}"
        )
    for f in fields(spec):
        if f.default is None and f.name not in kinds[spec.kind]:
            if getattr(spec, f.name) is not None:
                raise ValueError(f"{spec.kind} takes no {f.name}")


def _check_prob(value, name) -> float:
    value = check_number(value, name)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class DistributionSpec(Spec):
    """What to sample: independent standard normals or a Clayton copula.

    ``theta`` and ``margins`` apply to the copula only; ``margins`` names
    one marginal distribution per column.
    """

    kind: str
    dim: int
    theta: float = None
    margins: tuple = None

    def __post_init__(self):
        _check_kind(self, DISTRIBUTION_KINDS, "distribution")
        object.__setattr__(self, "dim", check_integer(self.dim, "dim"))
        if self.dim < 1:
            raise ValueError(f"dim must be positive, got {self.dim}")
        if self.kind == "std_normal":
            return
        if self.dim < 2:
            raise ValueError("a copula needs dim >= 2")
        theta = None if self.theta is None else check_number(self.theta, "theta")
        if theta is None or theta <= 0.0:
            raise ValueError(f"clayton theta must be > 0, got {self.theta}")
        object.__setattr__(self, "theta", theta)
        margins = tuple(self.margins) if self.margins is not None else None
        if margins is None or len(margins) != self.dim:
            raise ValueError(f"clayton needs one margin per column ({self.dim})")
        for m in margins:
            if m not in MARGIN_KINDS:
                raise ValueError(
                    f"unknown margin {m!r}; expected one of {MARGIN_KINDS}"
                )
        object.__setattr__(self, "margins", margins)


@dataclass(frozen=True)
class MechanismSpec(Spec):
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
        _check_kind(self, MECHANISM_KINDS, "mechanism")
        for name in ("target_columns", "controls"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(
                    self, name, tuple(check_integer(j, f"{name} entry") for j in value)
                )
        if self.target_columns == ():
            raise ValueError(
                "target_columns is empty; leave it out to target every incomplete column"
            )
        if "miss_prob" in MECHANISM_KINDS[self.kind]:
            if self.miss_prob is None:
                raise ValueError(f"{self.kind} requires miss_prob")
            object.__setattr__(
                self, "miss_prob", _check_prob(self.miss_prob, "miss_prob")
            )
        if self.kind == "mar_1_to_x":
            odds = 9.0 if self.odds is None else check_number(self.odds, "odds")
            if odds < 1.0:
                raise ValueError(f"odds must be >= 1, got {odds}")
            if 2.0 * self.miss_prob * odds / (odds + 1.0) > 1.0 + 1e-12:
                raise ValueError(
                    f"high-group probability 2*p*x/(x+1) exceeds 1 "
                    f"for p={self.miss_prob}, x={odds}"
                )
            object.__setattr__(self, "odds", odds)
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


def pattern_names(p: int, q: int) -> tuple:
    """Column names x1..xp, y1..yq for a p-complete, q-incomplete layout."""
    return tuple(f"x{u}" for u in range(1, p + 1)) + tuple(
        f"y{v}" for v in range(1, q + 1)
    )


def generate_block(spec: DistributionSpec, rngs, out: np.ndarray) -> np.ndarray:
    """Fill ``out``, an (R, n, d) array, with R fully observed datasets.

    ``out[i]`` draws from the i-th generator of the iterable ``rngs`` alone,
    and gives the same bits in a block of any size.  Standard normals fill
    it row by row.  The Clayton copula is a mixture: one Gamma(1/theta, 1)
    frailty per row, then independent Exp(1) shocks per cell, and
    U = (1 + E/V)^(-1/theta); each margin is applied columnwise to U
    through its quantile function.  Returns ``out``.
    """
    if spec.kind == "std_normal":
        for rng, values in zip(rngs, out):
            rng.standard_normal(values.shape, out=values)
        return out
    frailty = np.empty(out.shape[:2])
    for rng, v, values in zip(rngs, frailty, out):
        rng.standard_gamma(1.0 / spec.theta, out=v)
        rng.standard_exponential(values.shape, out=values)
    out /= frailty[..., None]
    out += 1.0
    out **= -1.0 / spec.theta
    for j, margin in enumerate(spec.margins):
        if margin == "exp1":
            out[..., j] = -np.log1p(-out[..., j])
        elif margin == "chisq4":
            out[..., j] = chi2_quantile(out[..., j], 4)
    return out


def generate(spec: DistributionSpec, n: int, rng, names=None) -> Dataset:
    """Sample a fully observed dataset according to the distribution spec.

    The one-dataset call of ``generate_block``; ``names`` defaults to
    c1..cd.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    block = generate_block(spec, [rng], np.empty((1, n, spec.dim)))
    mask = np.ones(block.shape[1:], dtype=bool)
    # no one else holds these arrays, so the Dataset can keep them as they are
    block.setflags(write=False)
    mask.setflags(write=False)
    if names is None:
        names = tuple(f"c{j}" for j in range(1, spec.dim + 1))
    return Dataset(block[0], mask, names)


def fit_mechanism(spec: MechanismSpec, roles: ColumnRoles) -> tuple:
    """Check that ``spec`` fits ``roles``; return its (targets, controls).

    Targets default to every incomplete column, and controls to a
    round-robin pairing: the v-th target with the (v mod p)-th complete
    column; ``mcar`` has none (None).  Raises DegenerateDataError when the
    targets default to the incomplete columns and there are none, and
    ValueError for a target that is not incomplete, a control that is not
    complete, or a count of controls or mar_mean rates that does not match
    the targets.
    """
    targets = roles.incomplete if spec.target_columns is None else spec.target_columns
    if not targets:
        raise DegenerateDataError("no target columns to amputate")
    for j in targets:
        if j not in roles.incomplete:
            raise ValueError(f"target column {j} is not one of the incomplete columns")
    if spec.kind == "mcar":
        return targets, None
    controls = spec.controls
    if controls is None:
        controls = tuple(roles.complete[v % roles.p] for v in range(len(targets)))
    elif len(controls) != len(targets):
        raise ValueError(
            f"need one control per target ({len(targets)}), got {len(controls)}"
        )
    for c in controls:
        if c not in roles.complete:
            raise ValueError(f"control column {c} is not a complete column")
    if spec.p_high is not None and len(spec.p_high) != len(targets):
        raise ValueError(
            f"mar_mean needs one (p_high, p_low) pair per target "
            f"({len(targets)}), got {len(spec.p_high)}"
        )
    return targets, controls


def amputate_block(
    values: np.ndarray, mask: np.ndarray, roles: ColumnRoles, spec: MechanismSpec, rngs
) -> None:
    """Clear, in ``mask``, the target cells that ``spec`` amputates.

    ``values`` and ``mask`` are (R, n, d) stacks of R datasets; dataset i
    draws from the i-th generator of the iterable ``rngs`` alone, and its
    mask gets the same bits in a block of any size.

    ``mcar``, ``mar_1_to_x`` and ``mar_mean`` mask each target cell
    independently: a dataset draws ``rng.random((len(targets), n))``, one
    row of uniforms per target in target order.  The per-row rate is
    ``miss_prob`` for mcar; otherwise rows whose control lies strictly
    above its median (mar_1_to_x) or mean (mar_mean) take the high-group
    rate, and ties go low.  mar_1_to_x's rates solve p_high = x * p_low
    with mean rate p: p_high = 2px/(x+1), p_low = 2p/(x+1), so x = 1 is
    mcar draw for draw.  ``mar_rank`` masks exactly round(n*p) cells per
    target, one ``rng.choice`` without replacement weighted by the
    control's average ranks.
    """
    targets, controls = fit_mechanism(spec, roles)
    n = values.shape[1]
    if spec.kind == "mar_rank":
        m = int(np.floor(n * spec.miss_prob + 0.5))
        if m == 0:
            return
        # each control ranked once over the block; midranks sum exactly to
        # n(n+1)/2, so every row divides by the sum a lone dataset's does
        weights = {c: ranks(values[..., c]) for c in set(controls)}
        probs = {c: w / w.sum(axis=-1, keepdims=True) for c, w in weights.items()}
        for i, (rng, held) in enumerate(zip(rngs, mask)):
            for j, c in zip(targets, controls):
                held[rng.choice(n, size=m, replace=False, p=probs[c][i]), j] = False
        return
    uniforms = np.empty((len(values), len(targets), n))
    for rng, u in zip(rngs, uniforms):
        rng.random(u.shape, out=u)
    if spec.kind == "mcar":
        thresholds = repeat(spec.miss_prob)
    else:
        # one (p_high, p_low) pair per target; zip stops at the last control
        if spec.kind == "mar_1_to_x":
            p, x = spec.miss_prob, spec.odds
            rates = repeat((min(2.0 * p * x / (x + 1.0), 1.0), 2.0 * p / (x + 1.0)))
            center = median
        else:
            rates = (
                cycle(DEFAULT_MAR_MEAN_RATES) if spec.p_high is None
                else zip(spec.p_high, spec.p_low)
            )
            center = partial(np.mean, axis=-1)
        # targets sharing a control share its split; a row's centre sums
        # its own control values only, in the order a lone dataset does
        split = {
            c: values[..., c] > center(values[..., c])[:, None]
            for c in set(controls)
        }
        thresholds = [np.where(split[c], hi, lo) for c, (hi, lo) in zip(controls, rates)]
    for j, u, threshold in zip(targets, uniforms.transpose(1, 0, 2), thresholds):
        mask[..., j] &= u >= threshold


def apply_mechanism(ds: Dataset, roles: ColumnRoles, spec: MechanismSpec, rng) -> Dataset:
    """Mask target cells of ``ds`` under the mechanism ``spec``.

    The one-dataset call of ``amputate_block``, which describes the
    mechanisms and their draws.  Cells already missing in ``ds`` stay
    missing.
    """
    mask = np.array(ds.mask)
    amputate_block(ds.values[None], mask[None], roles, spec, [rng])
    return ds.with_mask(mask)
