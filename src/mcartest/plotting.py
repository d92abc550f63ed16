"""Standalone SVG rendering of rejection-rate curves.

One polyline per test method over the swept field (missingness probability
or sample size), each with a translucent Wilson-interval band, plus a dashed
reference line at the nominal level.  The quadratic-form test is drawn in
orange and Little's d2 in blue, the convention used throughout; no plotting
library is involved and output bytes depend only on the input rows.
"""

import math

from .errors import DataFormatError

__all__ = ["TEST_COLORS", "render_rate_chart"]

TEST_COLORS = {
    "an": "#ff8c00",
    "d2": "#1f77b4",
    "d2_univariate": "#1f77b4",
    "d2_general": "#1f77b4",
    "dn": "#2ca02c",
}

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 64, 24, 24, 56


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def _number(row, field, i):
    raw = row[field]
    try:
        value = float(raw)
    except (TypeError, ValueError):
        value = math.nan
    if math.isfinite(value):
        return value
    raise DataFormatError(f"row {i} (test {row['test']!r}): {field} {raw!r} is not a finite number")


def _collect_series(rows, x_field):
    """Group (x, rate, ci_low, ci_high) by test tag, sorted by x."""
    fields = ("test", x_field, "rate", "ci_low", "ci_high")
    series: dict[str, list] = {}
    for i, row in enumerate(rows, start=1):
        missing = [repr(f) for f in fields if f not in row]
        if missing:
            raise DataFormatError(f"not a results table: missing {', '.join(missing)}")
        x, *rates = (_number(row, f, i) for f in fields[1:])
        series.setdefault(row["test"], []).append((x, *map(_clamp01, rates)))
    for tag, points in series.items():
        xs = [pt[0] for pt in points]
        if len(set(xs)) != len(xs):
            raise DataFormatError(
                f"test {tag!r} has duplicate x values; the input mixes sweeps"
            )
        points.sort(key=lambda pt: pt[0])
    return series


def render_rate_chart(rows, out_path, alpha: float = 0.05) -> None:
    """Write an SVG rate chart for parsed results rows.

    ``rows``: mappings with keys test, rate, ci_low, ci_high and the swept
    field, ``n`` when the rows' n varies and their ``param`` does not, else
    ``param``.  Values may be strings straight from the results CSV.
    Raises DataFormatError when a key is missing or a value is not a finite
    number, when there is nothing to draw (fewer than two distinct x
    values), or when rows from different sweeps are mixed.
    """
    rows = list(rows)
    if not rows:
        raise DataFormatError("nothing to plot: no input rows")
    distinct = {field: len({row.get(field) for row in rows}) for field in ("n", "param")}
    x_field = "n" if distinct["n"] > 1 and distinct["param"] == 1 else "param"
    series = _collect_series(rows, x_field)
    all_x = sorted({x for pts in series.values() for x, *_ in pts})
    if len(all_x) < 2:
        raise DataFormatError("nothing to plot: need at least two distinct x values")

    x_min, x_max = all_x[0], all_x[-1]
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(x: float) -> float:
        return _LEFT + (x - x_min) / (x_max - x_min) * plot_w

    def sy(y: float) -> float:
        return _TOP + (1.0 - y) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    # gridlines and y ticks every 0.2
    for k in range(6):
        y = k / 5.0
        py = _fmt(sy(y))
        parts.append(
            f'<line x1="{_LEFT}" y1="{py}" x2="{_WIDTH - _RIGHT}" y2="{py}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{py}" font-size="12" '
            'text-anchor="end" dominant-baseline="middle" '
            f'font-family="sans-serif">{y:.1f}</text>'
        )

    x_ticks = all_x if len(all_x) <= 10 else [
        x_min + i * (x_max - x_min) / 5.0 for i in range(6)
    ]
    for x in x_ticks:
        px = _fmt(sx(x))
        parts.append(
            f'<line x1="{px}" y1="{_HEIGHT - _BOTTOM}" x2="{px}" '
            f'y2="{_HEIGHT - _BOTTOM + 5}" stroke="#333333" stroke-width="1"/>'
        )
        label = f"{x:g}"
        parts.append(
            f'<text x="{px}" y="{_HEIGHT - _BOTTOM + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{label}</text>'
        )

    # axes
    parts.append(
        f'<line x1="{_LEFT}" y1="{_TOP}" x2="{_LEFT}" y2="{_HEIGHT - _BOTTOM}" '
        'stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{_HEIGHT - _BOTTOM}" x2="{_WIDTH - _RIGHT}" '
        f'y2="{_HEIGHT - _BOTTOM}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) // 2}" y="{_HEIGHT - 12}" '
        'font-size="13" text-anchor="middle" font-family="sans-serif">'
        f"{x_field}</text>"
    )
    parts.append(
        f'<text x="16" y="{(_TOP + _HEIGHT - _BOTTOM) // 2}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(_TOP + _HEIGHT - _BOTTOM) // 2})">'
        "rejection rate</text>"
    )

    # nominal level reference
    py = _fmt(sy(_clamp01(alpha)))
    parts.append(
        f'<line x1="{_LEFT}" y1="{py}" x2="{_WIDTH - _RIGHT}" y2="{py}" '
        'stroke="#888888" stroke-width="1" stroke-dasharray="6,4"/>'
    )

    for idx, tag in enumerate(sorted(series)):
        points = series[tag]
        color = TEST_COLORS.get(tag, "#555555")
        band = " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(hi))}" for x, _, _, hi in points
        ) + " " + " ".join(
            f"{_fmt(sx(x))},{_fmt(sy(lo))}" for x, _, lo, _ in reversed(points)
        )
        parts.append(
            f'<polygon points="{band}" fill="{color}" fill-opacity="0.15" '
            'stroke="none"/>'
        )
        line = " ".join(f"{_fmt(sx(x))},{_fmt(sy(r))}" for x, r, _, _ in points)
        parts.append(
            f'<polyline points="{line}" fill="none" stroke="{color}" '
            'stroke-width="2"/>'
        )
        for x, r, _, _ in points:
            parts.append(
                f'<circle cx="{_fmt(sx(x))}" cy="{_fmt(sy(r))}" r="3" '
                f'fill="{color}"/>'
            )
        ly = _TOP + 16 + 18 * idx
        lx = _WIDTH - _RIGHT - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 32}" y="{ly}" font-size="12" '
            'dominant-baseline="middle" font-family="sans-serif">'
            f"{tag}</text>"
        )

    parts.append("</svg>")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
