"""Report serialization: JSON, CSV and dependency-free SVG ratio plots.

All writers are deterministic (sorted keys, fixed float formatting) and
atomic (temp file + rename), so repeated runs with the same seed produce
byte-identical artifacts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from typing import Optional, Sequence

from .errors import HopialError

SCHEMA_VERSION = 1

CSV_HEADER = ["theorem", "mode", "lhs", "rhs", "constant", "ratio", "status", "budget"]


def _clean(value):
    """json-safe: non-finite floats become strings."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(value, dict):
        return {k: _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hopial-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dump_json(report: dict) -> str:
    return json.dumps(_clean(report), indent=2, sort_keys=True) + "\n"


def write_json(path: str, report: dict) -> None:
    atomic_write(path, dump_json(report))


def instance_row(rep) -> dict:
    return {
        "lhs": rep.lhs,
        "rhs": rep.rhs_core,
        "ratio": rep.ratio,
        "status": rep.status,
        "budget": rep.error_budget,
    }


def constant_block(breakdown) -> Optional[dict]:
    if breakdown is None:
        return None
    block = {
        "value": breakdown.value,
        "factors": [[name, value] for name, value in breakdown.factors],
    }
    if breakdown.rhs_weight:
        block["rhs_weight"] = breakdown.rhs_weight
    return block


def report_doc(command: str, theorem: Optional[str], mode: Optional[str],
               breakdown=None, instances: Sequence = (), max_ratio=None,
               seed: Optional[int] = None, extra: Optional[dict] = None) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "theorem": theorem,
        "mode": mode,
        "constant": constant_block(breakdown),
        "instances": [instance_row(rep) for rep in instances],
        "max_ratio": max_ratio,
        "seed": seed,
    }
    if extra:
        doc.update(extra)
    return doc


def dump_csv(rows: Sequence) -> str:
    """One line per instance report; fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for rep in rows:
        writer.writerow(
            [
                rep.ident,
                rep.mode,
                _fmt_csv(rep.lhs),
                _fmt_csv(rep.rhs_core),
                _fmt_csv(rep.constant),
                _fmt_csv(rep.ratio),
                rep.status,
                _fmt_csv(rep.error_budget),
            ]
        )
    return buf.getvalue()


def _fmt_csv(x) -> str:
    if isinstance(x, float) and not math.isfinite(x):
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return repr(float(x))


def write_csv(path: str, rows: Sequence) -> None:
    atomic_write(path, dump_csv(rows))


# ---------------------------------------------------------------------------
# SVG ratio plots (SVG 1.1, no scripts, no external renderer)
# ---------------------------------------------------------------------------

_W, _H = 640, 360
_ML, _MR, _MT, _MB = 60, 20, 28, 44


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def ratio_plot_svg(ratios: Sequence[float], title: str = "ratio",
                   x_label: str = "instance", xs: Optional[Sequence[float]] = None) -> str:
    """Ratio-vs-index (or vs parameter) polyline with a max-ratio marker."""
    pts = [
        (float(x), float(r))
        for x, r in zip(xs if xs is not None else range(len(ratios)), ratios)
        if math.isfinite(float(r))
    ]
    if not pts:
        pts = [(0.0, 0.0)]
    x_lo = min(p[0] for p in pts)
    x_hi = max(p[0] for p in pts)
    y_lo = min(min(p[1] for p in pts), 0.0)
    y_hi = max(max(p[1] for p in pts), 1.05)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    i_max = max(range(len(pts)), key=lambda i: pts[i][1])
    mx, my = pts[i_max]

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W // 2}" y="18" text-anchor="middle" '
        f'font-family="monospace" font-size="13">{_esc(title)}</text>',
        # axes
        f'<line x1="{_ML}" y1="{sy(y_lo):.2f}" x2="{_W - _MR}" y2="{sy(y_lo):.2f}" '
        f'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        f'stroke="black" stroke-width="1"/>',
        f'<text x="{_W // 2}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{_esc(x_label)}</text>',
        f'<text x="14" y="{_H // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 14 {_H // 2})">ratio</text>',
        # unit line: the inequality boundary
        f'<line x1="{_ML}" y1="{sy(1.0):.2f}" x2="{_W - _MR}" y2="{sy(1.0):.2f}" '
        f'stroke="red" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<text x="{_W - _MR - 4}" y="{sy(1.0) - 4:.2f}" text-anchor="end" '
        f'font-family="monospace" font-size="10" fill="red">ratio = 1</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        yv = y_lo + frac * (y_hi - y_lo)
        lines.append(
            f'<text x="{_ML - 6}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{_fmt(yv)}</text>'
        )
        xv = x_lo + frac * (x_hi - x_lo)
        lines.append(
            f'<text x="{sx(xv):.2f}" y="{_H - _MB + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{_fmt(xv)}</text>'
        )
    if len(pts) > 1:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        lines.append(
            f'<polyline points="{coords}" fill="none" stroke="steelblue" '
            f'stroke-width="1.5"/>'
        )
    else:
        lines.append(
            f'<circle cx="{sx(pts[0][0]):.2f}" cy="{sy(pts[0][1]):.2f}" r="4" '
            f'fill="steelblue"/>'
        )
    lines.append(
        f'<circle cx="{sx(mx):.2f}" cy="{sy(my):.2f}" r="4" fill="none" '
        f'stroke="crimson" stroke-width="1.5"/>'
    )
    lines.append(
        f'<text x="{sx(mx):.2f}" y="{sy(my) - 8:.2f}" text-anchor="middle" '
        f'font-family="monospace" font-size="10" fill="crimson">'
        f"max {_fmt(my)}</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_plot(report, path: str) -> None:
    """Write the ratio plot of a sweep/search report document (or a report
    object with .reports) to an SVG file."""
    if isinstance(report, dict):
        instances = report.get("instances") or []
        ratios = [row["ratio"] for row in instances
                  if isinstance(row.get("ratio"), float)]
        title = f"{report.get('theorem', '')} {report.get('command', '')}".strip()
    else:
        ratios = [rep.ratio for rep in report.reports]
        title = f"{report.ident} sweep"
    if not ratios:
        raise HopialError("cannot plot an empty report")
    write_svg(path, ratio_plot_svg(ratios, title=title))


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_svg(path: str, svg: str) -> None:
    atomic_write(path, svg)
