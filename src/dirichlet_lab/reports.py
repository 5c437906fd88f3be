"""Report and plot-data emission with byte-stable formatting.

All numeric output goes through repr(float), so a re-run with the same
config and seed produces byte-identical CSV/JSON bodies; the run manifest
(written last) records a sha256 digest per output file.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path


def fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def basis_rows(basis) -> list:
    """Row-major echo of a lattice basis at 17 significant digits."""
    return [[f"{float(v):.17g}" for v in row] for row in basis]


def write_csv(path: Path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, sort_keys=True, indent=2, default=fmt) + "\n")
    return path


def write_plot_data(path: Path, xs, ys, reference: str):
    """Two-column (x, y) plot data; the header names the reference curve."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# reference: {reference}", "x,y"]
    for x, y in zip(xs, ys):
        lines.append(f"{fmt(float(x))},{fmt(float(y))}")
    path.write_text("\n".join(lines) + "\n")
    return path


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_run_manifest(outdir: Path, config_text: str, files, version: str, t_start: float):
    """Manifest is written last; digests are stable under seeded re-runs."""
    path = Path(outdir) / "manifest.json"
    return write_json(
        path,
        {
            "config": config_text,
            "artifact_version": version,
            "wall_time_s": time.time() - t_start,
            "file_digests": {str(Path(f).name): _digest(Path(f)) for f in files},
        },
    )
