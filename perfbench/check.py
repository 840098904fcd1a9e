"""Output checker for one hdtest CLI run.

`check_run` verifies that every output file the command promises exists, that
the score file holds exactly one finite score per trial x hypothesis x
requested detector, and that the statistics fall inside the workload's bands.
It never trusts the program's own summary for the band check: AUC and the Z
moments are recomputed from the raw score file.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class CheckResult:
    reasons: list = field(default_factory=list)
    sha256: str | None = None
    scores: int = 0
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.reasons


def mann_whitney_auc(h0: np.ndarray, h1: np.ndarray) -> float:
    """P(h1 > h0) + P(h1 == h0) / 2, the trapezoidal ROC area."""
    h0s = np.sort(h0)
    below = np.searchsorted(h0s, h1, side="left")
    at_or_below = np.searchsorted(h0s, h1, side="right")
    return float((below + 0.5 * (at_or_below - below)).sum() / (h0.size * h1.size))


def _read_scores(path: Path, trials: int, detectors: list, res: CheckResult) -> dict:
    """Parse scores.csv into {detector: (h0 array, h1 array)}; record defects."""
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        res.reasons.append("scores.csv: truncated (no final newline)")
        return {}
    lines = text.splitlines()
    if lines[0] != "trial,hypothesis,detector,score":
        res.reasons.append("scores.csv: bad or missing header")
        return {}
    seen = {}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != 4:
            res.reasons.append(f"scores.csv:{lineno}: expected 4 cells")
            return {}
        try:
            key = (int(cells[0]), cells[1], cells[2])
            value = float(cells[3])
        except ValueError:
            res.reasons.append(f"scores.csv:{lineno}: unparseable row")
            return {}
        if key in seen:
            res.reasons.append(f"scores.csv:{lineno}: duplicate row {key}")
            return {}
        if not math.isfinite(value):
            res.reasons.append(f"scores.csv:{lineno}: non-finite score {cells[3]}")
        seen[key] = value
    res.scores = len(seen)
    out = {}
    for det in detectors:
        h0 = [seen.get((t, "h0", det)) for t in range(trials)]
        h1 = [seen.get((t, "h1", det)) for t in range(trials)]
        missing = sum(v is None for v in h0 + h1)
        if missing:
            res.reasons.append(f"scores.csv: detector {det} misses {missing} of {2 * trials} scores")
            continue
        out[det] = (np.array(h0), np.array(h1))
    extra = len(seen) - 2 * trials * len(out)
    if extra and len(out) == len(detectors):
        res.reasons.append(f"scores.csv: {extra} rows beyond the requested detectors")
    return out


def _check_simulate(out_dir: Path, spec: dict, trials: int, bands: bool, res: CheckResult) -> None:
    detectors = spec["detectors"]
    wanted = ["scores.csv", "summary.json", "manifest.json"]
    wanted += [f"roc_{d}.csv" for d in detectors]
    missing = [f for f in wanted if not (out_dir / f).is_file()]
    if missing:
        res.reasons.append(f"missing outputs: {', '.join(missing)}")
    if not (out_dir / "scores.csv").is_file():
        return
    res.sha256 = hashlib.sha256((out_dir / "scores.csv").read_bytes()).hexdigest()
    columns = _read_scores(out_dir / "scores.csv", trials, detectors, res)
    summary = {}
    if (out_dir / "summary.json").is_file():
        summary = json.loads((out_dir / "summary.json").read_text()).get("detectors", {})
    for det, (h0, h1) in columns.items():
        auc = mann_whitney_auc(h0, h1)
        res.stats[f"auc.{det}"] = auc
        reported = summary.get(det, {}).get("auc")
        if reported is None or abs(reported - auc) > 1e-9:
            res.reasons.append(f"{det}: summary AUC {reported} != recomputed {auc}")
        band = spec.get("auc_bands", {}).get(det)
        if bands and band and not band[0] <= auc <= band[1]:
            res.reasons.append(f"{det}: AUC {auc:.4f} outside {band}")


def _check_null(out_dir: Path, spec: dict, trials: int, bands: bool, res: CheckResult) -> None:
    wanted = ["z_samples.csv", "z_hist.csv", "summary.json", "manifest.json"]
    missing = [f for f in wanted if not (out_dir / f).is_file()]
    if missing:
        res.reasons.append(f"missing outputs: {', '.join(missing)}")
    path = out_dir / "z_samples.csv"
    if not path.is_file():
        return
    res.sha256 = hashlib.sha256(path.read_bytes()).hexdigest()
    text = path.read_text(encoding="utf-8")
    if not text.endswith("\n"):
        res.reasons.append("z_samples.csv: truncated (no final newline)")
        return
    lines = text.splitlines()
    if lines[0] != "z":
        res.reasons.append("z_samples.csv: bad or missing header")
        return
    try:
        z = np.array([float(v) for v in lines[1:]])
    except ValueError:
        res.reasons.append("z_samples.csv: unparseable row")
        return
    res.scores = z.size
    if z.size != trials:
        res.reasons.append(f"z_samples.csv: {z.size} values for {trials} trials")
        return
    if not np.all(np.isfinite(z)):
        res.reasons.append("z_samples.csv: non-finite Z")
        return
    res.stats["z.mean"] = float(z.mean())
    res.stats["z.variance"] = float(z.var(ddof=1))
    for key, band in spec.get("z_bands", {}).items():
        value = res.stats[f"z.{key}"]
        if bands and not band[0] <= value <= band[1]:
            res.reasons.append(f"Z {key} {value:.4f} outside {band}")


def check_run(out_dir, spec: dict, trials: int, *, bands: bool = True) -> CheckResult:
    """Check the outputs a workload's command left in `out_dir`.

    `bands` is off only for runs at a trial count other than the one the
    bands were calibrated for; every structural check still applies.
    """
    res = CheckResult()
    check = _check_simulate if spec["command"] == "simulate" else _check_null
    check(Path(out_dir), spec, trials, bands, res)
    return res
