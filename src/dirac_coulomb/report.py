"""Result and verification-report records shared by the library and CLI.

Pure data model: construction, invariants and the row dicts live here;
rendering to JSON/CSV is the CLI's job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ProblemParams

__all__ = [
    "SpectrumRecord",
    "VerificationReport",
    "NormalizationComparison",
]

NORMALIZATION_FLAG_TOL = 1e-6


@dataclass(frozen=True)
class SpectrumRecord:
    """One spectrum table row; invalid cells keep their diagnosis in status."""

    params: ProblemParams
    n: int
    kappa: float
    s: float | None
    energy_over_mass: float | None
    scale_a: float | None
    valid: bool
    status: str = "ok"

    COLUMNS = ("dimension", "j", "alignment", "alpha_v", "alpha_s", "mass", "n", "kappa", "s",
               "energy_over_mass", "scale_a", "valid", "status")  # the keys of to_row, in order

    def to_row(self) -> dict:
        p = self.params
        return {
            "dimension": p.dimension,
            "j": p.j,
            "alignment": p.alignment.value,
            "alpha_v": p.alpha_v,
            "alpha_s": p.alpha_s,
            "mass": p.mass,
            "n": self.n,
            "kappa": self.kappa,
            "s": self.s,
            "energy_over_mass": self.energy_over_mass,
            "scale_a": self.scale_a,
            "valid": self.valid,
            "status": self.status,
        }


def _context_string(context: dict) -> str:
    parts = []
    for key in sorted(context):
        val = context[key]
        if isinstance(val, bool):
            parts.append(f"{key}={'true' if val else 'false'}")
        elif isinstance(val, float):
            parts.append(f"{key}={val:.12g}")
        else:
            parts.append(f"{key}={val}")
    return ";".join(parts)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one numerical check; passed <=> residual_max <= tolerance."""

    name: str
    residual_max: float
    residual_rms: float
    tolerance: float
    passed: bool = field(init=False)
    context: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.residual_max <= self.tolerance))

    @classmethod
    def from_residuals(cls, name: str, residuals, tolerance: float,
                       context: dict | None = None) -> "VerificationReport":
        res = np.atleast_1d(np.asarray(residuals, dtype=float))
        rmax = float(np.max(res)) if res.size else 0.0
        rrms = float(np.sqrt(np.mean(res**2))) if res.size else 0.0
        return cls(name=name, residual_max=rmax, residual_rms=rrms,
                   tolerance=tolerance, context=dict(context or {}))

    def to_row(self) -> dict:
        return {
            "check": self.name,
            "residual_max": self.residual_max,
            "residual_rms": self.residual_rms,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "context": _context_string(self.context),
        }


@dataclass(frozen=True)
class NormalizationComparison:
    """Exact normalization constant vs its conventional closed form.

    ``quadrature_constant`` keeps the name of its row key, but holds the
    exact constant the assemblers sum from Gamma-function moments (the verify
    suite checks it by quadrature).  The conventional closed form is computed
    for comparison only, and the record is flagged when the two differ by
    more than one part in 10^6 (or the closed form is undefined).
    """

    quadrature_constant: float
    closed_form: float | None
    ratio: float | None = field(init=False)
    flagged: bool = field(init=False)

    def __post_init__(self):
        if not self.quadrature_constant > 0.0:
            raise ValueError("quadrature normalization constant must be positive")
        pcf = self.closed_form
        if pcf is None or not math.isfinite(pcf):
            object.__setattr__(self, "closed_form", None)
            object.__setattr__(self, "ratio", None)
            object.__setattr__(self, "flagged", True)
        else:
            ratio = pcf / self.quadrature_constant
            object.__setattr__(self, "ratio", ratio)
            object.__setattr__(self, "flagged", bool(abs(ratio - 1.0) > NORMALIZATION_FLAG_TOL))

    def to_row(self) -> dict:
        return {
            "check": "normalization_comparison",
            "quadrature_constant": self.quadrature_constant,
            "closed_form": self.closed_form,
            "ratio": self.ratio,
            "flagged": self.flagged,
        }
