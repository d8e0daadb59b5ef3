"""Central finite-difference verification of the tagger's gradients.

Every parameter tensor is perturbed entry by entry (step 1e-5, dropout
off), and the worst relative error per block is reported. The relative
error uses a floored denominator so that near-zero gradient pairs compare
by absolute difference instead of blowing up.
"""
from __future__ import annotations

from ..corpus import Sentence
from .model import TaggerModel

DEFAULT_STEP = 1e-5
DENOM_FLOOR = 1e-4


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), DENOM_FLOOR)


def gradient_check(
    model: TaggerModel,
    batch: list[Sentence],
    step: float = DEFAULT_STEP,
) -> dict[str, float]:
    """Max relative error per parameter block on one batch."""
    batch = model.encode(batch, gold=True)
    _, grads = model.nll_and_gradients(batch, train=False)

    def loss() -> float:
        return model.nll_and_gradients(batch, train=False)[0]

    report: dict[str, float] = {}
    for name, p in model.params.items():
        g = grads[name]
        worst = 0.0
        flat_p = p.reshape(-1)
        flat_g = g.reshape(-1)
        for i in range(flat_p.size):
            keep = flat_p[i]
            flat_p[i] = keep + step
            up = loss()
            flat_p[i] = keep - step
            down = loss()
            flat_p[i] = keep
            numeric = (up - down) / (2.0 * step)
            worst = max(worst, relative_error(float(flat_g[i]), numeric))
        report[name] = worst
    return report
