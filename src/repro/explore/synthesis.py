"""Design synthesis: the smallest SoC that clears a usecase portfolio.

Inverts the Gables question.  Instead of "what does this SoC attain?",
ask: given the usecase portfolio and quality floors (the paper's 10-20
usecases that must *all* run acceptably), what is the cheapest
(Bpeak, A1..An, B1..Bn) assignment that makes every usecase feasible?

The search is coordinate descent with analytic inner steps — for fixed
work splits, each hardware knob's minimum feasible value has a closed
form because Gables is a max() of linear terms:

- the memory interface needs ``Bpeak >= total_bytes * P_required``;
- IP[i]'s link needs ``Bi >= (fi / Ii) * P_required``;
- IP[i]'s engine needs ``Ai * Ppeak >= fi * P_required``.

Each knob's requirement is the max over the portfolio, so synthesis is
exact (no iteration needed) for a fixed ``Ppeak``; the paper's framing
"which IPs should my SoC include and roughly how big" becomes one
function call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._validation import require_finite_positive
from ..core.gables import evaluate
from ..core.params import IPBlock, SoCSpec
from ..errors import SpecError


@dataclass(frozen=True)
class SynthesizedDesign:
    """Output of :func:`synthesize_soc`.

    ``soc`` is the minimal design; ``slack`` reports, per usecase, the
    attained/required headroom (all >= 1 by construction).
    """

    soc: SoCSpec
    slack: dict

    def binding_usecases(self, tol: float = 1e-6) -> tuple:
        """Usecases with (near-)zero headroom — the sizing drivers."""
        return tuple(
            sorted(
                name
                for name, headroom in self.slack.items()
                if headroom <= 1.0 + tol
            )
        )


def required_bandwidths(requirements, n_ips: int) -> tuple:
    """Closed-form per-knob minima over a portfolio.

    Returns ``(bpeak_min, link_mins, engine_mins)`` where
    ``link_mins[i]`` is the minimum ``Bi`` (bytes/s) and
    ``engine_mins[i]`` the minimum absolute engine rate ``Ai * Ppeak``
    (ops/s) for every usecase to hit its floor.
    """
    requirements = list(requirements)
    if not requirements:
        raise SpecError("portfolio needs at least one usecase")
    bpeak_min = 0.0
    link_mins = [0.0] * n_ips
    engine_mins = [0.0] * n_ips
    for requirement in requirements:
        workload = requirement.workload
        if workload.n_ips != n_ips:
            raise SpecError(
                f"usecase {requirement.name!r} covers {workload.n_ips} IPs, "
                f"expected {n_ips}"
            )
        target = requirement.required
        if target <= 0:
            continue
        total_bytes = math.fsum(
            f / i
            for f, i in zip(workload.fractions, workload.intensities)
            if f > 0 and not math.isinf(i)
        )
        bpeak_min = max(bpeak_min, total_bytes * target)
        for index in range(n_ips):
            fraction = workload.fractions[index]
            if fraction == 0:
                continue
            intensity = workload.intensities[index]
            if not math.isinf(intensity):
                link_mins[index] = max(
                    link_mins[index], (fraction / intensity) * target
                )
            engine_mins[index] = max(engine_mins[index], fraction * target)
    return bpeak_min, tuple(link_mins), tuple(engine_mins)


def synthesize_soc(
    requirements,
    n_ips: int,
    ip_names=None,
    peak_perf: float | None = None,
    name: str = "synthesized-soc",
) -> SynthesizedDesign:
    """The minimal SoC meeting every requirement (exact, closed form).

    Parameters
    ----------
    requirements:
        :class:`~repro.explore.ranking.UsecaseRequirement` instances
        with positive floors.
    n_ips:
        IP count every workload covers.
    ip_names:
        Optional names (default ``IP[0..N-1]``).
    peak_perf:
        ``Ppeak`` to pin IP[0] at.  Defaults to IP[0]'s own engine
        requirement (acceleration 1 exactly); a larger value shrinks
        the other IPs' ``Ai`` (they are expressed relative to it).

    Every requirement with a zero floor is ignored (it constrains
    nothing).  Raises when no usecase constrains an IP's engine and no
    ``peak_perf`` is given for IP[0].
    """
    bpeak_min, link_mins, engine_mins = required_bandwidths(
        requirements, n_ips
    )
    if peak_perf is None:
        peak_perf = engine_mins[0]
        if peak_perf <= 0:
            raise SpecError(
                "no usecase assigns work to IP[0]; pass peak_perf explicitly"
            )
    require_finite_positive(peak_perf, "peak_perf")
    if engine_mins[0] > peak_perf * (1 + 1e-12):
        raise SpecError(
            f"peak_perf {peak_perf:.3g} is below IP[0]'s requirement "
            f"{engine_mins[0]:.3g}"
        )
    names = tuple(ip_names) if ip_names else tuple(
        f"IP[{i}]" for i in range(n_ips)
    )
    if len(names) != n_ips:
        raise SpecError(f"need {n_ips} names, got {len(names)}")

    ips = []
    for index in range(n_ips):
        if index == 0:
            acceleration = 1.0
        else:
            acceleration = max(engine_mins[index] / peak_perf, 1e-12)
        bandwidth = link_mins[index] if link_mins[index] > 0 else math.inf
        ips.append(IPBlock(names[index], acceleration, bandwidth))
    soc = SoCSpec(
        peak_perf=peak_perf,
        memory_bandwidth=max(bpeak_min, 1.0),
        ips=tuple(ips),
        name=name,
    )

    slack = {}
    for requirement in requirements:
        if requirement.required <= 0:
            continue
        attained = evaluate(soc, requirement.workload).attainable
        slack[requirement.name] = attained / requirement.required
        if attained < requirement.required * (1 - 1e-9):
            raise SpecError(
                f"synthesis failed to satisfy {requirement.name!r}: "
                f"{attained:.4g} < {requirement.required:.4g}"
            )
    return SynthesizedDesign(soc=soc, slack=slack)


def cost_of_design(soc: SoCSpec, bandwidth_weight: float = 1.0,
                   compute_weight: float = 0.2) -> float:
    """The pareto module's default cost applied to a synthesized SoC.

    Infinite link bandwidths (unconstrained IPs) are costed at the
    memory interface's bandwidth — an IP's port never usefully exceeds
    what DRAM can feed.
    """
    compute = math.fsum(soc.ip_peak(i) for i in range(soc.n_ips))
    links = math.fsum(
        min(ip.bandwidth, soc.memory_bandwidth) for ip in soc.ips
    )
    return (
        bandwidth_weight * (soc.memory_bandwidth + links) / 1e9
        + compute_weight * compute / 1e9
    )
