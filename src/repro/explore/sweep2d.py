"""Two-dimensional sweeps: the analytic (f, I) mixing grid.

Figure 8 measures normalized performance over offload fraction x
operational intensity on real hardware; the same grid evaluated on the
*model* is the analytic upper-bound surface.  Comparing the two
(`benchmarks/test_bench_fig8_mixing.py` does) separates what the
hardware loses to coordination from what the model says is possible.

The grid generalizes: any two of the model's swept parameters can form
the axes via the ``build`` callback.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .._validation import require_same_length

# The grid evaluates through ``sweep._evaluate_points``; the two batch
# entry points stay importable here because perfbench's tracer lists
# them as targets in this module.
from ..core.batch import evaluate_batch  # noqa: F401
from ..core.params import SoCSpec, Workload
from ..core.variants import ModelVariant, evaluate_variant_batch  # noqa: F401
from ..errors import ReproError, SpecError, WorkloadError
from ..obs.trace import span as _span
from ..resilience.partial import PointFailure, check_on_error, record_failure
from .sweep import _evaluate_points, _records


class GridCell(NamedTuple):
    """One (x, y) evaluation."""

    x: float
    y: float
    attainable: float
    bottleneck: str


@dataclass(frozen=True)
class SweepGrid:
    """A dense 2-D sweep with axis metadata.

    ``errors`` holds :class:`repro.resilience.PointFailure` records
    (``coords=(x, y)``) for cells that failed under a tolerant
    ``on_error`` mode; failed cells are never part of ``cells``.
    """

    x_name: str
    y_name: str
    cells: tuple
    errors: tuple = ()

    def x_values(self) -> tuple:
        """Distinct x coordinates, ascending."""
        return tuple(sorted({cell.x for cell in self.cells}))

    def y_values(self) -> tuple:
        """Distinct y coordinates, ascending."""
        return tuple(sorted({cell.y for cell in self.cells}))

    def at(self, x: float, y: float) -> GridCell:
        """The cell at exact coordinates (raises if absent)."""
        for cell in self.cells:
            if cell.x == x and cell.y == y:
                return cell
        raise SpecError(f"no cell at ({x!r}, {y!r})")

    def row(self, y: float) -> tuple:
        """All cells of one y line, ordered by x."""
        selected = [cell for cell in self.cells if cell.y == y]
        return tuple(sorted(selected, key=lambda cell: cell.x))

    def best(self) -> GridCell:
        """The cell with the highest attainable performance."""
        return max(self.cells, key=lambda cell: cell.attainable)

    def bottleneck_regions(self) -> dict:
        """Bottleneck name -> number of cells it governs.

        The region map is the design insight Figure 8 encodes: where
        in (f, I) space each resource rules.
        """
        census: dict = {}
        for cell in self.cells:
            census[cell.bottleneck] = census.get(cell.bottleneck, 0) + 1
        return census


def _gather(workloads: list, name: str, n: int) -> np.ndarray:
    """Workload field ``name`` of every cell as a (K, n) array.

    ``np.fromiter`` stops at ``count`` without complaint, so every
    workload must already be checked to be ``n`` wide.
    """
    k = len(workloads)
    values = chain.from_iterable(map(attrgetter(name), workloads))
    return np.fromiter(values, dtype=float, count=k * n).reshape(k, n)


def sweep_grid(
    soc: SoCSpec,
    x_name: str,
    x_values: Sequence[float],
    y_name: str,
    y_values: Sequence[float],
    build: Callable[[float, float], Workload],
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepGrid:
    """Evaluate a workload builder over a dense (x, y) grid.

    The ``build`` callback runs once per cell (it is arbitrary Python),
    but the model itself is evaluated as one ``K = rows * cols`` batch
    through :func:`repro.core.batch.evaluate_batch` — on dense grids
    the per-cell model cost disappears into a handful of numpy passes.
    With ``variant`` set, the batch routes through the lowered pipeline
    (:func:`repro.core.variants.evaluate_variant_batch`) instead.

    A cell whose workload does not cover ``soc.n_ips`` IPs fails with
    the scalar evaluators' ``WORKLOAD_INVALID`` error, as if its
    ``build`` call had raised it.  Under ``on_error="skip"``/
    ``"record"``, cells whose ``build`` call or model evaluation raises
    a :class:`~repro.errors.ReproError` are dropped from the grid (and,
    for ``"record"``, captured in ``errors``) instead of aborting the
    sweep; the surviving cells are bitwise identical to a fault-free
    run.
    """
    check_on_error(on_error)
    if variant is not None and not variant.requires_workload:
        raise SpecError(
            f"variant {variant.kind!r} carries its own workloads; "
            "the (x, y) grid sweeps workload parameters"
        )
    if not x_values or not y_values:
        raise SpecError("both axes need at least one value")
    coords = [(x, y) for y in y_values for x in x_values]
    n = soc.n_ips
    with _span("explore.sweep_grid", points=len(coords)):
        failures: list = []
        built = []  # indices of the cells built
        workloads = []
        for index, (x, y) in enumerate(coords):
            try:
                workload = build(x, y)
                # The scalar evaluators' shape check, per cell: the
                # gather below needs every row to be N wide.
                require_same_length(
                    soc.ips, workload.fractions,
                    "soc.ips", "workload.fractions", WorkloadError,
                )
            except ReproError as err:
                if on_error == "raise":
                    raise
                failures.append(record_failure((float(x), float(y)), err))
                continue
            workloads.append(workload)
            built.append(index)
        if not workloads:
            return SweepGrid(
                x_name=x_name,
                y_name=y_name,
                cells=(),
                errors=tuple(failures) if on_error == "record" else (),
            )
        # Row-major coordinate columns, as float(x) and float(y).
        xs = np.tile(np.array(list(map(float, x_values))), len(y_values))
        ys = np.repeat(np.array(list(map(float, y_values))), len(x_values))
        if len(built) < len(coords):
            xs, ys = xs[built], ys[built]
        # Workload construction already validated every row; the batch
        # record mode still weeds out degenerate (all-zero-time) points.
        batch = _evaluate_points(
            soc,
            variant,
            None,
            len(workloads),
            validate=False,
            fractions=_gather(workloads, "fractions", n),
            intensities=_gather(workloads, "intensities", n),
            on_error="raise" if on_error == "raise" else "record",
            engine=engine,
        )
        for failure in batch.errors:
            row = failure.coords[0]
            failures.append(
                PointFailure(
                    coords=(float(xs[row]), float(ys[row])),
                    code=failure.code,
                    message=failure.message,
                )
            )
        cells = _records(GridCell, batch, xs, ys)
    return SweepGrid(
        x_name=x_name,
        y_name=y_name,
        cells=cells,
        errors=tuple(failures) if on_error == "record" else (),
    )


def analytic_mixing_grid(
    soc: SoCSpec,
    fractions: Sequence[float] = tuple(i / 8 for i in range(9)),
    intensities: Sequence[float] = (1, 4, 16, 64, 256, 1024),
    ip_index: int = 1,
    on_error: str = "raise",
    variant: ModelVariant | None = None,
    engine: str = "auto",
) -> SweepGrid:
    """The Figure 8 grid evaluated on the model (the upper bound).

    x = fraction of work at IP ``ip_index``, y = common operational
    intensity.  The paper's normalization (vs f=0, I=1) is a caller
    concern: divide by ``grid.at(0.0, 1.0).attainable``.
    """
    if not 0 < ip_index < soc.n_ips:
        raise SpecError(f"ip_index must address an accelerator, got {ip_index}")

    def build(f: float, intensity: float) -> Workload:
        fractions_vector = [0.0] * soc.n_ips
        fractions_vector[0] = 1.0 - f
        fractions_vector[ip_index] = f
        return Workload(
            fractions=tuple(fractions_vector),
            intensities=tuple(intensity for _ in range(soc.n_ips)),
        )

    return sweep_grid(
        soc, "f", fractions, "I", intensities, build,
        on_error=on_error, variant=variant, engine=engine,
    )
