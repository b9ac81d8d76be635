"""The lowered-model kernel compiler: fused batch evaluators.

Both backends of the lowered pipeline *interpret* a
:class:`~repro.core.lowering.LoweredPhase` on every call: the batch
engine re-resolves the phase structure (which memory rule?  which
buses?  coordination or not?) per grid and leans on ``axis=1``
reductions over ``(K, N)`` matrices, which numpy executes an order of
magnitude slower than the equivalent chain of contiguous ``(K,)``
column operations.  This module *compiles* a phase instead: given a
:class:`~repro.core.params.SoCSpec` and a phase, it builds a
:class:`CompiledPhaseKernel` — a specialized evaluator whose operation
chain is fixed at build time.  A kernel holds only the constants it
folded and costs microseconds to build, so one is built for every batch
call.

The kernel is the one compiled tier: plain numpy ufunc chains, with no
generated code and no C toolchain needed at run time.  The interpreter
stays the ground truth every kernel is checked against.

What the compiler specializes:

- **Phase structure is constant-folded.**  The memory rule (full
  traffic, filtered, folded per IP), the bus list with its traffic
  weights, the dispatch table, and the combine rule are resolved once
  at build time; the kernel body contains no per-call branching over
  the IR.
- **Broadcast operands fold to scalars.**  A grid column whose batch
  stride is zero (``np.broadcast_to`` workload vectors, scalar
  hardware overrides) participates as a Python-level constant: the
  whole sub-chain that depends only on constants collapses to scalar
  arithmetic executed once instead of K times.

Exactness
---------
The kernel performs the *same IEEE-754 operations in the same order*
as the interpreted batch engine (:mod:`repro.core.batch`), just
restructured column-wise: every division, accumulation and ``max``
uses identical operands, and numpy's ``axis=1`` reductions over
``N < 8`` components are sequential in column order, matching the
kernel's explicit accumulation.  Compiled and interpreted results are
therefore **bitwise identical** — the equivalence suite
(``tests/test_compile.py``) pins this across all variant kinds,
grids with failed rows and per-point hardware overrides.

Route-solver phases (the multi-path LP) keep their per-point Python
loop embedded in the compiled kernel: the surrounding term chain stays
fused and only the solver itself runs row-wise, exactly as the
interpreter does.

A kernel only computes.  It returns the bound, its attribution and each
row's progress (the binding time, or the serialized total); the batch
body in :mod:`repro.core.batch` judges degenerate and invalid points,
records failures and packages the
:class:`~repro.core.batch.FusedBatchResult`, the same way for both
engines.
"""

from __future__ import annotations

import numpy as np

from ..errors import SpecError
from .lowering import COORDINATION, LoweredPhase
from .params import SoCSpec
from .result import BINDING_REL_TOL, MEMORY

#: Engine names accepted by the batch entry points and the CLI.
ENGINE_CHOICES = ("auto", "compiled", "interpreted")


def compile_phase(
    soc: SoCSpec, phase: LoweredPhase | None = None
) -> "CompiledPhaseKernel":
    """Build the compiled kernel for one (SoC, phase) pair.

    The one constructor the batch engine calls, once per batch call (a
    kernel holds only the constants it folds, and building one costs a
    few microseconds); perfbench's tracer times it as ``core.compile``.
    """
    return CompiledPhaseKernel(soc, phase)


def _is_array(value) -> bool:
    return isinstance(value, np.ndarray)


class CompiledPhaseKernel:
    """One fused batch evaluator, specialized to (SoC, phase structure).

    Built by :func:`compile_phase`; called with the already-prepared
    inputs of :func:`repro.core.batch.prepare_batch`.  Returns
    ``(fields, progress)``: the bound, its attribution and the
    component names, then each row's binding time (or serialized
    total), before any verdict.  ``valid`` only picks the rows the
    route solver runs on.
    """

    def __init__(self, soc: SoCSpec, phase: LoweredPhase | None) -> None:
        if phase is None:
            phase = LoweredPhase()
        self.n_ips = n = soc.n_ips
        self.combine = phase.combine
        self.folded = phase.fold_memory_per_ip
        self.include_memory = phase.include_memory
        self.memory_weights = (
            None
            if phase.memory_weights is None
            else tuple(float(w) for w in phase.memory_weights)
        )
        self.buses = tuple(
            (bus.name, float(bus.bandwidth),
             tuple(float(w) for w in bus.traffic_weights))
            for bus in phase.buses
        )
        self.solver_names = (
            ()
            if phase.route_solver is None
            else tuple(phase.route_solver.bus_names)
        )
        self.dispatch = (
            None
            if phase.dispatch_seconds is None
            else tuple(float(d) for d in phase.dispatch_seconds)
        )
        self.ops_per_item = phase.ops_per_item
        self.ip_names = soc.ip_names
        # Static name-collision checks move to build time (the
        # runtime-dependent coordination check stays in the call).
        static_extras = tuple(name for name, _, _ in self.buses)
        static_extras += self.solver_names
        overlap = (set(soc.ip_names) | {MEMORY}) & set(static_extras)
        if overlap:
            raise SpecError(
                f"bus names collide with IP/memory names: "
                f"{sorted(overlap)!r}"
            )
        # Hardware constants folded at build time (used when no
        # per-point override is supplied).
        self.peaks = tuple(soc.ip_peak(i) for i in range(n))
        self.ip_bandwidths = tuple(ip.bandwidth for ip in soc.ips)

    # -- operand loading ------------------------------------------------

    @staticmethod
    def _column(matrix: np.ndarray, j: int):
        """Column ``j`` as a folded scalar or a strided view."""
        column = matrix[:, j]
        if column.strides[0] == 0:
            return column[0]
        return column

    @staticmethod
    def _axis(vector):
        """A (K,)/0-d override axis as a folded scalar or the array."""
        if vector.ndim == 0:
            return vector[()]
        if vector.strides[0] == 0:
            return vector[0]
        return vector

    @staticmethod
    def _hardware(override, j: int, constants: tuple):
        """Per-IP hardware operand: folded SoC constant ((N,) default
        array), folded broadcast override, or a per-point column."""
        if override.ndim == 1:
            return constants[j]
        column = override[:, j]
        if column.strides[0] == 0:
            return column[0]
        return column

    # -- the fused chain ------------------------------------------------

    def __call__(
        self,
        fractions: np.ndarray,
        intensities: np.ndarray,
        memory_bandwidth: np.ndarray,
        ip_bandwidths: np.ndarray,
        ip_peaks: np.ndarray,
        valid: np.ndarray | None = None,
        route_solver=None,
    ) -> tuple:
        k = fractions.shape[0]
        n = self.n_ips
        mem_bw = self._axis(memory_bandwidth)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # Equation 9, column-wise: Ci = fi / (Ai * Ppeak);
            # Di = fi / Ii; transfer = Di / Bi; T_IP = max.
            f_cols = [self._column(fractions, j) for j in range(n)]
            d_cols = []
            ip_cols = []
            for j in range(n):
                f_j = f_cols[j]
                i_j = self._column(intensities, j)
                peak_j = self._hardware(ip_peaks, j, self.peaks)
                bw_j = self._hardware(ip_bandwidths, j, self.ip_bandwidths)
                c_j = np.divide(f_j, peak_j)
                d_j = np.divide(f_j, i_j)
                ip_j = np.maximum(np.divide(d_j, bw_j), c_j)
                if self.folded:
                    # Equation 18: each IP also pays Di / Bpeak itself.
                    ip_j = np.maximum(ip_j, np.divide(d_j, mem_bw))
                d_cols.append(d_j)
                ip_cols.append(ip_j)

            # Host coordination: dispatch work lands on IP[0] and joins
            # the bottleneck set as its own component.
            t_coord = None
            if self.dispatch is not None:
                acc = np.float64(0.0)
                for j in range(1, n):
                    f_j = f_cols[j]
                    if _is_array(f_j):
                        active = np.greater(f_j, 0.0)
                        if np.isfinite(self.dispatch[j]):
                            # bool * w is exactly {0.0, w} and ~10x
                            # cheaper than a masked copy.
                            w_j = np.multiply(active, self.dispatch[j])
                        else:
                            w_j = np.where(active, self.dispatch[j], 0.0)
                    else:
                        w_j = (
                            np.float64(self.dispatch[j])
                            if f_j > 0
                            else np.float64(0.0)
                        )
                    acc = np.add(acc, w_j)
                t_coord = np.divide(acc, self.ops_per_item)
                t_coord_max = t_coord.max() if _is_array(t_coord) else t_coord
                if t_coord_max > 0:
                    if COORDINATION in self.ip_names:
                        raise SpecError(
                            f"component name {COORDINATION!r} collides "
                            "with an IP"
                        )
                    ip_cols[0] = np.add(ip_cols[0], t_coord)
                else:
                    t_coord = None

            # Equation 10 (or the Eq. 15 filter / Eq. 18 fold).
            if self.memory_weights is not None:
                traffic = self._weighted_sum(d_cols, self.memory_weights)
                memory_times = np.divide(traffic, mem_bw)
            elif not self.include_memory:
                memory_times = np.float64(0.0)
            else:
                traffic = d_cols[0]
                for j in range(1, n):
                    traffic = np.add(traffic, d_cols[j])
                memory_times = np.divide(traffic, mem_bw)

            # Shared-resource constraints: fixed buses (Eq. 16), then
            # solver-assigned loads, then the coordination component.
            extra_cols = []
            extra_names = []
            for name, bandwidth, weights in self.buses:
                carried = self._weighted_sum(d_cols, weights)
                extra_cols.append(np.divide(carried, bandwidth))
                extra_names.append(name)
            if self.solver_names:
                # The per-point LP stays a Python loop (it is one), but
                # the fused surroundings are unaffected.
                solved = np.zeros((k, len(self.solver_names)))
                rows = (
                    range(k)
                    if valid is None
                    else np.nonzero(valid)[0].tolist()
                )
                consts = [
                    None if _is_array(col) else float(col)
                    for col in d_cols
                ]
                for index in rows:
                    row_bytes = [
                        consts[j]
                        if consts[j] is not None
                        else float(d_cols[j][index])
                        for j in range(n)
                    ]
                    times = route_solver(row_bytes)
                    solved[index] = [
                        times[name] for name in self.solver_names
                    ]
                extra_cols.extend(
                    solved[:, j] for j in range(len(self.solver_names))
                )
                extra_names.extend(self.solver_names)
            if t_coord is not None:
                extra_cols.append(t_coord)
                extra_names.append(COORDINATION)

            # Equation 11 (or 19) + first-tie-wins attribution.
            if self.combine == "sum":
                components = ip_cols
                progress = ip_cols[0]
                for j in range(1, n):
                    progress = np.add(progress, ip_cols[j])
                binding = self._binding(components)
            else:
                components = list(ip_cols)
                components.append(memory_times)
                components.extend(extra_cols)
                binding = progress = self._binding(components)
            if _is_array(progress):
                attainables = np.reciprocal(progress)
            else:
                attainables = np.full(k, float(np.reciprocal(progress)))
            codes = self._codes(binding, components, k)

        fields = dict(
            component_names=self.ip_names + (MEMORY,) + tuple(extra_names),
            attainables=attainables,
            bottleneck_codes=codes,
            extra_names=tuple(extra_names),
            combine=self.combine,
            folded_memory=self.folded,
        )
        return fields, progress

    @staticmethod
    def _weighted_sum(d_cols, weights):
        """``sum_j d_j * w_j`` in column order, folding the no-op
        multiply when ``w == 1.0`` (``x * 1.0`` is bitwise ``x``).
        Zero-weight terms stay in the chain: with an infinite ``d_j``,
        ``d_j * 0.0`` is NaN, matching the interpreter."""
        total = None
        for d_j, w in zip(d_cols, weights):
            term = d_j if w == 1.0 else np.multiply(d_j, w)
            total = term if total is None else np.add(total, term)
        return total

    @staticmethod
    def _binding(components):
        """Successive maximum over the component columns (bitwise
        equal to ``max(axis=1)``)."""
        binding = components[0]
        for col in components[1:]:
            binding = np.maximum(binding, col)
        return binding

    @staticmethod
    def _codes(binding, components, k):
        """First-tie-wins bottleneck codes via a descending masked
        scan (identical to ``ties.argmax(axis=1)``: with every time
        non-negative and ``binding`` their max, the interpreter's tie
        test reduces to ``binding - t <= RTOL * binding``, plus the
        equality escape only an infinite binding needs)."""
        if not _is_array(binding):
            code = 0
            for j, col in enumerate(components):
                tie = (binding - col <= BINDING_REL_TOL * binding) or (
                    col == binding
                )
                if tie:
                    code = j
                    break
            return np.full(k, code, dtype=np.intp)
        # Masked assignment (codes[tie] = j and all its spellings) costs
        # ~10x an elementwise pass, so first-tie-wins is a sum of
        # prefix products of the not-tied masks: code = sum over
        # m < top of prod(j <= m) nb_j, which counts the components
        # before the first tie.
        if len(components) == 1:
            # A lone component is always the (first) tie.
            return np.zeros(k, dtype=np.intp)
        thresh = np.multiply(binding, BINDING_REL_TOL)
        # Conservative all-finite probe: the sum of a non-negative
        # vector is finite iff every entry is (a spurious overflow to
        # inf only costs the rare slow branch below).
        finite = bool(np.isfinite(binding.sum()))
        top = len(components) - 1
        if finite:
            # With a finite non-negative binding the component that
            # achieves the max always ties, so the prefix product dies
            # before it overcounts and the top tie mask is never
            # needed.
            prefix = np.greater(np.subtract(binding, components[0]), thresh)
            codes = prefix.astype(np.intp)
            for j in range(1, top):
                nb = np.greater(np.subtract(binding, components[j]), thresh)
                np.logical_and(prefix, nb, out=prefix)
                np.add(codes, prefix, out=codes)
            return codes
        # Non-finite rows (inf, or NaN on an invalid row) follow the
        # interpreter: tie is (diff <= thresh) | (col == binding), and
        # an all-false tie row (NaN binding) resolves to argmax == 0,
        # so the accumulated count is cancelled when even the top
        # component fails to tie.
        for j in range(top + 1):
            col = components[j]
            nb = np.logical_and(
                np.greater(np.subtract(binding, col), thresh),
                np.not_equal(col, binding),
            )
            if j == 0:
                prefix = nb
                codes = prefix.astype(np.intp)
                continue
            np.logical_and(prefix, nb, out=prefix)
            if j < top:
                np.add(codes, prefix, out=codes)
        np.logical_not(prefix, out=prefix)
        np.multiply(codes, prefix, out=codes)
        return codes
