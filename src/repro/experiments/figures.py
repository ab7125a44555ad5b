"""One declaration per paper figure/table (see DESIGN.md §4 for the index).

Every figure is a :class:`FigureDef`: a *spec set* (the runs it needs, as
:class:`~repro.experiments.spec.RunSpec` values) plus a *pure reducer* that
turns the executed results into the plain-dict rows/series the paper's
figure plots.  Declaring figures this way buys two things:

* the spec sets of different figures overlap (fig9a/10/13/14 all draw from
  the same performance-optimized six-design matrix), and the executor/store
  layer deduplicates them, so ``run_all_figures`` simulates each distinct
  run exactly once, in parallel if asked;
* reducers never simulate, so cached results can be re-reduced for free.

The per-figure functions (``fig9_speedup`` etc.) keep their historical
signatures and remain the unit-test surface; they are thin wrappers over
the declarations.  Every entry point checks its names with
:func:`validate_figure_workloads` before it builds a spec, so a name of
the wrong kind, or an empty list, fails by name before anything simulates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config.ssd_config import DesignKind
from repro.errors import ConfigurationError
from repro.experiments.executor import execute_specs
from repro.experiments.reporting import geometric_mean
from repro.experiments.spec import (
    ALL_DESIGNS,
    SPEC_CLAUSES,
    TRACE_WORKLOAD_PREFIX,
    ExperimentScale,
    RunSpec,
    build_config,
    matrix_specs,
)
from repro.metrics.collector import RunResult
from repro.power.area import venice_area_report
from repro.power.models import PowerModel
from repro.workloads.catalog import workload_names
from repro.workloads.formats import trace_stem
from repro.workloads.mixes import mix_names

# A representative cross-section of Table 2 used when a caller does not ask
# for all nineteen traces (benchmark scale): covers read-heavy, write-heavy,
# large-request, zipfian, and low-intensity behaviour.
DEFAULT_WORKLOADS = ("hm_0", "proj_3", "prxy_0", "src2_1", "YCSB_B", "ssd-10")

# Figure 11 plots tail-latency CDFs for these two traces specifically.
FIG11_WORKLOADS = ("src1_0", "hm_0")

FIG15_GEOMETRIES = ((4, 16), (8, 8), (16, 4))

FigureMatrix = Dict[str, Dict[str, RunResult]]
SpecResults = Mapping[RunSpec, RunResult]
Reducer = Callable[[SpecResults], Dict[str, object]]
Plan = Tuple[Tuple[RunSpec, ...], Reducer]

_MOTIVATION_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.IDEAL,
)
_CONFLICT_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.PNSSD,
    DesignKind.NOSSD,
    DesignKind.VENICE,
)
_SENSITIVITY_DESIGNS = (
    DesignKind.BASELINE,
    DesignKind.PSSD,
    DesignKind.NOSSD,  # pnSSD omitted: requires a square array (§6.5)
    DesignKind.VENICE,
    DesignKind.IDEAL,
)


def _matrix_of(specs: Sequence[RunSpec], results: SpecResults) -> FigureMatrix:
    """Regroup executed spec results into {workload: {design: result}}."""
    matrix: FigureMatrix = {}
    for spec in specs:
        matrix.setdefault(spec.workload, {})[spec.design] = results[spec]
    return matrix


def _speedups(matrix: FigureMatrix) -> Dict[str, Dict[str, float]]:
    """Per-workload speedup of each design over the baseline run."""
    out: Dict[str, Dict[str, float]] = {}
    for workload, results in matrix.items():
        baseline = results[DesignKind.BASELINE.value]
        out[workload] = {
            design: result.speedup_over(baseline)
            for design, result in results.items()
            if design != DesignKind.BASELINE.value
        }
    return out


def _gmeans(per_workload: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    designs = {design for values in per_workload.values() for design in values}
    return {
        design: geometric_mean(
            [values[design] for values in per_workload.values() if design in values]
        )
        for design in sorted(designs)
    }


def _averages(table: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    designs = {design for values in table.values() for design in values}
    return {
        design: sum(values[design] for values in table.values() if design in values)
        / sum(1 for values in table.values() if design in values)
        for design in sorted(designs)
    }


# --------------------------------------------------------------------- #
# Figure 4: motivation -- prior approaches vs the ideal SSD (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig4(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _MOTIVATION_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": "fig4",
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "workloads": list(workloads),
        }

    return specs, reduce


def fig4_motivation(
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    return run_figure("fig4", scale, workloads, executor=executor, store=store)


# --------------------------------------------------------------------- #
# Figure 9: Venice speedup on both configurations
# --------------------------------------------------------------------- #

def _fig9_name(preset: str) -> str:
    return "fig9a" if preset.startswith("perf") else "fig9b"


def _plan_fig9(
    preset: str, scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(preset, workloads, scale, ALL_DESIGNS)

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": _fig9_name(preset),
            "preset": preset,
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "workloads": list(workloads),
        }

    return specs, reduce


def fig9_speedup(
    preset: str = "performance-optimized",
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    validate_figure_workloads(_fig9_name(preset), workloads)
    specs, reduce = _plan_fig9(preset, scale, workloads)
    return reduce(execute_specs(specs, executor=executor, store=store))


# --------------------------------------------------------------------- #
# Figure 10: throughput normalized to the path-conflict-free SSD
# --------------------------------------------------------------------- #

def _plan_fig10(
    preset: str, scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(preset, workloads, scale, ALL_DESIGNS)

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        normalized: Dict[str, Dict[str, float]] = {}
        for workload, by_design in matrix.items():
            ideal = by_design[DesignKind.IDEAL.value]
            normalized[workload] = {
                design: result.throughput_normalized_to(ideal)
                for design, result in by_design.items()
                if design != DesignKind.IDEAL.value
            }
        return {
            "figure": "fig10",
            "preset": preset,
            "normalized_throughput": normalized,
            "average": _averages(normalized),
            "workloads": list(workloads),
        }

    return specs, reduce


def fig10_throughput(
    preset: str = "performance-optimized",
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    validate_figure_workloads("fig10", workloads)
    specs, reduce = _plan_fig10(preset, scale, workloads)
    return reduce(execute_specs(specs, executor=executor, store=store))


# --------------------------------------------------------------------- #
# Figure 11: tail latency CDFs for src1_0 and hm_0 (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig11(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or FIG11_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, ALL_DESIGNS, with_cdf=True
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        tails: Dict[str, Dict[str, float]] = {}
        cdfs: Dict[str, Dict[str, List[Tuple[float, float]]]] = {}
        for workload, by_design in matrix.items():
            tails[workload] = {
                design: result.p99_latency_ns
                for design, result in by_design.items()
            }
            cdfs[workload] = {
                design: result.tail_cdf for design, result in by_design.items()
            }
        reductions: Dict[str, Dict[str, float]] = {}
        for workload, values in tails.items():
            baseline_tail = values[DesignKind.BASELINE.value]
            reductions[workload] = {
                design: 1.0 - tail / baseline_tail
                for design, tail in values.items()
                if design != DesignKind.BASELINE.value
            }
        return {
            "figure": "fig11",
            "p99_ns": tails,
            "tail_cdfs": cdfs,
            "reduction_vs_baseline": reductions,
            "workloads": list(workloads),
        }

    return specs, reduce


def fig11_tail_latency(
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = FIG11_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    return run_figure("fig11", scale, workloads, executor=executor, store=store)


# --------------------------------------------------------------------- #
# Figure 12: mixed workloads (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig12(
    scale: ExperimentScale, mixes: Optional[Sequence[str]]
) -> Plan:
    mixes = tuple(mixes) if mixes is not None else tuple(mix_names())
    # Table 3 names first, then `trace:<path>` entries (recorded
    # multi-tenant streams, replayed as plain workloads), each in the order
    # given.
    specs = matrix_specs(
        "performance-optimized",
        sorted(mixes, key=lambda name: name.startswith(TRACE_WORKLOAD_PREFIX)),
        scale,
        ALL_DESIGNS,
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        speedups = _speedups(_matrix_of(specs, results))
        return {
            "figure": "fig12",
            "speedups": speedups,
            "gmean": _gmeans(speedups),
            "mixes": list(mixes),
        }

    return specs, reduce


def fig12_mixed(
    scale: ExperimentScale = ExperimentScale(),
    mixes: Optional[Sequence[str]] = None,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    return run_figure("fig12", scale, mixes, executor=executor, store=store)


# --------------------------------------------------------------------- #
# Figure 13: % of I/O requests experiencing path conflicts (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig13(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _CONFLICT_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        conflicts: Dict[str, Dict[str, float]] = {
            workload: {
                design: result.conflict_fraction
                for design, result in by_design.items()
            }
            for workload, by_design in matrix.items()
        }
        average = {}
        for design in [kind.value for kind in _CONFLICT_DESIGNS]:
            series = [
                values[design] for values in conflicts.values() if design in values
            ]
            average[design] = sum(series) / len(series) if series else 0.0
        return {
            "figure": "fig13",
            "conflict_fraction": conflicts,
            "average": average,
            "workloads": list(workloads),
        }

    return specs, reduce


def fig13_conflicts(
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    return run_figure("fig13", scale, workloads, executor=executor, store=store)


# --------------------------------------------------------------------- #
# Figure 14: power and energy normalized to Baseline SSD (perf-opt)
# --------------------------------------------------------------------- #

def _plan_fig14(
    scale: ExperimentScale, workloads: Optional[Sequence[str]]
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    specs = matrix_specs(
        "performance-optimized", workloads, scale, _CONFLICT_DESIGNS
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        matrix = _matrix_of(specs, results)
        power: Dict[str, Dict[str, float]] = {}
        energy: Dict[str, Dict[str, float]] = {}
        for workload, by_design in matrix.items():
            baseline = by_design[DesignKind.BASELINE.value]
            power[workload] = {
                design: result.average_power_mw / baseline.average_power_mw
                for design, result in by_design.items()
                if design != DesignKind.BASELINE.value
            }
            energy[workload] = {
                design: result.energy_mj / baseline.energy_mj
                for design, result in by_design.items()
                if design != DesignKind.BASELINE.value
            }
        return {
            "figure": "fig14",
            "normalized_power": power,
            "normalized_energy": energy,
            "average_power": _averages(power),
            "average_energy": _averages(energy),
            "workloads": list(workloads),
        }

    return specs, reduce


def fig14_power_energy(
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    return run_figure("fig14", scale, workloads, executor=executor, store=store)


# --------------------------------------------------------------------- #
# Figure 15: sensitivity to the flash-controller count (4x16 / 8x8 / 16x4)
# --------------------------------------------------------------------- #

def _plan_fig15(
    scale: ExperimentScale,
    workloads: Optional[Sequence[str]],
    geometries: Sequence[Tuple[int, int]] = FIG15_GEOMETRIES,
) -> Plan:
    workloads = tuple(workloads or DEFAULT_WORKLOADS)
    geometries = tuple(tuple(geometry) for geometry in geometries)
    per_geometry_specs = {
        geometry: matrix_specs(
            "performance-optimized",
            workloads,
            scale,
            _SENSITIVITY_DESIGNS,
            geometry=geometry,
        )
        for geometry in geometries
    }
    specs = tuple(
        spec for geometry in geometries for spec in per_geometry_specs[geometry]
    )

    def reduce(results: SpecResults) -> Dict[str, object]:
        per_geometry: Dict[str, Dict[str, float]] = {}
        for (channels, chips), geometry_specs in per_geometry_specs.items():
            speedups = _speedups(_matrix_of(geometry_specs, results))
            per_geometry[f"{channels}x{chips}"] = _gmeans(speedups)
        return {
            "figure": "fig15",
            "gmean_speedups": per_geometry,
            "workloads": list(workloads),
            "geometries": [f"{c}x{w}" for c, w in geometries],
        }

    return specs, reduce


def fig15_sensitivity(
    scale: ExperimentScale = ExperimentScale(),
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    geometries: Sequence[Tuple[int, int]] = FIG15_GEOMETRIES,
    *,
    executor=None,
    store=None,
) -> Dict[str, object]:
    validate_figure_workloads("fig15", workloads)
    specs, reduce = _plan_fig15(scale, workloads, geometries)
    return reduce(execute_specs(specs, executor=executor, store=store))


# --------------------------------------------------------------------- #
# Table 4: power and area overheads (analytic)
# --------------------------------------------------------------------- #

def _plan_table4(scale: ExperimentScale) -> Plan:
    power_model = PowerModel()

    def reduce(results: SpecResults) -> Dict[str, object]:
        config = build_config("performance-optimized", scale)
        area = venice_area_report(config)
        return {
            "table": "table4",
            "router_power_mw": power_model.router_active_mw,
            "link_power_mw_4kb_transfer": power_model.link_active_mw,
            "channel_power_mw": power_model.channel_active_mw,
            "link_vs_channel_power_saving": 1.0
            - power_model.link_active_mw / power_model.channel_active_mw,
            **area,
        }

    return (), reduce


def table4_overheads(
    scale: ExperimentScale = ExperimentScale(),
) -> Dict[str, object]:
    _, reduce = _plan_table4(scale)
    return reduce({})


# --------------------------------------------------------------------- #
# The figure registry: what the CLI and the matrix pass dispatch on
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FigureDef:
    """A paper figure, declared: which runs it needs and how to reduce them.

    ``workload_kind`` states what the ``--workloads`` flag means for this
    figure: ``"traces"`` (Table 2 trace names), ``"mixes"`` (Table 3 mix
    names), or ``"none"`` (analytic, no workloads at all).  Each plan
    function supplies its own default set when given ``None``.
    """

    name: str
    workload_kind: str
    plan: Callable[[ExperimentScale, Optional[Sequence[str]]], Plan]


FIGURES: Dict[str, FigureDef] = {
    "fig4": FigureDef("fig4", "traces", _plan_fig4),
    "fig9a": FigureDef(
        "fig9a",
        "traces",
        lambda scale, workloads: _plan_fig9(
            "performance-optimized", scale, workloads
        ),
    ),
    "fig9b": FigureDef(
        "fig9b",
        "traces",
        lambda scale, workloads: _plan_fig9("cost-optimized", scale, workloads),
    ),
    "fig10": FigureDef(
        "fig10",
        "traces",
        lambda scale, workloads: _plan_fig10(
            "performance-optimized", scale, workloads
        ),
    ),
    "fig11": FigureDef("fig11", "traces", _plan_fig11),
    "fig12": FigureDef("fig12", "mixes", _plan_fig12),
    "fig13": FigureDef("fig13", "traces", _plan_fig13),
    "fig14": FigureDef("fig14", "traces", _plan_fig14),
    "fig15": FigureDef("fig15", "traces", _plan_fig15),
    "table4": FigureDef(
        "table4", "none", lambda scale, workloads: _plan_table4(scale)
    ),
}

FIGURE_NAMES: Tuple[str, ...] = tuple(FIGURES)


def _figure(name: str) -> FigureDef:
    if name not in FIGURES:
        raise ConfigurationError(
            f"unknown figure {name!r}; expected one of {', '.join(FIGURES)}"
        )
    return FIGURES[name]


def validate_figure_workloads(
    name: str, workloads: Optional[Sequence[str]]
) -> Optional[List[str]]:
    """Check a ``--workloads`` request against what the figure accepts.

    Raises :class:`ConfigurationError` with an actionable message when the
    figure is unknown, the flag does not apply (table4), the list is empty,
    or names are of the wrong kind (fig12 takes mix names, the trace
    figures take Table 2 trace names).
    """
    definition = _figure(name)
    if workloads is None:
        return None
    if definition.workload_kind == "none":
        raise ConfigurationError(
            f"{name} is analytic and does not take --workloads"
        )
    if len(workloads) == 0:
        raise ConfigurationError(
            f"--workloads for {name} needs at least one name "
            "(omit the flag to use the default set)"
        )
    if definition.workload_kind == "mixes":
        valid, kind = set(mix_names()), "mix"
    else:
        valid, kind = set(workload_names()), "workload"
    unknown = [
        workload
        for workload in workloads
        # `trace:<path>` names replay real files; the spec layer validates
        # the file itself (existence, format, digest) eagerly.
        if workload not in valid and not workload.startswith(TRACE_WORKLOAD_PREFIX)
    ]
    if unknown:
        raise ConfigurationError(
            f"{name} takes {kind} names; unknown: {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(valid))})"
        )
    # Trace files become workload rows named by their stem; two *different*
    # files sharing a stem would silently overwrite each other in the
    # figure's {workload: {design: result}} matrix.
    stems: Dict[str, Path] = {}
    for workload in workloads:
        if not workload.startswith(TRACE_WORKLOAD_PREFIX):
            continue
        path = Path(workload[len(TRACE_WORKLOAD_PREFIX):]).expanduser()
        stem = trace_stem(path)
        resolved = path.resolve()
        previous = stems.setdefault(stem, resolved)
        if previous != resolved:
            raise ConfigurationError(
                f"trace files {previous} and {resolved} both reduce to "
                f"workload name {stem!r}; rename one so {name}'s rows stay "
                "distinct"
            )
    return list(workloads)


def run_figure(
    name: str,
    scale: ExperimentScale = ExperimentScale(),
    workloads: Optional[Sequence[str]] = None,
    *,
    executor=None,
    store=None,
    faults: Optional[str] = None,
    warmup: Optional[str] = None,
    early_stop: Optional[str] = None,
) -> Dict[str, object]:
    """Execute one figure's spec set (cache-aware) and reduce it.

    ``workloads`` are the figure's names -- Table 2 traces, or Table 3
    mixes for fig12 -- checked by :func:`validate_figure_workloads`
    (``None`` = the figure's default set).  ``faults``, ``warmup``, and
    ``early_stop`` behave exactly as in :func:`run_all_figures`.
    """
    return _run_figures(
        scale, {name: workloads}, executor, store, faults, warmup, early_stop
    )[name]


def run_all_figures(
    scale: ExperimentScale = ExperimentScale(),
    *,
    workloads: Optional[Sequence[str]] = None,
    mixes: Optional[Sequence[str]] = None,
    figures: Optional[Sequence[str]] = None,
    executor=None,
    store=None,
    faults: Optional[str] = None,
    warmup: Optional[str] = None,
    early_stop: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """Regenerate every figure from one deduplicated, shared spec pass.

    All figures' spec sets are unioned and executed together -- through the
    parallel executor when one is supplied -- then each figure is reduced
    from the shared results.  ``figures`` defaults to every figure;
    ``workloads`` overrides the Table 2 trace set of the trace figures and
    ``mixes`` fig12's mix list, each checked by
    :func:`validate_figure_workloads` before anything simulates.

    ``faults`` applies one fault schedule (grammar string, see
    docs/faults.md) to every cell, regenerating the figures on a degraded
    fabric.  ``warmup`` and ``early_stop`` (docs/performance.md) likewise
    give every cell a checkpointed warm-up phase and a steady-state
    early-stop policy; cells of one design share a single warm-up through
    the checkpoint store that ``execute_specs`` wires up.  Each override
    twins every cell under a distinct digest, so the modified and the exact
    figures coexist in one store.
    """
    chosen = {
        name: {"mixes": mixes, "traces": workloads}.get(
            _figure(name).workload_kind
        )
        for name in (FIGURE_NAMES if figures is None else figures)
    }
    return _run_figures(
        scale, chosen, executor, store, faults, warmup, early_stop
    )


def _run_figures(
    scale: ExperimentScale,
    chosen: Mapping[str, Optional[Sequence[str]]],
    executor,
    store,
    faults: Optional[str],
    warmup: Optional[str],
    early_stop: Optional[str],
) -> Dict[str, Dict[str, object]]:
    """Run the figures ``chosen`` maps to their names in one shared pass."""
    for name, names in chosen.items():
        validate_figure_workloads(name, names)
    plans: Dict[str, Plan] = {
        name: FIGURES[name].plan(scale, names) for name, names in chosen.items()
    }
    all_specs = [spec for specs, _ in plans.values() for spec in specs]
    # Canonicalised here too, so a bad clause fails even when no figure
    # has cells to twin (table4 alone).
    overrides = {
        key: SPEC_CLAUSES[key](value)
        for key, value in (
            ("faults", faults), ("warmup", warmup), ("early_stop", early_stop)
        )
        if value
    }
    # Reducers close over the plans' original specs, so key the twins'
    # results back by the originals.
    twins = {
        spec: replace(spec, **overrides) if overrides else spec
        for spec in dict.fromkeys(all_specs)
    }
    executed = execute_specs(
        list(twins.values()), executor=executor, store=store
    )
    results = {spec: executed[twin] for spec, twin in twins.items()}
    return {name: reduce(results) for name, (_, reduce) in plans.items()}
