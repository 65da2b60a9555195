"""One experiment definition per figure of the paper's Section 5.

Each ``figure*`` function sweeps the figure's x-axis parameter, replays
the workload against every series' index flavour, and returns a
:class:`FigureResult` holding the same series the paper plots.  Runs are
cached on disk (see :mod:`repro.experiments.cache`), so Figures 14-16 —
three views of one sweep — share their runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..core.presets import bounding_config, flavor_config, rexp_config, tpr_config
from ..geometry.bounding import BoundingKind
from ..workloads.base import Workload
from ..workloads.expiration import ExpirationPolicy, FixedDistance, FixedPeriod
from ..workloads.network import NetworkParams, generate_network_workload
from ..workloads.parameters import querying_window
from ..workloads.uniform import UniformParams, generate_uniform_workload
from .adapters import IndexAdapter, ScheduledAdapter, TreeAdapter
from .cache import load_result, run_key, store_result
from .runner import RunResult, run_workload
from .scale import Scale, current_scale

AdapterFactory = Callable[[], IndexAdapter]


@dataclass
class FigureResult:
    """All series of one reproduced figure."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    xs: List[float]
    series: Dict[str, List[float]] = field(default_factory=dict)
    runs: Dict[str, List[RunResult]] = field(default_factory=dict)
    scale_name: str = ""

    def best_series_at(self, x: float) -> str:
        """Label of the lowest-valued series at an x position."""
        i = self.xs.index(x)
        return min(self.series, key=lambda label: self.series[label][i])


# ---------------------------------------------------------------------------
# Index flavours (the line labels of each figure)
# ---------------------------------------------------------------------------


def flavor_adapters_fig9(scale: Scale) -> Dict[str, AdapterFactory]:
    """Figures 9-10: TPBR expiration recording x ChooseSubtree variants."""

    def make(brs: bool, algs: bool) -> AdapterFactory:
        config = flavor_config(
            brs_with_expiration=brs,
            algs_with_expiration=algs,
            page_size=scale.page_size,
            buffer_pages=scale.buffer_pages,
        )
        return lambda: TreeAdapter(_flavor_name(brs, algs), config)

    return {
        _flavor_name(True, True): make(True, True),
        _flavor_name(False, True): make(False, True),
        _flavor_name(True, False): make(True, False),
        _flavor_name(False, False): make(False, False),
    }


def _flavor_name(brs: bool, algs: bool) -> str:
    brs_part = "BRs with exp.t." if brs else "BRs w/o exp.t."
    algs_part = "algs with exp.t." if algs else "algs w/o exp.t."
    return f"{brs_part}, {algs_part}"


def bounding_adapters(scale: Scale) -> Dict[str, AdapterFactory]:
    """Figures 11-12: the five bounding-rectangle types."""

    def make(name: str, kind: BoundingKind, algs: bool = True) -> AdapterFactory:
        config = bounding_config(
            kind,
            algs_with_expiration=algs,
            page_size=scale.page_size,
            buffer_pages=scale.buffer_pages,
        )
        return lambda: TreeAdapter(name, config)

    return {
        "Static": make("Static", BoundingKind.STATIC),
        "Update-minimum, algs w/o exp.t.": make(
            "Update-minimum, algs w/o exp.t.",
            BoundingKind.UPDATE_MINIMUM,
            algs=False,
        ),
        "Update-minimum, algs with exp.t.": make(
            "Update-minimum, algs with exp.t.", BoundingKind.UPDATE_MINIMUM
        ),
        "Near-optimal": make("Near-optimal", BoundingKind.NEAR_OPTIMAL),
        "Optimal": make("Optimal", BoundingKind.OPTIMAL),
    }


def architecture_adapters(scale: Scale) -> Dict[str, AdapterFactory]:
    """Figures 13-16: R^exp vs TPR, each with/without scheduled deletions."""
    rexp = rexp_config(page_size=scale.page_size, buffer_pages=scale.buffer_pages)
    tpr = tpr_config(page_size=scale.page_size, buffer_pages=scale.buffer_pages)
    return {
        "Rexp-tree": lambda: TreeAdapter("Rexp-tree", rexp),
        "TPR-tree": lambda: TreeAdapter("TPR-tree", tpr),
        "Rexp-tree with scheduled deletions": lambda: ScheduledAdapter(
            "Rexp-tree with scheduled deletions",
            rexp,
            queue_buffer_pages=scale.queue_buffer_pages,
        ),
        "TPR-tree with scheduled deletions": lambda: ScheduledAdapter(
            "TPR-tree with scheduled deletions",
            tpr,
            queue_buffer_pages=scale.queue_buffer_pages,
        ),
    }


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


def _workload(
    scale: Scale,
    policy: ExpirationPolicy,
    update_interval: float = 60.0,
    window: Optional[float] = None,
    new_ob: float = 0.0,
    seed: int = 0,
    kind: str = "network",
) -> Workload:
    knobs = dict(
        target_population=scale.target_population,
        insertions=scale.insertions,
        update_interval=update_interval,
        querying_window=window,
        new_object_fraction=new_ob,
        seed=seed,
    )
    if kind == "uniform":
        return generate_uniform_workload(UniformParams(**knobs), policy)
    return generate_network_workload(NetworkParams(**knobs), policy)


def _run_series(
    figure: FigureResult,
    workloads: Sequence[Workload],
    adapters: Dict[str, AdapterFactory],
    scale: Scale,
    metric: Callable[[RunResult], float],
    prepopulate: bool = False,
) -> FigureResult:
    for label, factory in adapters.items():
        values: List[float] = []
        runs: List[RunResult] = []
        for workload in workloads:
            signature = {"name": workload.name, **workload.params}
            if prepopulate:
                # Bulk-loaded runs measure a different update stream;
                # never share cache entries with replayed ones.
                signature["setup"] = "bulkload"
            key = run_key(label, signature, scale.name)
            result = load_result(key)
            if result is None:
                result = run_workload(
                    factory(), workload, prepopulate=prepopulate
                )
                store_result(key, result)
            values.append(metric(result))
            runs.append(result)
        figure.series[label] = values
        figure.runs[label] = runs
    figure.scale_name = scale.name
    return figure


# ---------------------------------------------------------------------------
# The eight figures
# ---------------------------------------------------------------------------

EXPT_VALUES = [30.0, 60.0, 120.0, 180.0, 240.0]
UI_VALUES = [30.0, 60.0, 90.0, 120.0]
EXPD_VALUES = [45.0, 90.0, 180.0, 270.0, 360.0]
NEWOB_VALUES = [0.0, 0.5, 1.0, 1.5, 2.0]

#: Standard values when a parameter is not being varied (Table 1).
STANDARD_EXPT = 120.0
STANDARD_EXPD = 180.0
STANDARD_NEWOB = 0.5
STANDARD_UI = 60.0


def figure9(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for varying ExpT (network data; four algorithm flavours)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig9", "Search Performance For Varying ExpT",
        "Expiration Period, ExpT", "Search I/O", list(EXPT_VALUES),
    )
    workloads = [
        _workload(
            scale,
            FixedPeriod(expt),
            window=querying_window(STANDARD_UI, expt),
            seed=seed,
        )
        for expt in EXPT_VALUES
    ]
    return _run_series(
        fig, workloads, flavor_adapters_fig9(scale), scale,
        lambda r: r.avg_search_io,
    )


def figure10(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for varying UI (four algorithm flavours)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig10", "Search Performance For Varying UI",
        "Update Interval, UI", "Search I/O", list(UI_VALUES),
    )
    workloads = [
        _workload(
            scale,
            FixedPeriod(STANDARD_EXPT),
            update_interval=ui,
            window=querying_window(ui),
            seed=seed,
        )
        for ui in UI_VALUES
    ]
    return _run_series(
        fig, workloads, flavor_adapters_fig9(scale), scale,
        lambda r: r.avg_search_io,
    )


def figure11(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for uniform data and varying ExpT (five TPBR types)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig11", "Search Performance for Uniform Data and Varying ExpT",
        "Expiration Period, ExpT", "Search I/O", list(EXPT_VALUES),
    )
    workloads = [
        _workload(
            scale,
            FixedPeriod(expt),
            window=querying_window(STANDARD_UI, expt),
            seed=seed,
            kind="uniform",
        )
        for expt in EXPT_VALUES
    ]
    return _run_series(
        fig, workloads, bounding_adapters(scale), scale,
        lambda r: r.avg_search_io,
    )


def figure12(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for varying ExpD (speed-dependent expiry; five TPBR types)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig12", "Search Performance for Varying ExpD",
        "Expiration Distance, ExpD", "Search I/O", list(EXPD_VALUES),
    )
    workloads = [
        _workload(scale, FixedDistance(expd), seed=seed)
        for expd in EXPD_VALUES
    ]
    return _run_series(
        fig, workloads, bounding_adapters(scale), scale,
        lambda r: r.avg_search_io,
    )


def figure13(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for varying ExpD: R^exp vs TPR vs scheduled deletions."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig13", "Search Performance For Varying ExpD",
        "Expiration Distance, ExpD", "Search I/O", list(EXPD_VALUES),
    )
    workloads = [
        _workload(scale, FixedDistance(expd), seed=seed)
        for expd in EXPD_VALUES
    ]
    return _run_series(
        fig, workloads, architecture_adapters(scale), scale,
        lambda r: r.avg_search_io,
    )


def _newob_workloads(scale: Scale, seed: int) -> List[Workload]:
    return [
        _workload(
            scale, FixedDistance(STANDARD_EXPD), new_ob=new_ob, seed=seed
        )
        for new_ob in NEWOB_VALUES
    ]


def figure14(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Search I/O for a varying fraction of new objects (NewOb)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig14", "Search Performance for Varying Fraction of New Objects",
        "Fraction of New Objects, NewOb", "Search I/O", list(NEWOB_VALUES),
    )
    return _run_series(
        fig, _newob_workloads(scale, seed), architecture_adapters(scale),
        scale, lambda r: r.avg_search_io,
    )


def figure15(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Index size (pages) for varying NewOb — same runs as Figure 14."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig15", "Index Size for Varying Fraction of New Objects",
        "Fraction of New Objects, NewOb", "Index Size (# of disk pages)",
        list(NEWOB_VALUES),
    )
    return _run_series(
        fig, _newob_workloads(scale, seed), architecture_adapters(scale),
        scale, lambda r: float(r.page_count),
    )


def figure16(scale: Optional[Scale] = None, seed: int = 0) -> FigureResult:
    """Update I/O for varying NewOb — same runs as Figure 14."""
    scale = scale or current_scale()
    fig = FigureResult(
        "fig16", "Update Performance for Varying Fraction of New Objects",
        "Fraction of New Objects, NewOb", "Update I/O", list(NEWOB_VALUES),
    )
    return _run_series(
        fig, _newob_workloads(scale, seed), architecture_adapters(scale),
        scale, lambda r: r.avg_update_io,
    )


ALL_FIGURES = {
    "fig9": figure9,
    "fig10": figure10,
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
    "fig16": figure16,
}


# ---------------------------------------------------------------------------
# Ablations beyond the paper's figures (design choices argued in prose)
# ---------------------------------------------------------------------------


def ablation_overlap_heuristic(
    scale: Optional[Scale] = None, seed: int = 0
) -> FigureResult:
    """Does overlap enlargement in ChooseSubtree help the R^exp-tree?

    Section 4.2.2 claims it does not; this sweeps ExpT with it on/off.
    """
    scale = scale or current_scale()
    fig = FigureResult(
        "ablation-overlap", "ChooseSubtree overlap heuristic (Section 4.2.2)",
        "Expiration Period, ExpT", "Search I/O", list(EXPT_VALUES),
    )
    workloads = [
        _workload(
            scale, FixedPeriod(expt),
            window=querying_window(STANDARD_UI, expt), seed=seed,
        )
        for expt in EXPT_VALUES
    ]
    adapters: Dict[str, AdapterFactory] = {}
    for label, use in (("without overlap", False), ("with overlap", True)):
        config = rexp_config(
            use_overlap_in_choose=use,
            page_size=scale.page_size,
            buffer_pages=scale.buffer_pages,
        )
        adapters[label] = (
            lambda config=config, label=label: TreeAdapter(label, config)
        )
    return _run_series(
        fig, workloads, adapters, scale, lambda r: r.avg_search_io
    )


def ablation_buffer_size(
    scale: Optional[Scale] = None,
    seed: int = 0,
    buffer_sizes: Sequence[int] = (2, 4, 8, 16, 32),
) -> FigureResult:
    """Sensitivity of search I/O to the buffer-pool size (Section 5.1)."""
    scale = scale or current_scale()
    fig = FigureResult(
        "ablation-buffer", "Buffer-pool size sensitivity",
        "Buffer pages", "Search I/O", [float(b) for b in buffer_sizes],
    )
    workload = _workload(scale, FixedPeriod(STANDARD_EXPT), seed=seed)
    values: List[float] = []
    runs: List[RunResult] = []
    for pages in buffer_sizes:
        config = rexp_config(page_size=scale.page_size, buffer_pages=pages)
        label = f"Rexp-tree (buffer={pages})"
        signature = {"name": workload.name, **workload.params}
        key = run_key(label, signature, scale.name)
        result = load_result(key)
        if result is None:
            result = run_workload(TreeAdapter(label, config), workload)
            store_result(key, result)
        values.append(result.avg_search_io)
        runs.append(result)
    fig.series["Rexp-tree"] = values
    fig.runs["Rexp-tree"] = runs
    fig.scale_name = scale.name
    return fig


def ablation_lazy_purge(
    scale: Optional[Scale] = None, seed: int = 0
) -> FigureResult:
    """Expired-entry fraction left behind by the lazy strategy.

    Section 5.4 claims lazy purging keeps "all but a very small fraction"
    of expired entries out of the index; this measures that fraction
    directly across ExpT.
    """
    scale = scale or current_scale()
    fig = FigureResult(
        "ablation-lazy", "Expired entries surviving lazy purging",
        "Expiration Period, ExpT", "Expired fraction of leaf entries",
        list(EXPT_VALUES),
    )
    workloads = [
        _workload(
            scale, FixedPeriod(expt),
            window=querying_window(STANDARD_UI, expt), seed=seed,
        )
        for expt in EXPT_VALUES
    ]
    adapters: Dict[str, AdapterFactory] = {
        "Rexp-tree": lambda: TreeAdapter(
            "Rexp-tree",
            rexp_config(page_size=scale.page_size, buffer_pages=scale.buffer_pages),
        ),
    }
    return _run_series(
        fig, workloads, adapters, scale, lambda r: r.expired_fraction
    )
