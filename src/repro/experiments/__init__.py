"""One experiment per paper figure: ``run(**params) -> ExperimentResult``
(defaults sized for seconds) and ``CLAIMS``, the paper's statements the
result is judged by.  :data:`ALL_EXPERIMENTS` is *lazy*: listing names
(the CLI help does) imports no figure module.
"""

from collections.abc import Mapping
from importlib import import_module
from typing import Callable, Iterator

from repro.experiments.harness import ExperimentResult  # noqa: F401

#: Experiment name -> module: what the registry and the CLI help both read.
_EXPERIMENT_MODULES = {
    "fig1": "fig01_filter", "fig2": "fig02_join_customer", "fig3": "fig03_join_orders",
    "fig4": "fig04_bloom_fpr", "fig5": "fig05_groupby_groups", "fig6": "fig06_hybrid_split",
    "fig7": "fig07_groupby_skew", "fig8": "fig08_topk_sample", "fig9": "fig09_topk_k",
    "fig10": "fig10_tpch", "fig11": "fig11_parquet", "fig12": "fig12_multijoin",
    "fig13": "fig13_snowflake", "fig14": "fig14_adaptive", "fig15": "fig15_pruning",
    "fig16": "fig16_cache", "auto": "auto_strategy", "tpch": "tpch_suite",
}


class _LazyRegistry(Mapping):
    """Experiment name -> ``run`` callable, imported on first access."""

    def __getitem__(self, name: str) -> Callable:
        return self.module(name).run

    def module(self, name: str):
        return import_module(f"repro.experiments.{_EXPERIMENT_MODULES[name]}")

    def __contains__(self, name: object) -> bool:
        return name in _EXPERIMENT_MODULES

    def __iter__(self) -> Iterator[str]:
        return iter(_EXPERIMENT_MODULES)

    def __len__(self) -> int:
        return len(_EXPERIMENT_MODULES)


ALL_EXPERIMENTS = _LazyRegistry()
