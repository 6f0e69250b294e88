"""Configuration, results and batch execution of the paper's four flows.

The flows themselves (Section V: ``bds-maj``, ``bds-pga``, ``abc``,
``dc``) are stage pipelines registered in :mod:`repro.api`; this
package holds what they are configured with and produce
(:class:`BdsFlowConfig`, :class:`AbcFlowConfig`, :class:`DcFlowConfig`,
:class:`BdsTrace`, :class:`FlowResult`) and the batch service that runs
them over suites (:func:`run_batch`)::

    from repro.api import get_pipeline
    result = get_pipeline("bds-maj").run(network)
"""

from .abc import AbcFlowConfig
from .batch import (
    BATCH_FLOWS,
    BatchCancelled,
    BatchConfig,
    BatchReport,
    CircuitReport,
    WarmPoolManager,
    batch_pool,
    run_batch,
    synthesize_one,
)
from .bds import BdsFlowConfig, BdsTrace
from .common import FlowResult
from .dc import DcFlowConfig

__all__ = [
    "BATCH_FLOWS",
    "AbcFlowConfig",
    "BatchCancelled",
    "BatchConfig",
    "BatchReport",
    "BdsFlowConfig",
    "BdsTrace",
    "CircuitReport",
    "DcFlowConfig",
    "FlowResult",
    "WarmPoolManager",
    "batch_pool",
    "run_batch",
    "synthesize_one",
]
