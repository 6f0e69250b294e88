"""``repro.api`` — the public, composable synthesis-pipeline API.

The paper's Section V compares four flows; this package expresses each
one as an ordered composition of swappable :class:`Stage` passes over a
:class:`SynthesisContext`.  The stages are the only implementation of
the flows:

.. code-block:: python

    from repro.api import get_pipeline
    from repro.benchgen import build_benchmark

    result = get_pipeline("bds-maj").run(build_benchmark("alu2"))
    print(result.node_counts, result.table2_row())

Key pieces:

* :class:`Stage` / :func:`stage` — the pass protocol (``name`` +
  ``run(ctx) -> ctx``) and a decorator for function stages;
* :class:`Pipeline` — ordered stages with per-stage timing and
  :class:`PipelineObserver` hooks; composition helpers (``up_to`` /
  ``optimize_prefix`` / ``replace`` / ``insert_after``) derive
  variants;
* :class:`PipelineRegistry` / :func:`get_pipeline` /
  :func:`register_pipeline` — named flows (``bds-maj``, ``bds-pga``,
  ``abc``, ``dc`` are built in; the name alone decides the flow's
  configuration);
* :class:`InputSource` and friends — pluggable circuit inputs
  (registry keys, BLIF files, globs) shared by ``run_batch`` and the
  CLI;
* :mod:`repro.api.standard_stages` — the stage classes the built-in
  flows are composed from, for remixing.

Pipelines produce :class:`~repro.flows.FlowResult` records; the
deterministic batch reports and the Table I/II harnesses are built from
them.
"""

from . import stages as standard_stages
from .context import (
    PipelineError,
    StageEvent,
    StageTiming,
    SynthesisContext,
)
from .inputs import (
    BlifFileSource,
    BlifGlobSource,
    InputItem,
    InputSource,
    InputSourceError,
    RegistrySource,
    resolve_source,
)
from .pipeline import Pipeline, PipelineObserver, StageEventExporter
from .registry import (
    DEFAULT_REGISTRY,
    PipelineRegistry,
    get_pipeline,
    pipeline_names,
    register_pipeline,
)
from .stage import FunctionStage, Stage, stage

__all__ = [
    "DEFAULT_REGISTRY",
    "BlifFileSource",
    "BlifGlobSource",
    "FunctionStage",
    "InputItem",
    "InputSource",
    "InputSourceError",
    "Pipeline",
    "PipelineError",
    "PipelineObserver",
    "PipelineRegistry",
    "RegistrySource",
    "Stage",
    "StageEvent",
    "StageEventExporter",
    "StageTiming",
    "SynthesisContext",
    "get_pipeline",
    "pipeline_names",
    "register_pipeline",
    "resolve_source",
    "stage",
    "standard_stages",
]
