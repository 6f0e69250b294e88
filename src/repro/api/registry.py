"""Pipeline registry: named flows, including the paper's four.

The four Section-V flows (``bds-maj``, ``bds-pga``, ``abc``, ``dc``) are
registered here as stage compositions; running a flow means
``get_pipeline(name).run(...)``.  The flow name alone decides whether
majority decomposition runs: ``bds-maj`` and ``bds-pga`` share one
stage list and differ only in the ``engine.enable_majority`` their
``prepare_config`` hook sets on a copy of the caller's config.
Registering a custom flow is a one-liner::

    from repro.api import Pipeline, register_pipeline, standard_stages as S

    register_pipeline(Pipeline(
        "bds-maj-quick",
        [S.LoadInput(), S.BuildBdds(), S.Decompose(), S.RewriteTrees(),
         S.MapNetwork(), S.VerifyEquivalence()],
        default_config=BdsFlowConfig,
    ))
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

from ..flows.abc import AbcFlowConfig
from ..flows.bds import BdsFlowConfig
from ..flows.dc import DcFlowConfig
from .context import PipelineError
from .pipeline import Pipeline
from .stages import (
    BuildBdds,
    CollapseNetwork,
    Decompose,
    EmitFromAig,
    FactorCovers,
    LoadInput,
    MapNetwork,
    ReorderVariables,
    RewriteAig,
    RewriteTrees,
    Strash,
    VerifyEquivalence,
)


class PipelineRegistry:
    """Named pipelines, preserved in registration order (the paper's
    Table II column order for the built-ins)."""

    def __init__(self) -> None:
        self._pipelines: dict[str, Pipeline] = {}

    def register(self, pipeline: Pipeline, replace: bool = False) -> Pipeline:
        if not replace and pipeline.name in self._pipelines:
            raise PipelineError(
                f"pipeline {pipeline.name!r} is already registered "
                "(pass replace=True to override)"
            )
        self._pipelines[pipeline.name] = pipeline
        return pipeline

    def get(self, name: str) -> Pipeline:
        try:
            return self._pipelines[name]
        except KeyError:
            known = ", ".join(self._pipelines)
            raise PipelineError(
                f"unknown pipeline {name!r} (registered: {known})"
            ) from None

    def names(self) -> list[str]:
        return list(self._pipelines)

    def __contains__(self, name: object) -> bool:
        return name in self._pipelines

    def __iter__(self) -> Iterator[Pipeline]:
        return iter(self._pipelines.values())

    def __len__(self) -> int:
        return len(self._pipelines)


def _bds_stages() -> list:
    return [
        LoadInput(),
        BuildBdds(),
        ReorderVariables(),
        Decompose(),
        RewriteTrees(),
        MapNetwork(),
        VerifyEquivalence(),
    ]


def _majority(enabled: bool) -> Callable[[BdsFlowConfig], BdsFlowConfig]:
    """The ``prepare_config`` hook of a BDS flow: a copy of the config
    with ``engine.enable_majority`` set from the flow name.  The
    caller's config (and its engine) is never mutated, so one config
    object can run both flows in any order."""

    def prepare(config: BdsFlowConfig) -> BdsFlowConfig:
        engine = dataclasses.replace(config.engine, enable_majority=enabled)
        return dataclasses.replace(config, engine=engine)

    return prepare


DEFAULT_REGISTRY = PipelineRegistry()

DEFAULT_REGISTRY.register(
    Pipeline(
        "bds-maj",
        _bds_stages(),
        default_config=BdsFlowConfig,
        prepare_config=_majority(True),
        description="the paper's flow: BDS decomposition with majority logic",
    )
)
DEFAULT_REGISTRY.register(
    Pipeline(
        "bds-pga",
        _bds_stages(),
        default_config=BdsFlowConfig,
        prepare_config=_majority(False),
        description="the BDS-PGA baseline: same engine, majority disabled",
    )
)
DEFAULT_REGISTRY.register(
    Pipeline(
        "abc",
        [
            LoadInput(),
            Strash(),
            RewriteAig(),
            EmitFromAig(),
            MapNetwork(),
            VerifyEquivalence(),
        ],
        default_config=AbcFlowConfig,
        description="ABC-like baseline: resyn2 + structural mapping",
    )
)
DEFAULT_REGISTRY.register(
    Pipeline(
        "dc",
        [
            LoadInput(),
            CollapseNetwork(),
            FactorCovers(),
            MapNetwork(),
            VerifyEquivalence(),
        ],
        default_config=DcFlowConfig,
        description="Design-Compiler-like baseline: collapse/minimize/factor",
    )
)


def register_pipeline(pipeline: Pipeline, replace: bool = False) -> Pipeline:
    """Register ``pipeline`` in the default registry."""
    return DEFAULT_REGISTRY.register(pipeline, replace=replace)


def get_pipeline(name: str) -> Pipeline:
    """Look up a pipeline in the default registry."""
    return DEFAULT_REGISTRY.get(name)


def pipeline_names() -> list[str]:
    """Registered pipeline names, built-ins first."""
    return DEFAULT_REGISTRY.names()
