"""InSiPS — the In-Silico Protein Synthesizer (SC '15) reproduction.

A complete Python reimplementation of the paper's system (one optional
C loop, the PIPE window sweep, compiled on first use):

* the PIPE sequence-based interaction prediction engine (:mod:`repro.ppi`),
* the InSiPS genetic algorithm and fitness function (:mod:`repro.ga`),
* the master/worker parallel runtime (:mod:`repro.parallel`),
* campaign resilience policies — retry/backoff, deadlines, circuit
  breaker, chaos testing (:mod:`repro.resilience`),
* a Blue Gene/Q discrete-event performance model (:mod:`repro.cluster`),
* a synthetic yeast-like proteome/interactome (:mod:`repro.synthetic`),
* an in-silico wet-lab validation pipeline (:mod:`repro.wetlab`),
* experiment drivers reproducing every table and figure
  (:mod:`repro.experiments`).

Quick start::

    from repro import InhibitorDesigner, get_profile

    designer = InhibitorDesigner.from_profile(get_profile("tiny"), seed=0)
    result = designer.design("YBL051C", seed=1, termination=20)
    print(result.fitness, result.designed_protein())
"""

from repro.checkpoint import CheckpointError, CheckpointManager
from repro.core import DesignResult, InhibitorDesigner
from repro.ga import GAParams, InSiPSEngine, SerialScoreProvider, WETLAB_PARAMS
from repro.ppi import BatchScores, InteractionGraph, PipeConfig, PipeEngine
from repro.providers import make_engine, make_score_provider
from repro.resilience import CircuitBreaker, Deadline
from repro.sequences import Protein
from repro.synthetic import PROFILES, build_world, get_profile
from repro.telemetry import MetricsRegistry, NullRegistry

__version__ = "1.0.0"

__all__ = [
    "BatchScores",
    "CheckpointError",
    "CheckpointManager",
    "CircuitBreaker",
    "Deadline",
    "DesignResult",
    "GAParams",
    "InSiPSEngine",
    "InhibitorDesigner",
    "InteractionGraph",
    "MetricsRegistry",
    "NullRegistry",
    "PROFILES",
    "PipeConfig",
    "PipeEngine",
    "Protein",
    "SerialScoreProvider",
    "WETLAB_PARAMS",
    "build_world",
    "get_profile",
    "make_engine",
    "make_score_provider",
    "__version__",
]
