"""
The layers a traced scored block reports. The benchmark tracer
(``bench/tracing.py``) wraps the stage functions in the model's namespace,
so a metric chain that stopped calling one of them would read 0 in that
layer's per-layer figures. Each scored block must show one SJNR span and at
least one span of each later layer of the chain.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from risjam.channel import RisGeometry
from risjam.optimizer import ConstraintSet, GaSettings, run_ga

from conftest import make_model, make_scenario

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
SJNR_SPAN = "link.sjnr:sjnr_all"
CHAIN_LAYERS = {"link.bler", "link.reliability", "traffic.queue"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing_layers", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def scored_blocks(names: list[str]) -> list[set[str]]:
    """The layers of the spans from each SJNR span up to the next, one set
    per scored block; spans are recorded in the order they open."""
    blocks = []
    for name in names:
        if name == SJNR_SPAN:
            blocks.append(set())
        elif blocks:
            blocks[-1].add(name.split(":", 1)[0])
    return blocks


def test_a_scored_block_spans_every_layer_of_the_chain(tracing):
    model = make_model(RisGeometry(2, 2), make_scenario())
    with tracing.instrument(tracing.Tracer()) as tracer:
        model.evaluate_block(np.ones((3, 4), complex), np.full((1, 2), 1e-3),
                             [108, 120, 132], [1, 1, 2])
    assert tracer.names.count(SJNR_SPAN) == 1
    assert [CHAIN_LAYERS <= layers for layers in scored_blocks(tracer.names)] == [True]


def test_every_population_spans_every_layer_of_the_chain(tracing):
    model = make_model(RisGeometry(2, 2), make_scenario())
    generations = 3
    settings = GaSettings(rng_seed=5, population_size=20, max_generations=generations)
    with tracing.instrument(tracing.Tracer()) as tracer:
        run_ga(model, ConstraintSet(p_min=1e-4, nb_min=60, nb_max=160), settings)
    # the initial population, one bred population per generation, the record
    blocks = scored_blocks(tracer.names)
    assert len(blocks) == tracer.names.count(SJNR_SPAN) == generations + 2
    assert all(CHAIN_LAYERS <= layers for layers in blocks)
