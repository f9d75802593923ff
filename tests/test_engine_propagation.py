"""Engine-name plumbing: every layer must honor every engine.

The engine selection travels a long way — ``AlgorithmParameters`` →
``apply_engine`` → proxy wrappers (``DynamicFaultNetwork``,
``ChurnNetwork``, ``RecordingNetwork``) → the base ``RadioNetwork`` —
and the columnar stage drivers dispatch on ``network.engine`` seen
*through* those proxies, so a wrapper that swallowed the attribute would
silently fall back to the reference path.  These tests pin the
propagation for every engine name, and that the retired ``"fast"`` name
is rejected everywhere an engine is named.
"""

import json

import pytest

from repro.core.config import AlgorithmParameters
from repro.dynamic.churn import ChurnNetwork
from repro.radio.faults import FaultyRadioNetwork
from repro.radio.network import ENGINES
from repro.radio.transcript import RecordingNetwork
from repro.resilience.chaos.runner import CampaignConfig
from repro.resilience.network import DynamicFaultNetwork
from repro.topology import grid


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_visible_through_every_wrapper(engine):
    base = grid(3, 4)
    base.set_engine(engine)
    wrappers = [
        RecordingNetwork(base),
        DynamicFaultNetwork(base),
        ChurnNetwork(base),
        FaultyRadioNetwork(base),
    ]
    for net in wrappers:
        assert net.engine == engine, type(net).__name__
    # stacked, as the chaos runner builds them
    stacked = DynamicFaultNetwork(RecordingNetwork(ChurnNetwork(base)))
    assert stacked.engine == engine


@pytest.mark.parametrize("engine", ENGINES)
def test_apply_engine_reaches_base_through_proxies(engine):
    base = grid(3, 4)
    base.set_engine("columnar" if engine == "reference" else "reference")
    proxied = DynamicFaultNetwork(RecordingNetwork(base))
    AlgorithmParameters(engine=engine).apply_engine(proxied)
    assert base.engine == engine
    assert proxied.engine == engine


@pytest.mark.parametrize("engine", ENGINES)
def test_campaign_config_engine_round_trips(engine):
    config = CampaignConfig(engine=engine)
    restored = CampaignConfig.from_json(
        json.loads(json.dumps(config.to_json()))
    )
    assert restored.engine == engine
    assert restored == config


def test_params_engine_accepts_all_names_and_rejects_unknown():
    for engine in ENGINES:
        assert AlgorithmParameters(engine=engine).engine == engine
    assert AlgorithmParameters().engine is None
    with pytest.raises(ValueError, match="unknown engine"):
        AlgorithmParameters(engine="warp")


def test_retired_fast_engine_name_is_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        grid(3, 4).set_engine("fast")
    with pytest.raises(ValueError, match="unknown engine"):
        AlgorithmParameters(engine="fast")
    data = CampaignConfig().to_json()
    data["engine"] = "fast"
    with pytest.raises(ValueError, match="unknown engine"):
        CampaignConfig.from_json(data)
