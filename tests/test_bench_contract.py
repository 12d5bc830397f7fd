"""What the benchmark under ``bench/`` reads from the package by name.

The traced run rebinds each attribute in ``tracer.REBINDS`` and the
``phr`` workload reads the model's register capacity; a rename or
deletion here would otherwise only show as a crash of
``bench/run.py --trace 1``.
"""
import importlib
from pathlib import Path

import pytest

from treestealer.channel import PHR_SGX, ChannelModel

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def test_every_rebound_attribute_exists(tracer):
    missing = [(owner.__name__, attr)
               for owner, attr, _ in tracer.REBINDS if attr not in owner.__dict__]
    assert missing == []


def test_register_capacity_is_readable_on_the_model():
    assert ChannelModel(kind=PHR_SGX).phr_capacity == 194
