"""Bit-identity pins for the HRD and STM baseline kernels.

The reuse-distance, LRU-stack and stride-table kernels in
``repro.baselines`` are tuned for speed; every fitted model and every
synthesized stream must stay exactly what the straightforward kernels
produced. These sha256 digests were recorded from the straightforward
kernels (sorted-key ``random.choices`` per draw, a bisection over
Fenwick prefix sums, ``Counter`` rows) and must never move: a change
that shifts one shifts the HRD and STM figures.
"""

import hashlib
import json

import pytest

from repro.baselines.hrd import HRDModel
from repro.baselines.stm import stm_leaf_factory
from repro.core.hierarchy import two_level_ts
from repro.core.profiler import build_profile
from repro.core.serialization import profile_to_dict
from repro.core.synthesis import synthesize
from repro.workloads.registry import workload_trace

REQUESTS = 2_000
SEEDS = (1, 2020)
SPEC_MODELS = ("gcc", "lbm", "mcf")
TABLE_II_MODELS = ("cpu-g", "fbc-tiled1", "hevc1")


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _trace_digest(trace) -> str:
    return _digest(
        [[r.timestamp, r.address, int(r.operation), r.size] for r in trace]
    )


# (workload, seed) -> (model digest, synthesized-trace digest)
HRD_PINS = {
    ("gcc", 1): (
        "349ec4d9c5b9a2c58a0ad7bf919894919f05b6367b724379b21b4c7378b13da0",
        "0a5c4d14821abcd7a8f14cf6568f0d2f85c230891f20f21303530a70c3bcb36b",
    ),
    ("gcc", 2020): (
        "4211ab1d9109475734a9612d8261f3f77a2d22963121c26cf438cfbb29f85fb0",
        "85fdf0bc03e4ec14c20d2e8a2f891ba21b85c2d542dc76ff1616d65c7c10bba1",
    ),
    ("lbm", 1): (
        "5d2f19dc3b07758fd8c2a18c7e67f04fcc33a96a4460bac8689e997104950c4f",
        "d01ab8a0a2eeecbe67a40dfeabfc4881316a084b7d6b13ddaa6cb92f3aeaacd6",
    ),
    ("lbm", 2020): (
        "74261266602e2ad00100aef5951117774349f251b7d3cbb266289b99a25078bf",
        "9e8ea4365f47ab6c6e04f6d196d37deb541156f797aaa7f38065ae6035d26d2c",
    ),
    ("mcf", 1): (
        "17808466642b6e69d2ea7e9a8f7d82ffccb129c81a7f5df64dacba34555e94b3",
        "b5ec28a89a3379142114dfb4c11ff36e0b1b49637428b23bc8619e0b5244dba9",
    ),
    ("mcf", 2020): (
        "35d75a35f1a1b03f7d907b448fa8616bbd8bfe80bf8aa9ba041d0d1ebba7f25e",
        "7e9a0f4e680125c4f162697e4f127bc9f35e10ef0d49a82a9182424cc67db68a",
    ),
}

# (workload, seed) -> (profile digest, synthesized-trace digest)
STM_PINS = {
    ("cpu-g", 1): (
        "3fe0e593a59f247226f37affe2f24749cedcc4ef3060d2234663a8fafdff5eda",
        "19486d887f07a696736252bed63fcb57d5fdfd6d96128f525417a68d51e3d2f5",
    ),
    ("cpu-g", 2020): (
        "96f220089df90d07597f4e80baaa7dc08bc398ea0bdf4f713a90410653d23a1f",
        "cb69de2e2c09b53fc851f707ee63d84bdb6cb03890123fca2356ce2c3915014c",
    ),
    ("fbc-tiled1", 1): (
        "dda1a9f852d81b28f252eb6325560738e4af54dfada162623cb66cef9eb5925b",
        "e11b7ebe476cc50d093bdb0c2a7b9a68bde292f1e2ebd7d140a5ab605cda7718",
    ),
    ("fbc-tiled1", 2020): (
        "4c20fac5d10f5596a57129ecbdf2c1f008c52e943b1be8f26b64c8fa549742ce",
        "fa77188b7cbbf7587bce621590812a656e0a7672a0dda8b9cd4a44cf65522592",
    ),
    ("hevc1", 1): (
        "28ff566b4b9b9f84d5babca3411520d6fd968dce00de133dacc35e92640e0c01",
        "41eb260a93bee882e7208b80a568d447eba9536b14a372d7b066a8a8675f45f1",
    ),
    ("hevc1", 2020): (
        "be45291f466ece0011eb6c2ac8c5ef5b8ca858515dde38d832047a17927adb59",
        "69f986e9910fb9aee3b7553e73392148107541fb73825d11abbaa2fdedb2c81f",
    ),
}


def hrd_digests(name: str, seed: int):
    model = HRDModel.fit(workload_trace(name, REQUESTS, seed=seed))
    return _digest(model.to_dict()), _trace_digest(model.synthesize(seed=seed + 1))


def stm_digests(name: str, seed: int):
    trace = workload_trace(name, REQUESTS, seed=seed)
    profile = build_profile(trace, two_level_ts(), leaf_factory=stm_leaf_factory, name=name)
    # Digest the profile before synthesis: generation consumes the
    # stride table's row counts.
    profile_digest = _digest(profile_to_dict(profile))
    return profile_digest, _trace_digest(synthesize(profile, seed=seed + 1))


@pytest.mark.parametrize("name,seed", sorted(HRD_PINS))
def test_hrd_model_and_synthesis_pinned(name, seed):
    assert hrd_digests(name, seed) == HRD_PINS[name, seed]


@pytest.mark.parametrize("name,seed", sorted(STM_PINS))
def test_stm_profile_and_synthesis_pinned(name, seed):
    assert stm_digests(name, seed) == STM_PINS[name, seed]
