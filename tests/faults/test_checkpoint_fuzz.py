"""Untrusted checkpoint files: a full page or a typed, quarantined error.

A checkpoint is read back from disk, so its bytes are untrusted even
when its CRC matches: the CRC only proves the payload is what *some*
writer wrote.  The contract for a service restoring one is:

* the restored session serves a full page, or
* the first request raises :class:`CheckpointCorruption` (the file is
  quarantined) and the next raises :class:`SessionNotFound`.

The named cases pin files that once escaped as ``ValueError``,
``KeyError`` or ``TypeError`` on every request, or restored a NaN
session that ranked nothing.  The seeded property test mutates the
header fields and the payload of a real format-2 checkpoint and
recomputes its CRC.
"""

from __future__ import annotations

import itertools
import json
import math
import zlib

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.service import CheckpointCorruption, RetrievalService, SessionNotFound

K = 10
DIMENSION = 8
_IDS = itertools.count()


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """``(service, checkpoint dir, template text)`` over an 8-d collection.

    The template is the format-2 checkpoint of a session evicted after
    one feedback round, so its payload carries real clusters.
    """
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(200, DIMENSION))
    directory = tmp_path_factory.mktemp("checkpoints")
    service = RetrievalService(
        vectors,
        k=K,
        capacity=1,
        checkpoint_dir=directory,
        use_index=False,
        cache_size=0,
    )
    service.create_session(0, session_id="template")
    service.feedback("template", [0, 1, 2, 50])
    service.create_session(3, session_id="displacer")  # evicts the template
    text = (directory / "template.json").read_text()
    yield service, directory, text
    service.shutdown()


def split(text: str):
    head, _, payload = text.partition("\n")
    return json.loads(head), json.loads(payload)


def join(header: dict, payload) -> str:
    """A format-2 file of ``header`` and ``payload`` with a valid CRC."""
    body = json.dumps(payload)
    crc = {"payload_crc32": zlib.crc32(body.encode("utf-8")), "payload_len": len(body)}
    return json.dumps({**header, **crc}) + "\n" + body


def restore(served, text: str):
    """Write ``text`` as a fresh session's checkpoint and query it.

    Returns the page, or ``None`` after asserting the typed failure
    pair: ``CheckpointCorruption`` once, ``SessionNotFound`` next.
    """
    service, directory, _ = served
    session_id = f"fuzz{next(_IDS)}"
    path = directory / f"{session_id}.json"
    path.write_text(text)
    try:
        page = service.query(session_id)
    except CheckpointCorruption:
        assert not path.exists()
        assert path.with_name(path.name + ".corrupt").exists()
        with pytest.raises(SessionNotFound):
            service.query(session_id)
        return None
    assert len(page) == K
    assert np.all(np.isfinite(page.distances))
    return page


class TestNamedCases:
    @pytest.mark.parametrize("genesis", ["abc", [1.0, 2.0], [math.nan] * DIMENSION])
    def test_bad_genesis_with_torn_payload_is_corrupt(self, served, genesis):
        header, payload = split(served[2])
        header["genesis"] = genesis
        text = join(header, payload)
        assert restore(served, text[: len(text) - 40]) is None

    @pytest.mark.parametrize("payload", [{}, [], {"engine": 5}])
    def test_crc_valid_payload_of_the_wrong_shape_is_corrupt(self, served, payload):
        header, _ = split(served[2])
        assert restore(served, join(header, payload)) is None

    def test_legacy_state_of_the_wrong_shape_is_corrupt(self, served):
        assert restore(served, json.dumps({"engine": 5})) is None

    def test_nan_genesis_in_an_intact_payload_is_corrupt(self, served):
        header, payload = split(served[2])
        payload["genesis"] = [math.nan] * DIMENSION
        assert restore(served, join(header, payload)) is None

    def test_nan_cluster_point_is_corrupt(self, served):
        header, payload = split(served[2])
        payload["engine"]["clusters"][0]["points"][0][0] = math.nan
        assert restore(served, join(header, payload)) is None

    def test_wrong_dimension_clusters_are_corrupt(self, served):
        header, payload = split(served[2])
        for cluster in payload["engine"]["clusters"]:
            cluster["points"] = [point[:3] for point in cluster["points"]]
        assert restore(served, join(header, payload)) is None

    def test_good_genesis_with_torn_payload_rebuilds(self, served):
        text = served[2]
        page = restore(served, text[: len(text) - 40])
        assert page is not None
        assert "checkpoint_rebuilt" in page.quality.reasons

    def test_untouched_checkpoint_restores_exactly(self, served):
        page = restore(served, served[2])
        assert page is not None
        assert page.quality.is_exact


def json_values():
    scalars = (
        hst.none()
        | hst.booleans()
        | hst.integers(-3, 400)
        | hst.floats(-1e6, 1e6)
        | hst.sampled_from([math.nan, math.inf, -math.inf])
        | hst.text(max_size=6)
    )
    vectors = hst.lists(hst.floats(-1e3, 1e3), min_size=0, max_size=DIMENSION + 2)
    return hst.recursive(
        scalars | vectors,
        lambda inner: hst.lists(inner, max_size=3)
        | hst.dictionaries(hst.text(max_size=4), inner, max_size=3),
        max_leaves=6,
    )


def mutate(data, node):
    """Replace, delete or recurse into one random spot of ``node``."""
    if isinstance(node, dict) and node:
        key = data.draw(hst.sampled_from(sorted(node)))
    elif isinstance(node, list) and node:
        key = data.draw(hst.integers(0, len(node) - 1))
    else:
        return data.draw(json_values())
    action = data.draw(hst.sampled_from(["descend", "replace", "delete"]))
    if action == "descend":
        node[key] = mutate(data, node[key])
    elif action == "replace":
        node[key] = data.draw(json_values())
    else:
        del node[key]
    return node


class TestFuzz:
    @seed(22)
    @given(data=hst.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_checkpoint_serves_or_fails_typed(self, served, data):
        header, payload = split(served[2])
        for _ in range(data.draw(hst.integers(1, 3))):
            if data.draw(hst.booleans()):
                field = data.draw(
                    hst.sampled_from(
                        ["format", "session_id", "iteration", "genesis", "provenance"]
                    )
                )
                header[field] = data.draw(json_values())
            else:
                payload = mutate(data, payload)
        text = join(header, payload)
        if data.draw(hst.booleans()):
            text = text[: data.draw(hst.integers(0, len(text)))]
        restore(served, text)
