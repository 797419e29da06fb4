import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vphm.artifact import ArtifactError, load_artifact, save_artifact


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "a": rng.normal(size=(3, 4)),
        "b/nested": rng.normal(size=7),
        "scalarish": np.array([np.pi]),
        "special": np.array([np.nan, np.inf, -np.inf, -0.0]),
    }
    meta = {"config": {"epochs": 130, "rate": 0.1}, "tag": "x"}
    path = tmp_path / "m.vphm"
    save_artifact(path, "cnn", meta, arrays)

    kind, got_meta, got = load_artifact(path)
    assert kind == "cnn"
    assert got_meta == meta
    assert set(got) == set(arrays)
    for name in arrays:
        assert np.asarray(arrays[name]).tobytes() == got[name].tobytes()


def test_magic_bytes_lead_the_file(tmp_path):
    path = tmp_path / "m.vphm"
    save_artifact(path, "qlr", {}, {"w": np.zeros(2)})
    assert path.read_bytes().startswith(b"VPHM1")


def test_save_is_deterministic(tmp_path):
    arrays = {"w": np.arange(5.0), "b": np.array([1.0])}
    save_artifact(tmp_path / "a", "qlr", {"k": 1}, arrays)
    save_artifact(tmp_path / "b", "qlr", {"k": 1}, arrays)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ArtifactError):
        load_artifact(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.vphm"
    save_artifact(path, "cnn", {}, {"w": np.zeros(10)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ArtifactError):
        load_artifact(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.vphm"
    save_artifact(path, "cnn", {}, {"w": np.zeros(3)})
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(ArtifactError):
        load_artifact(path)




def test_every_truncation_offset_raises_artifact_error(tmp_path):
    path = tmp_path / "m.vphm"
    save_artifact(path, "qlr", {"levels": [0.1, 0.9], "tag": "µ"},
                  {"w": np.arange(6.0).reshape(2, 3), "b": np.array([0.5])})
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ArtifactError):
            load_artifact(path)


@given(meta=st.dictionaries(st.text(max_size=4), st.text(max_size=4),
                            max_size=3),
       sizes=st.lists(st.integers(0, 4), min_size=1, max_size=3),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_artifact_raises_artifact_error(tmp_path_factory, meta,
                                                  sizes, data):
    path = tmp_path_factory.mktemp("cut") / "m.vphm"
    save_artifact(path, "qgb", meta,
                  {f"a{k}": np.full(n, 0.5) for k, n in enumerate(sizes)})
    blob = path.read_bytes()
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    path.write_bytes(blob[:cut])
    with pytest.raises(ArtifactError):
        load_artifact(path)
