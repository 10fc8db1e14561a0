import json
from pathlib import Path

import numpy as np
import pytest

from iml.anchorstore import (
    SNAPSHOT_VERSION,
    SnapshotCorruptError,
    SnapshotVersionError,
    extract_anchors,
    load_snapshot,
    save_snapshot,
    snapshot_digest,
)
from iml.data import SyntheticSpec, gen_synthetic, uniform_offset
from iml.model import (
    AnchorSet,
    BackboneConfig,
    SnapshotMeta,
    embed,
    freeze_snapshot,
    init_backbone,
)


CFG = BackboneConfig(4, (6,), 3)
# A 3 -> 4 -> 2 snapshot with two anchors, written by an earlier build and
# committed, so a reader and a writer that drift together still fail here.
OLD_FILE = Path(__file__).parent / "data" / "tiny_3_4_2.imlsnap"


def tiny_dataset():
    spec = SyntheticSpec(classes_per_domain=3, dim=4, cluster_std=0.3,
                         domain_offset=uniform_offset(1.5, 4),
                         samples_per_class=12, seed=0)
    return gen_synthetic(spec)


def make_snapshot(seed=0):
    params = init_backbone(CFG, seed)
    ds = tiny_dataset()
    anchors = extract_anchors(params, ds)
    return freeze_snapshot(params, anchors, SnapshotMeta(seed, 0, "base"))


def test_extract_anchors_means_all_rows():
    params = init_backbone(CFG, 1)
    ds = tiny_dataset()
    anchors = extract_anchors(params, ds)
    assert anchors.class_ids == ds.classes  # ascending
    z = embed(params, ds.features).data
    for i, c in enumerate(ds.classes):
        assert np.array_equal(anchors.centers[i], z[ds.labels == c].mean(axis=0))


def test_extract_anchors_round_tag():
    params = init_backbone(CFG, 1)
    anchors = extract_anchors(params, tiny_dataset(), round_tag=3)
    assert anchors.round_tag == 3


def test_round_trip_bitwise(tmp_path):
    snap = make_snapshot()
    p = tmp_path / "m.imlsnap"
    save_snapshot(snap, p)
    back = load_snapshot(p)
    assert snapshot_digest(back) == snapshot_digest(snap)
    for a, b in zip(snap.params.arrays(), back.params.arrays()):
        assert np.array_equal(a, b)
    assert np.array_equal(back.anchors.centers, snap.anchors.centers)
    assert back.anchors.class_ids == snap.anchors.class_ids
    assert back.config == snap.config
    assert back.meta.method == "base"
    assert back.meta.seed == snap.meta.seed


def test_save_leaves_no_temp_files(tmp_path):
    snap = make_snapshot()
    p = tmp_path / "m.imlsnap"
    save_snapshot(snap, p)
    save_snapshot(snap, p)  # overwrite fine
    assert [f.name for f in tmp_path.iterdir()] == ["m.imlsnap"]


def test_digest_reflects_params():
    a = make_snapshot(0)
    b = make_snapshot(0)
    c = make_snapshot(1)
    assert snapshot_digest(a) == snapshot_digest(b)
    assert snapshot_digest(a) != snapshot_digest(c)


def test_load_missing_file(tmp_path):
    with pytest.raises((SnapshotCorruptError, OSError)):
        load_snapshot(tmp_path / "absent.imlsnap")


def test_load_rejects_non_json(tmp_path):
    p = tmp_path / "junk.imlsnap"
    p.write_text("this is not a snapshot")
    with pytest.raises(SnapshotCorruptError):
        load_snapshot(p)


def test_load_rejects_missing_keys(tmp_path):
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    doc = json.loads(p.read_text())
    del doc["payload_sha256"]
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotCorruptError):
        load_snapshot(p)


def test_load_detects_payload_tamper(tmp_path):
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    doc = json.loads(p.read_text())
    payload = doc["payload"]
    # flip one base64 character mid-payload
    mid = len(payload) // 2
    repl = "A" if payload[mid] != "A" else "B"
    doc["payload"] = payload[:mid] + repl + payload[mid + 1:]
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotCorruptError, match="checksum"):
        load_snapshot(p)


def test_load_rejects_future_version(tmp_path):
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    doc = json.loads(p.read_text())
    assert doc["version"] == SNAPSHOT_VERSION
    doc["version"] = SNAPSHOT_VERSION + 1
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotVersionError):
        load_snapshot(p)


def test_load_rejects_inconsistent_shapes(tmp_path):
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    doc = json.loads(p.read_text())
    doc["param_shapes"][0] = [999, 6]
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotCorruptError):
        load_snapshot(p)


def test_load_rejects_header_dims_that_do_not_fit_payload(tmp_path):
    """The checksum covers only the payload; the header's dims are checked against it."""
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    saved = json.loads(p.read_text())
    for edit, needle in (({"input_dim": 7, "embed_dim": 9}, "do not fit backbone dims"),
                         ({"input_dim": 7}, "do not fit backbone dims"),
                         ({"embed_dim": 9}, "do not fit backbone dims")):
        doc = json.loads(json.dumps(saved))
        doc["config"].update(edit)
        p.write_text(json.dumps(doc))
        with pytest.raises(SnapshotCorruptError, match=needle):
            load_snapshot(p)


def test_load_rejects_param_shapes_the_dims_do_not_give(tmp_path):
    """Shapes with the payload's total size, but not the ones the header's dims lay out."""
    p = tmp_path / "m.imlsnap"
    save_snapshot(make_snapshot(), p)
    doc = json.loads(p.read_text())
    assert doc["param_shapes"] == [[4, 6], [6], [6, 3], [3]]
    doc["param_shapes"] = [[6, 4], [6], [6, 3], [3]]
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotCorruptError, match="do not fit backbone dims"):
        load_snapshot(p)


def test_load_rejects_anchor_width_that_does_not_fit_embed_dim(tmp_path):
    params = init_backbone(CFG, 0)
    snap = freeze_snapshot(params, AnchorSet((5,), np.zeros((1, 3))), SnapshotMeta(0, 0, "b"))
    p = tmp_path / "m.imlsnap"
    save_snapshot(snap, p)
    doc = json.loads(p.read_text())
    doc["anchor_shape"] = [3, 1]  # same payload bytes, read as three 1-wide anchors
    doc["anchor_class_ids"] = [5, 6, 7]
    p.write_text(json.dumps(doc))
    with pytest.raises(SnapshotCorruptError, match="anchor width 1"):
        load_snapshot(p)


def test_meta_round_index_preserved(tmp_path):
    params = init_backbone(CFG, 0)
    anchors = AnchorSet((5, 9), np.zeros((2, 3)), round_tag=2)
    snap = freeze_snapshot(params, anchors, SnapshotMeta(7, 2, "ida"))
    p = tmp_path / "m.imlsnap"
    save_snapshot(snap, p)
    back = load_snapshot(p)
    assert back.meta.round_index == 2
    assert back.meta.method == "ida"
    assert back.anchors.round_tag == 2
    assert back.anchors.class_ids == (5, 9)


def test_committed_snapshot_loads_and_resaves_bytewise(tmp_path):
    snap = load_snapshot(OLD_FILE)
    digest = "5243b65bb7c94f92c14d9441a76d563acbc99e8da8c234579bbc21cff1bff3da"
    assert snapshot_digest(snap) == digest
    assert snap.config == BackboneConfig(3, (4,), 2)
    assert snap.meta == SnapshotMeta(7, 1, "ida")
    assert (snap.anchors.class_ids, snap.anchors.round_tag) == ((3, 8), 1)
    # the last value of each array pins its boundary with the next one
    w0, b0, w1, b1 = snap.params.arrays()
    assert [w0[2, 3], b0[3], w1[3, 1], b1[1], snap.anchors.centers[1, 1]] == [
        -0.7313225212292476, 0.16378857220098098, -0.7756786842437912,
        -0.25228975964635664, 0.27226068000682285]
    again = tmp_path / "again.imlsnap"
    save_snapshot(snap, again)
    assert again.read_bytes() == OLD_FILE.read_bytes()
