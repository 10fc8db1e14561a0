"""Anchor extraction and single-file snapshot persistence (.imlsnap).

A snapshot file is one JSON document: a header describing shapes, backbone
config and metadata, plus a base64 payload of little-endian float64 values,
``ParamStore.flat`` then the anchor centers.  Loading rebuilds the store
from the header's config, so only `model.ParamStore` knows the parameter
layout.  A sha256 over the raw payload bytes guards against corruption, and
writes go through a temp file and an atomic rename so a crash never leaves
a half-written snapshot behind.
"""
from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import Dataset, write_text_atomic
from .model import (
    AnchorSet, BackboneConfig, ModelSnapshot, ParamStore, SnapshotMeta, embed, freeze_snapshot,
)

SNAPSHOT_VERSION = 1


class SnapshotVersionError(ValueError):
    """Snapshot was written by an incompatible format version."""


class SnapshotCorruptError(ValueError):
    """Snapshot file is truncated, unparsable, or fails its checksum."""


def extract_anchors(params: ParamStore, dataset: Dataset, round_tag: int = 0) -> AnchorSet:
    """Mean embedding over *all* rows of each class, in ascending class-id order."""
    if len(dataset) == 0:
        raise ValueError("cannot extract anchors from an empty dataset")
    z = embed(params, dataset.features).data
    local = np.searchsorted(dataset.class_ids, dataset.labels)
    centers = ad.class_means(z, local, dataset.n_classes).data
    return AnchorSet(dataset.classes, centers, round_tag)


def _payload(snapshot: ModelSnapshot) -> bytes:
    return b"".join(a.astype("<f8").tobytes(order="C")
                    for a in (snapshot.params.flat, snapshot.anchors.centers))


def snapshot_digest(snapshot: ModelSnapshot) -> str:
    """sha256 over all parameter and anchor bytes; cheap identity check."""
    return hashlib.sha256(_payload(snapshot)).hexdigest()


def save_snapshot(snapshot: ModelSnapshot, path) -> None:
    payload = _payload(snapshot)
    doc = {
        "format": "imlsnap",
        "version": SNAPSHOT_VERSION,
        "config": {
            "input_dim": snapshot.config.input_dim,
            "hidden_dims": list(snapshot.config.hidden_dims),
            "embed_dim": snapshot.config.embed_dim,
        },
        "meta": {
            "seed": snapshot.meta.seed,
            "round_index": snapshot.meta.round_index,
            "method": snapshot.meta.method,
        },
        "param_shapes": [list(a.shape) for a in snapshot.params.arrays()],
        "anchor_class_ids": list(snapshot.anchors.class_ids),
        "anchor_round_tag": snapshot.anchors.round_tag,
        "anchor_shape": list(snapshot.anchors.centers.shape),
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "payload": base64.b64encode(payload).decode("ascii"),
    }
    write_text_atomic(path, json.dumps(doc, indent=1, sort_keys=True))


def load_snapshot(path) -> ModelSnapshot:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as e:  # JSON and UTF-8 decoding errors are ValueErrors
        raise SnapshotCorruptError(f"{path}: not a parsable snapshot file ({e})") from e
    if not isinstance(doc, dict) or doc.get("format") != "imlsnap":
        raise SnapshotCorruptError(f"{path}: missing imlsnap header")
    version = doc.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"{path}: snapshot version {version!r}, this build reads {SNAPSHOT_VERSION}"
        )
    try:
        payload = base64.b64decode(doc["payload"].encode("ascii"), validate=True)
        checksum = doc["payload_sha256"]
        param_shapes = [tuple(s) for s in doc["param_shapes"]]
        anchor_shape = tuple(doc["anchor_shape"])
        anchor_ids = [int(c) for c in doc["anchor_class_ids"]]
        round_tag = int(doc["anchor_round_tag"])
        config = BackboneConfig(
            int(doc["config"]["input_dim"]),
            tuple(int(d) for d in doc["config"]["hidden_dims"]),
            int(doc["config"]["embed_dim"]),
        )
        meta = SnapshotMeta(
            int(doc["meta"]["seed"]),
            int(doc["meta"]["round_index"]),
            str(doc["meta"]["method"]),
        )
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise SnapshotCorruptError(f"{path}: malformed header ({e})") from e
    if hashlib.sha256(payload).hexdigest() != checksum:
        raise SnapshotCorruptError(f"{path}: payload checksum mismatch")
    counts = [int(np.prod(s)) for s in param_shapes] + [int(np.prod(anchor_shape))]
    if len(payload) != 8 * sum(counts):
        raise SnapshotCorruptError(
            f"{path}: payload holds {len(payload)} bytes, header promises {8 * sum(counts)}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    n = sum(counts[:-1])
    try:
        # the header's dims fix the layout; its shapes must be the ones they give
        params = ParamStore(config, flat[:n])
        if [a.shape for a in params.arrays()] != param_shapes:
            raise ValueError(f"param shapes {param_shapes} do not fit backbone dims {config.dims}")
        return freeze_snapshot(
            params, AnchorSet(tuple(anchor_ids), flat[n:].reshape(anchor_shape), round_tag), meta
        )
    except ValueError as e:
        raise SnapshotCorruptError(f"{path}: inconsistent shapes ({e})") from e
