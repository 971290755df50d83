"""Multimodal (image / audio / video) stages over opaque binary columns.

The reference's media path is PIL image load + SegFormer masks + CLIP
embeddings (`/root/reference/src/engine/image_processor.py:63-148`,
`src/models/embedding_model.py:46-197`). At 100 TB the engine treats media
as what it is on the wire: an opaque ``payload:binary`` column with a
typed ``meta`` struct, decoded and featurized inside actor-pool
``map_batches`` stages so codec state initializes once per actor and
batches stay small enough that ``batch_size × decoded_size × concurrency``
fits the worker heap (decoded frames are ~100-1000x larger than payloads —
THE sizing hazard of media pipelines).

Codec stubbing: this container has no image/audio libraries, so the real
decode is gated behind an import-try (PIL / soundfile); when absent, a
clearly-marked DETERMINISTIC FAKE decodes payload bytes into pixel/PCM
tensors via a crc-seeded keystream. Everything Ray-side — schemas, actor
signatures, tensor columns, flat-map frame explode, feature layout — is
real and tested; swapping in a real codec touches only ``_decode_*_real``.

Media table schema::

    media: (media_id:string, kind:string,       # image | audio | video
            payload:binary,
            meta: struct<width:int32, height:int32, channels:int32,
                         sample_rate:int32, n_frames:int32, format:string>)
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa

META_STRUCT = pa.struct([
    ("width", pa.int32()),
    ("height", pa.int32()),
    ("channels", pa.int32()),
    ("sample_rate", pa.int32()),
    ("n_frames", pa.int32()),
    ("format", pa.string()),
])

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("kind", pa.string()),
    ("payload", pa.binary()),
    ("meta", META_STRUCT),
])

try:  # real codecs, absent in this container
    from PIL import Image  # noqa: F401
    _HAVE_PIL = True
except ImportError:
    _HAVE_PIL = False


def _keystream(payload: bytes, n: int) -> np.ndarray:
    """Deterministic uint8 stream seeded by the payload content — the fake
    codec. Same payload -> same pixels/PCM on every worker and run."""
    seed = zlib.crc32(payload)
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8)


def _decode_image_real(payload: bytes, meta: dict) -> np.ndarray:
    raise NotImplementedError(
        "real image decode requires PIL, not present in this environment; "
        "the deterministic fake below exercises the identical Ray plumbing")


def decode_image(payload: bytes, meta: dict) -> np.ndarray:
    """payload -> (H, W, C) uint8. Fake unless PIL is importable."""
    if _HAVE_PIL:
        return _decode_image_real(payload, meta)
    h, w, c = meta["height"], meta["width"], meta["channels"]
    return _keystream(payload, h * w * c).reshape(h, w, c)


def decode_audio(payload: bytes, meta: dict) -> np.ndarray:
    """payload -> (n_samples,) int16 PCM. One 'second' per sample_rate."""
    n = meta["sample_rate"] * max(1, meta["n_frames"])
    raw = _keystream(payload, 2 * n)
    return raw.view(np.int16)[:n]


class ImageFeaturizer:
    """Actor-pool stage: decode + resize + feature-extract per image batch.

    __init__ holds the (stub) codec and the resize target — once per actor.
    __call__ emits one row per image: (media_id, features:list<float>)
    where features = per-channel mean/std + an 8-bin luminance histogram
    (the deterministic stand-in for the reference's CLIP image embedding,
    `/root/reference/src/models/embedding_model.py:151-197`).
    """

    N_BINS = 8

    def __init__(self, resize_to: int = 32):
        self.resize_to = resize_to

    def _resize(self, img: np.ndarray) -> np.ndarray:
        """Mean-pool 'resize' via strided reshape — vectorized, no codec."""
        t = self.resize_to
        h, w, c = img.shape
        ph, pw = max(1, h // t), max(1, w // t)
        hh, ww = (h // ph) * ph, (w // pw) * pw
        v = img[:hh, :ww].reshape(hh // ph, ph, ww // pw, pw, c)
        return v.mean(axis=(1, 3))

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        feats = np.empty((len(ids), 3 * 2 + self.N_BINS), dtype=np.float32)
        for i, (p, m) in enumerate(zip(payloads, metas)):
            img = self._resize(decode_image(p, m).astype(np.float32))
            lum = img.mean(axis=2)
            hist, _ = np.histogram(lum, bins=self.N_BINS, range=(0, 255))
            feats[i, :3] = img.mean(axis=(0, 1))[:3]
            feats[i, 3:6] = img.std(axis=(0, 1))[:3]
            feats[i, 6:] = hist / max(1, lum.size)
        return pa.table({
            "media_id": pa.array(ids, type=pa.string()),
            "features": pa.array(list(feats), type=pa.list_(pa.float32())),
        })


class AudioFeaturizer:
    """Actor-pool stage: PCM decode + windowed RMS/zero-crossing features."""

    def __init__(self, window: int = 1024):
        self.window = window

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch["media_id"].to_pylist()
        payloads = batch["payload"].to_pylist()
        metas = batch["meta"].to_pylist()
        out = []
        for p, m in zip(payloads, metas):
            pcm = decode_audio(p, m).astype(np.float32)
            n = (len(pcm) // self.window) * self.window
            w = pcm[:n].reshape(-1, self.window)
            rms = np.sqrt((w ** 2).mean(axis=1))
            zc = (np.diff(np.signbit(w), axis=1) != 0).mean(axis=1)
            out.append([float(rms.mean()), float(rms.std()),
                        float(zc.mean()), float(len(pcm))])
        return pa.table({
            "media_id": pa.array(ids, type=pa.string()),
            "features": pa.array(out, type=pa.list_(pa.float32())),
        })


def sample_frames_batch(batch: pa.Table, *, every_k: int = 10) -> pa.Table:
    """Video frame sampling as an Arrow flat-map: one input video row ->
    ceil(n_frames / every_k) frame rows. The payload is sliced per frame
    WITHOUT decoding (frame boundaries come from meta), so this stage moves
    bytes, not pixels — decode happens downstream on the sampled subset
    only. That ordering (sample THEN decode) is the 100 TB-scale shape."""
    ids, kinds, payloads, metas = (batch["media_id"].to_pylist(),
                                   batch["kind"].to_pylist(),
                                   batch["payload"].to_pylist(),
                                   batch["meta"].to_pylist())
    o_id, o_frame, o_payload, o_meta = [], [], [], []
    for mid, kind, p, m in zip(ids, kinds, payloads, metas):
        if kind != "video":
            continue
        nf = max(1, m["n_frames"])
        fsize = max(1, len(p) // nf)
        for f in range(0, nf, every_k):
            o_id.append(mid)
            o_frame.append(f)
            o_payload.append(p[f * fsize: (f + 1) * fsize])
            o_meta.append({**m, "n_frames": 1, "format": "frame"})
    return pa.table({
        "media_id": pa.array(o_id, type=pa.string()),
        "frame_idx": pa.array(o_frame, type=pa.int32()),
        "payload": pa.array(o_payload, type=pa.binary()),
        "meta": pa.array(o_meta, type=META_STRUCT),
    })


def image_features(media_ds, *, resize_to: int = 32, batch_size: int = 64,
                   concurrency=(1, 8)):
    """media (kind=image) -> (media_id, features). Small batch_size is
    deliberate: decoded images are ~3 KB payload -> ~12 MB tensor at real
    photo sizes; 64 × concurrency must fit the worker heap."""
    imgs = media_ds.filter(expr="kind == 'image'")
    return imgs.map_batches(ImageFeaturizer,
                            fn_constructor_kwargs={"resize_to": resize_to},
                            batch_format="pyarrow", batch_size=batch_size,
                            concurrency=concurrency, zero_copy_batch=True)


def audio_features(media_ds, *, batch_size: int = 64, concurrency=(1, 8)):
    aud = media_ds.filter(expr="kind == 'audio'")
    return aud.map_batches(AudioFeaturizer, batch_format="pyarrow",
                           batch_size=batch_size, concurrency=concurrency,
                           zero_copy_batch=True)


def sample_video_frames(media_ds, *, every_k: int = 10):
    vids = media_ds.filter(expr="kind == 'video'")
    return vids.map_batches(
        lambda t: sample_frames_batch(t, every_k=every_k),
        batch_format="pyarrow", batch_size=32, zero_copy_batch=True)
