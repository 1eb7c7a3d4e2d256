"""Self-describing checkpoint container.

Layout:

    magic string  b"ESSAYQA.CKPT.1\\n"
    header length u64, little-endian
    header        UTF-8 JSON: config, verification constants {beta1, beta2,
                  zeta}, vocabulary terms, normalization rules, and a tensor
                  directory [{name, shape, dtype}] in payload order
    payload       tensors, row-major little-endian, concatenated

dtype codes are "f4"/"f8"; tensors round-trip at their native precision so a
reloaded model continues training bit-identically.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, replace

import numpy as np

from .corpus import typed_field
from .encoder import EncoderConfig
from .errors import CheckpointError, ValidationError, VocabularyError
from .model import ModelBundle
from .qnorm import RewriteRuleSet
from .seqbuild import Vocabulary

MAGIC = b"ESSAYQA.CKPT.1\n"
_DTYPE_CODES = {"float32": "f4", "float64": "f8"}


def save_model(bundle: ModelBundle, path: str) -> None:
    """Write ``bundle`` to ``path``.  A bundle whose attributes were assigned
    into a state ``load_model`` would refuse raises ValidationError before
    the file is opened."""
    replace(bundle)  # the bundle's own check, which construction runs
    tensors = [{"name": name, "shape": list(arr.shape), "dtype": _DTYPE_CODES[arr.dtype.name]}
               for name, arr in bundle.params.items()]
    header = {
        "config": asdict(bundle.config),
        "verification": {
            "beta1": bundle.rv_beta1,
            "beta2": bundle.rv_beta2,
            "zeta": bundle.zeta,
        },
        "vocab": bundle.vocab.terms,
        "vocab_fingerprint": bundle.vocab.fingerprint(),
        "rules": {
            "pronoun_map": [list(pair) for pair in bundle.rules.pronoun_map],
            "question_words": list(bundle.rules.question_words),
            "case_policy": bundle.rules.case_policy,
        },
        "tensors": tensors,
    }
    blob = json.dumps(header, ensure_ascii=False).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for arr in bundle.params.values():
            fh.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())


def load_model(path: str) -> ModelBundle:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic; not a checkpoint of this format")
        length = fh.read(8)
        if len(length) != 8:
            raise CheckpointError(f"{path}: truncated header length")
        (header_len,) = struct.unpack("<Q", length)
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
        try:
            return _bundle_from_header(path, header, fh)
        except KeyError as exc:
            raise CheckpointError(f"{path}: header has no field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: malformed header: {exc}") from exc


def _bundle_from_header(path: str, header: dict, fh) -> ModelBundle:
    """The model the header describes, with its tensors read from fh."""
    try:
        config = EncoderConfig(**header["config"])
    except ValidationError as exc:
        raise CheckpointError(f"{path}: bad config: {exc}") from exc
    params: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        dtype = np.dtype("<" + entry["dtype"])
        count = int(np.prod(entry["shape"])) if entry["shape"] else 1
        raw = fh.read(count * dtype.itemsize)
        if len(raw) != count * dtype.itemsize:
            raise CheckpointError(f"{path}: truncated tensor {entry['name']!r}")
        arr = np.frombuffer(raw, dtype=dtype).reshape(entry["shape"])
        params[entry["name"]] = arr.astype(dtype.newbyteorder("="))
    if fh.read(1):
        raise CheckpointError(f"{path}: trailing bytes after tensor payload")
    try:
        vocab = Vocabulary(header["vocab"])
    except VocabularyError as exc:
        raise CheckpointError(f"{path}: bad vocabulary: {exc}") from exc
    if vocab.fingerprint() != header.get("vocab_fingerprint"):
        raise CheckpointError(f"{path}: vocabulary fingerprint mismatch")
    rules_obj = header["rules"]
    try:
        rules = RewriteRuleSet(
            pronoun_map=tuple(tuple(pair) for pair in rules_obj["pronoun_map"]),
            question_words=tuple(rules_obj["question_words"]),
            case_policy=rules_obj["case_policy"],
        )
    except ValidationError as exc:
        raise CheckpointError(f"{path}: bad rules: {exc}") from exc
    ver = header["verification"]
    beta1, beta2, zeta = (float(typed_field(ver, key, float))
                          for key in ("beta1", "beta2", "zeta"))
    try:
        return ModelBundle(config=config, params=params, vocab=vocab, rules=rules,
                           rv_beta1=beta1, rv_beta2=beta2, zeta=zeta)
    except ValidationError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
