"""Read and rewrite saved checkpoints, and the damaged checkpoints that
loading must reject with an IntegrityError naming what is wrong."""

import json

import numpy as np


def read_checkpoint(path):
    """(header, {name: float32 tensor}) of a checkpoint file, in stored order."""
    head, _, blob = path.read_bytes().partition(b"\n")
    header = json.loads(head)
    tensors, offset = {}, 0
    for name, shape in header["tensors"]:
        n = int(np.prod(shape))
        tensors[name] = np.frombuffer(blob, dtype="<f4", count=n, offset=offset).reshape(shape)
        offset += 4 * n
    return header, tensors


def write_checkpoint(path, header, tensors):
    """Write the header and the tensors, listing each tensor with its shape."""
    header = {**header, "tensors": [[name, list(arr.shape)] for name, arr in tensors.items()]}
    payload = b"".join(np.asarray(arr, dtype="<f4").tobytes() for arr in tensors.values())
    path.write_bytes(json.dumps(header).encode() + b"\n" + payload)


def _cut_crf_to_five_tags(header, tensors):
    for name in ("crf.transitions", "crf.start", "crf.end"):
        tensors[name] = tensors[name][(slice(5),) * tensors[name].ndim]


# id -> (edit of (header, tensors) in place, what the error message names)
DAMAGED = {
    "lstm-wh-cut-to-5-columns": (lambda h, t: t.update({"lstm_fw.wh": t["lstm_fw.wh"][:, :5]}), "lstm_fw.wh"),
    "5-char-rows-for-a-larger-vocab": (lambda h, t: t.update({"char_embeddings": t["char_embeddings"][:5]}),
                                       "char_embeddings"),
    "conv-filters-of-width-2": (lambda h, t: t.update({"conv_filters": t["conv_filters"][:, :2]}), "conv_filters"),
    "5-tag-crf": (_cut_crf_to_five_tags, "crf.transitions"),
    "two-labels": (lambda h, t: h.update({"labels": h["labels"][:2]}), "2 labels make 5 tags"),
    "missing-tensor": (lambda h, t: t.pop("conv_bias"), "conv_bias"),
    "unknown-tensor": (lambda h, t: t.update({"attention.wq": np.zeros(2)}), "attention.wq"),
}


def damage(path, case):
    """Rewrite the checkpoint at path as DAMAGED[case]; returns the name the error must give."""
    edit, named = DAMAGED[case]
    header, tensors = read_checkpoint(path)
    edit(header, tensors)
    write_checkpoint(path, header, tensors)
    return named
