"""Read and rewrite saved checkpoints, and the damaged checkpoints that
loading must reject with an IntegrityError naming what is wrong."""

import dataclasses
import json

import numpy as np

from imdner.network import NetworkConfig


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


def _listing(tensors):
    return [[name, list(arr.shape)] for name, arr in tensors.items()]


def write_checkpoint(path, header, tensors, listing=None):
    """Write the header and the tensors named in listing, a list of [name,
    shape] entries in payload order; by default each tensor with its shape."""
    listing = listing or _listing(tensors)
    payload = b"".join(np.asarray(tensors[name], dtype="<f4").tobytes() for name, _ in listing)
    path.write_bytes(json.dumps({**header, "tensors": listing}).encode() + b"\n" + payload)


def as_old_version(path, version):
    """Rewrite the checkpoint at path in format version 1, 2 or 3. Each stored
    a `config` object of the network sizes, here the ones the shapes declare.
    Versions 1 and 2 stored each LSTM direction as its own lstm_fw.* and
    lstm_bw.* tensors; version 1 also stored an `embedding_dim` header field
    and a zero `embeddings.unk` vector last."""
    header, tensors = read_checkpoint(path)
    (count, width, dim), word_dim = tensors["conv_filters"].shape, tensors["embeddings.matrix"].shape[1]
    config = NetworkConfig(num_tags=len(tensors["proj_bias"]), word_dim=word_dim, char_embed_dim=dim,
                           char_filter_width=width, char_filter_count=count, lstm_hidden=tensors["lstm.wh"].shape[2])
    header = {**header, "format_version": version, "config": dataclasses.asdict(config)}
    if version < 3:
        names = list(tensors)
        at = names.index("lstm.wx")
        split = {f"{direction}.{part}": tensors[f"lstm.{part}"][d]
                 for d, direction in enumerate(("lstm_fw", "lstm_bw")) for part in ("wx", "wh", "b")}
        tensors = {**{n: tensors[n] for n in names[:at]}, **split, **{n: tensors[n] for n in names[at + 3:]}}
    if version == 1:
        header["embedding_dim"] = word_dim
        tensors["embeddings.unk"] = np.zeros(word_dim)
    write_checkpoint(path, header, tensors)


def _cut_crf_to_five_tags(header, tensors):
    for name in ("crf.transitions", "crf.start", "crf.end"):
        tensors[name] = tensors[name][(slice(5),) * tensors[name].ndim]


def _conv_bias_dimension(change):
    def edit(header, tensors):
        listing = _listing(tensors)
        shape = next(e for e in listing if e[0] == "conv_bias")[1]
        shape[0] = change(shape[0])
        return listing
    return edit


def _matrix_one_column_wider(header, tensors):
    # The matrix's width is word_dim, and lstm.wx's input width minus the filter count no longer fits it.
    tensors["embeddings.matrix"] = np.pad(tensors["embeddings.matrix"], [(0, 0), (0, 1)])


def _listed_twice(header, tensors):
    listing = _listing(tensors)
    i = next(i for i, e in enumerate(listing) if e[0] == "conv_bias")
    listing.insert(i, listing[i])
    return listing


def _swapped_with_the_next(header, tensors):
    listing = _listing(tensors)
    i = next(i for i, e in enumerate(listing) if e[0] == "conv_bias")
    listing[i:i + 2] = listing[i + 1], listing[i]  # write_checkpoint swaps their payload too
    return listing


# id -> (edit of (header, tensors) in place, returning the tensor listing to
# write or None for each tensor with its shape; what the error message names)
DAMAGED = {
    "lstm-wh-cut-to-5-columns": (lambda h, t: t.update({"lstm.wh": t["lstm.wh"][:, :, :5]}), "lstm.wh"),
    "5-char-rows-for-a-larger-vocab": (lambda h, t: t.update({"char_embeddings": t["char_embeddings"][:5]}),
                                       "char_embeddings"),
    "conv-filters-of-width-2": (lambda h, t: t.update({"conv_filters": t["conv_filters"][:, :2]}), "conv_filters"),
    "5-tag-crf": (_cut_crf_to_five_tags, "crf.transitions"),
    "two-labels": (lambda h, t: h.update({"labels": h["labels"][:2]}), "proj_weights"),
    "word-dim-not-the-matrix-width": (_matrix_one_column_wider, "lstm.wx"),
    "missing-tensor": (lambda h, t: t.__delitem__("conv_bias"), "conv_bias"),
    "unknown-tensor": (lambda h, t: t.update({"attention.wq": np.zeros(2)}), "attention.wq"),
    # int() would truncate the first to the right size, and the second equals it under ==.
    "fractional-dimension": (_conv_bias_dimension(lambda n: n + 0.9), "conv_bias"),
    "whole-float-dimension": (_conv_bias_dimension(float), "conv_bias"),
    "tensor-listed-twice": (_listed_twice, "conv_bias"),
    "tensors-reordered": (_swapped_with_the_next, "conv_bias"),
}


def damage(path, case):
    """Rewrite the checkpoint at path as DAMAGED[case]; returns the name the error must give."""
    edit, named = DAMAGED[case]
    header, tensors = read_checkpoint(path)
    listing = edit(header, tensors)
    write_checkpoint(path, header, tensors, listing)
    return named
