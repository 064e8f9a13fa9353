import gc
import tracemalloc
from pathlib import Path

import pytest

from imdner.corpus import LabelSet, parse_conll
from imdner.embeddings import load_embeddings

DATA = Path(__file__).resolve().parent.parent / "data"

TOY_LABELS = LabelSet(("Symptom", "Treatment", "Biomarker"))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces while fn() runs, after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="session")
def toy_labels():
    return TOY_LABELS


@pytest.fixture(scope="session")
def toy_corpus():
    return parse_conll(DATA.joinpath("toy_corpus.conll").read_bytes(), TOY_LABELS, name="toy")


@pytest.fixture(scope="session")
def toy_table():
    return load_embeddings(DATA.joinpath("test_embeddings.txt").read_bytes())


@pytest.fixture(scope="session")
def sle_corpus():
    return parse_conll(DATA.joinpath("sle_narrative.conll").read_bytes(), name="sle")


@pytest.fixture(scope="session")
def data_dir():
    return DATA
