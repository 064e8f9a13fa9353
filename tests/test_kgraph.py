import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgraph_oracle as oracle
from imdner.corpus import Document, LabelSet, Sentence, Token
from imdner.errors import ConfigError
from imdner.kgraph import (
    DEFAULT_RULES,
    Edge,
    EntityGraph,
    Node,
    RelationRule,
    export_graph,
    extract_graph,
)

LABELS = LabelSet(("Immune_Mediated_Disease", "Symptom", "Treatment", "Biomarker"))


def sentence(pairs):
    return Sentence(tuple(Token(t, g) for t, g in pairs))


def simple_doc():
    s0 = sentence([
        ("SLE", "B-Immune_Mediated_Disease"),
        ("caused", "O"),
        ("joint", "B-Symptom"),
        ("pain", "I-Symptom"),
    ])
    s1 = sentence([("ANA", "B-Biomarker"), ("rose", "O")])
    s2 = sentence([("ana", "B-Biomarker"), ("again", "O")])
    return Document("d", (s0, s1, s2))


class TestExtract:
    def test_no_rules_gives_nodes_only(self):
        g = extract_graph([simple_doc()], rules=[], labels=LABELS)
        assert g.edges == set()
        assert Node("sle", "Immune_Mediated_Disease") in g.nodes
        assert Node("joint pain", "Symptom") in g.nodes

    def test_window_zero_same_sentence_edge(self):
        rules = [RelationRule("Immune_Mediated_Disease", "Symptom", "HAS_SYMPTOM", window=0)]
        g = extract_graph([simple_doc()], rules, LABELS)
        assert g.edges == {
            Edge(Node("sle", "Immune_Mediated_Disease"), Node("joint pain", "Symptom"), "HAS_SYMPTOM")
        }

    def test_window_limits_sentence_distance(self):
        rules = [RelationRule("Immune_Mediated_Disease", "Biomarker", "HAS_BIOMARKER", window=1)]
        g = extract_graph([simple_doc()], rules, LABELS)
        # sentence 1 is in range; sentence 2 is not
        assert g.edges == {
            Edge(Node("sle", "Immune_Mediated_Disease"), Node("ana", "Biomarker"), "HAS_BIOMARKER")
        }

    def test_mentions_merge_into_one_node(self):
        g = extract_graph([simple_doc()], rules=[], labels=LABELS)
        biomarkers = [n for n in g.nodes if n.label == "Biomarker"]
        assert biomarkers == [Node("ana", "Biomarker")]

    def test_unknown_label_in_rule(self):
        with pytest.raises(ConfigError):
            extract_graph([simple_doc()], [RelationRule("Nope", "Symptom", "X")], LABELS)

    def test_monotone_in_documents(self):
        doc = simple_doc()
        other = Document("e", (sentence([("fatigue", "B-Symptom")]),))
        g1 = extract_graph([doc], DEFAULT_RULES)
        g2 = extract_graph([doc, other], DEFAULT_RULES)
        assert g1.nodes <= g2.nodes
        assert g1.edges <= g2.edges

    def test_window_edges_are_nested(self):
        doc = simple_doc()
        for k in (1, 2, 5):
            small = extract_graph([doc], [RelationRule("Immune_Mediated_Disease", "Biomarker", "R", 0)], LABELS)
            big = extract_graph([doc], [RelationRule("Immune_Mediated_Disease", "Biomarker", "R", k)], LABELS)
            assert small.edges <= big.edges


class TestExport:
    def test_empty_graph_both_formats(self):
        g = extract_graph([], rules=[], labels=LABELS)
        structured = export_graph(g, "structured").decode()
        dot = export_graph(g, "dot").decode()
        import json

        assert json.loads(structured) == {"nodes": [], "edges": []}
        assert dot.startswith("digraph")

    def test_dot_contains_one_edge_statement(self):
        rules = [RelationRule("Immune_Mediated_Disease", "Symptom", "HAS_SYMPTOM", window=0)]
        g = extract_graph([simple_doc()], rules, LABELS)
        dot = export_graph(g, "dot").decode()
        assert dot.count("->") == 1
        assert "HAS_SYMPTOM" in dot

    def test_export_is_deterministic(self):
        g = extract_graph([simple_doc()], DEFAULT_RULES)
        assert export_graph(g, "structured") == export_graph(g, "structured")
        assert export_graph(g, "dot") == export_graph(g, "dot")

    def test_unknown_format(self):
        g = extract_graph([], rules=[], labels=LABELS)
        with pytest.raises(ConfigError):
            export_graph(g, "yaml")


class TestSleNarrative:
    def test_nodes_cover_all_mentions(self, sle_corpus):
        g = extract_graph(sle_corpus, rules=[])
        assert len(g.nodes) == 11

    def test_default_rules_edge_families(self, sle_corpus):
        g = extract_graph(sle_corpus, DEFAULT_RULES)
        relations = {e.relation for e in g.edges}
        assert relations == {"HAS_SYMPTOM", "TREATED_WITH", "HAS_BIOMARKER", "COMORBID_WITH"}


# -- against the oracles in kgraph_oracle.py -----------------------------------

_QUOTED = r'"(?:[^"\\]|\\.)*"'
_DOT_NODE = re.compile(rf'  ({_QUOTED}) \[label=({_QUOTED}) fillcolor="[a-z]+"\];')
_DOT_EDGE = re.compile(rf'  ({_QUOTED}) -> ({_QUOTED}) \[label=({_QUOTED})\];')


def _unquote(quoted: str) -> str:
    return re.sub(r"\\(.)", r"\1", quoted[1:-1])


def check_dot(graph: EntityGraph, dot: bytes):
    """Every line of the DOT text is a header line, one node statement, one
    edge statement or the closing brace; every string in it is one properly
    escaped DOT string that unquotes to the text it stands for."""
    lines = dot.decode("utf-8").split("\n")
    assert lines[:3] == ["digraph entities {", "  rankdir=LR;", "  node [style=filled];"]
    assert lines[-2:] == ["}", ""]
    body = lines[3:-2]
    nodes, edges = set(), set()
    for line in body:
        if m := _DOT_NODE.fullmatch(line):
            label, _, text = _unquote(m[1]).partition("::")
            assert _unquote(m[2]) == text
            nodes.add(Node(text, label))
        else:
            m = _DOT_EDGE.fullmatch(line)
            assert m, line
            edges.add(tuple(_unquote(g) for g in m.groups()))
    assert len(body) == len(graph.nodes) + len(graph.edges)
    assert nodes == graph.nodes
    assert edges == {(f"{e.head.label}::{e.head.text}", f"{e.tail.label}::{e.tail.text}", e.relation)
                     for e in graph.edges}


def check_against_oracle(docs, rules, labels=None):
    graph = extract_graph(docs, rules, labels)
    expected = oracle.extract_graph(docs, rules)
    assert graph.nodes == expected.nodes
    assert graph.edges == expected.edges
    assert export_graph(graph, "structured") == oracle.export_structured(expected)
    check_dot(graph, export_graph(graph, "dot"))
    return graph


# Quotes, backslashes, control characters, case pairs that lowercase to one
# node (or, for U+0130, to two characters), CJK, and characters outside the
# BMP, which JSON escapes as surrogate pairs. None of them is whitespace.
_TEXT = st.text('aAb\u00e9\u00c9"\\\x00\x01\x7f\u00df\u0130\u4e2d\u2603\U0001f600\U0010ffff', min_size=1, max_size=4)
_LABELS = LabelSet(("Aa", "Bb", "Cc"))
_RELATIONS = st.sampled_from(["R", "R", 'say "x"', "back\\slash", "\u00fcber", "ctl\x01"])


@st.composite
def _sentence(draw):
    tags, open_label = [], None
    for _ in range(draw(st.integers(1, 6))):
        tag = draw(st.sampled_from(["O", "B", "I"]))
        if tag == "I" and open_label is None:
            tag = "B"
        if tag == "B":
            open_label = draw(st.sampled_from(_LABELS.labels))
        elif tag == "O":
            open_label = None
        tags.append(tag if tag == "O" else f"{tag}-{open_label}")
    return Sentence(tuple(Token(draw(_TEXT), tag) for tag in tags))


_DOCS = st.lists(st.lists(_sentence(), min_size=1, max_size=6), max_size=3).map(
    lambda docs: [Document(f"d{k}", tuple(sents)) for k, sents in enumerate(docs)])
_RULE = st.builds(RelationRule, st.sampled_from(_LABELS.labels), st.sampled_from(_LABELS.labels), _RELATIONS,
                  st.integers(0, 3))


class TestOracle:
    @given(docs=_DOCS, rules=st.lists(_RULE, max_size=4), same=st.sampled_from(_LABELS.labels),
           window=st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_random_documents_and_rules(self, docs, rules, same, window):
        rules = [*rules, RelationRule(same, same, "SAME", window)]
        check_against_oracle(docs, rules, _LABELS)

    def test_empty_graph(self):
        graph = check_against_oracle([], DEFAULT_RULES)
        assert export_graph(graph, "structured") == b'{\n  "nodes": [],\n  "edges": []\n}\n'

    def test_nodes_without_edges(self):
        graph = check_against_oracle([simple_doc()], [], LABELS)
        assert b'"edges": []\n}' in export_graph(graph, "structured")

    def test_sle_narrative(self, sle_corpus):
        for window in (0, 1, 3, 10**9):
            rules = [RelationRule(r.head_label, r.tail_label, r.relation_name, window) for r in DEFAULT_RULES]
            check_against_oracle(sle_corpus, rules)

    def test_same_label_rule_has_no_self_edges(self):
        rules = [RelationRule("Biomarker", "Biomarker", "CO_OCCURS", window=1)]
        graph = check_against_oracle([simple_doc()], rules, LABELS)
        # "ANA" and "ana" are one node, so no edge links it to itself
        assert graph.edges == set()


class TestDotEscaping:
    def test_backslash_at_the_end_of_a_token(self):
        doc = Document("d", (sentence([("C:\\", "B-Symptom"), ("SLE", "B-Immune_Mediated_Disease")]),))
        graph = extract_graph([doc], DEFAULT_RULES)
        dot = export_graph(graph, "dot")
        check_dot(graph, dot)
        assert b'"Symptom::c:\\\\" [label="c:\\\\" ' in dot

    def test_quotes_and_backslashes_in_relation_names(self):
        rules = [RelationRule("Immune_Mediated_Disease", "Symptom", 'a\\"b\\', window=0)]
        graph = extract_graph([simple_doc()], rules, LABELS)
        check_dot(graph, export_graph(graph, "dot"))
