"""Rule-based relation extraction over tagged entities and graph export.

Relations are deterministic co-occurrence rules: a (head, tail) label pair
within a sentence-distance window produces one directed edge. Node identity
is the lowercased, whitespace-normalized surface form plus its label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .corpus import Document, LabelSet
from .errors import ConfigError, ValidationError, check_field_types


@dataclass(frozen=True)
class RelationRule:
    head_label: str
    tail_label: str
    relation_name: str
    window: int = 1  # max sentence distance

    def __post_init__(self):
        check_field_types(self)
        if not self.relation_name:
            raise ValidationError("relation_name must be non-empty")
        if self.window < 0:
            raise ValidationError("window must be non-negative")


DEFAULT_RULES = (
    RelationRule("Immune_Mediated_Disease", "Symptom", "HAS_SYMPTOM", window=1),
    RelationRule("Immune_Mediated_Disease", "Treatment", "TREATED_WITH", window=1),
    RelationRule("Immune_Mediated_Disease", "Biomarker", "HAS_BIOMARKER", window=1),
    RelationRule("Immune_Mediated_Disease", "Other_Disease_Disorder", "COMORBID_WITH", window=1),
)


@dataclass(frozen=True)
class Node:
    text: str  # normalized surface form
    label: str


@dataclass(frozen=True)
class Edge:
    head: Node
    tail: Node
    relation: str


@dataclass
class EntityGraph:
    nodes: set[Node] = field(default_factory=set)
    edges: set[Edge] = field(default_factory=set)


def _mentions(doc: Document) -> dict[str, dict[int, set[str]]]:
    """label -> sentence index -> the node texts mentioned there. Tokens hold
    no whitespace, so a span's tokens joined by single spaces are already
    whitespace-normalized."""
    by_label: dict[str, dict[int, set[str]]] = {}
    for s, sent in enumerate(doc.sentences):
        texts = sent.texts
        for start, end, label in sent.span_bounds:
            surface = " ".join(texts[start:end]).lower()
            by_label.setdefault(label, {}).setdefault(s, set()).add(surface)
    return by_label


def _near(by_sentence: dict[int, set[str]], s: int, window: int):
    """The text sets of the sentences at most `window` away from sentence s."""
    if 2 * window + 1 < len(by_sentence):
        return [by_sentence[t] for t in range(s - window, s + window + 1) if t in by_sentence]
    return [texts for t, texts in by_sentence.items() if abs(t - s) <= window]


def extract_graph(docs: list[Document], rules: list[RelationRule] = DEFAULT_RULES, labels: LabelSet | None = None) -> EntityGraph:
    """Every mention is a node. A rule links each head mention to every tail
    mention of the same document at most `window` sentences away, except a
    node to itself."""
    labels = labels or LabelSet()
    rules = tuple(rules)
    for rule in rules:
        for lab in (rule.head_label, rule.tail_label):
            if lab not in labels:
                raise ConfigError(f"rule {rule.relation_name} references unknown label {lab!r}")

    nodes: set[tuple[str, str]] = set()  # (text, label)
    edges: set[tuple[str, str, int]] = set()  # (head text, tail text, rule index)
    for doc in docs:
        by_label = _mentions(doc)
        for label, by_sentence in by_label.items():
            for texts in by_sentence.values():
                nodes.update((text, label) for text in texts)
        for r, rule in enumerate(rules):
            heads, tails = by_label.get(rule.head_label), by_label.get(rule.tail_label)
            if heads is None or tails is None:
                continue
            for s, head_texts in heads.items():
                for tail_texts in _near(tails, s, rule.window):
                    edges.update((h, t, r) for h in head_texts for t in tail_texts)

    node = {key: Node(*key) for key in nodes}
    graph = EntityGraph(set(node.values()))
    for h, t, r in edges:
        rule = rules[r]
        if h != t or rule.head_label != rule.tail_label:
            graph.edges.add(Edge(node[h, rule.head_label], node[t, rule.tail_label], rule.relation_name))
    return graph


def _sorted_nodes(graph: EntityGraph) -> list[tuple[str, str]]:
    """(label, text) of every node, in export order."""
    return sorted((n.label, n.text) for n in graph.nodes)


def _sorted_edges(graph: EntityGraph) -> list[tuple[str, str, str, str, str]]:
    """(head label, head text, tail label, tail text, relation) of every edge,
    in export order."""
    return sorted((e.head.label, e.head.text, e.tail.label, e.tail.text, e.relation) for e in graph.edges)


# Fill colors for DOT rendering, keyed by default schema label.
_LABEL_COLORS = {
    "Bacterial_Infection": "lightsalmon",
    "Biomarker": "khaki",
    "Fungal_Infection": "peachpuff",
    "Geographical_Location": "lightcyan",
    "Immune_Mediated_Disease": "lightcoral",
    "Other_Disease_Disorder": "plum",
    "Other_Test": "lightsteelblue",
    "Rad_Test": "powderblue",
    "Symptom": "lightgreen",
    "Test_Result": "wheat",
    "Treatment": "lightskyblue",
    "Viral_Infection": "mistyrose",
}


# One node and one edge as `json.dumps(doc, indent=2)` lays them out inside
# the document. The structured export fills these in with json's own C string
# escaper, and so keeps json's bytes without the pure-Python encoder that
# CPython falls back to whenever an indent is set.
_NODE_JSON = """    {
      "text": %s,
      "label": %s
    }"""
_EDGE_JSON = """    {
      "head": {
        "text": %s,
        "label": %s
      },
      "tail": {
        "text": %s,
        "label": %s
      },
      "relation": %s
    }"""


def _json_list(key: str, items: list[str]) -> str:
    if not items:
        return f'  "{key}": []'
    return f'  "{key}": [\n' + ",\n".join(items) + "\n  ]"


def _dot_string(text: str) -> str:
    """A quoted DOT string: backslashes doubled, then quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_graph(graph: EntityGraph, format: str = "structured") -> bytes:
    """Serialize the graph: 'structured' (JSON) or 'dot' (Graphviz text)."""
    if format == "structured":
        q = encode_basestring_ascii
        nodes = [_NODE_JSON % (q(text), q(label)) for label, text in _sorted_nodes(graph)]
        edges = [_EDGE_JSON % (q(ht), q(hl), q(tt), q(tl), q(rel)) for hl, ht, tl, tt, rel in _sorted_edges(graph)]
        return ("{\n" + _json_list("nodes", nodes) + ",\n" + _json_list("edges", edges) + "\n}\n").encode("utf-8")

    if format == "dot":
        node_id = {}
        lines = ["digraph entities {", "  rankdir=LR;", "  node [style=filled];"]
        for label, text in _sorted_nodes(graph):
            node_id[label, text] = key = _dot_string(f"{label}::{text}")
            color = _LABEL_COLORS.get(label, "lightgray")
            lines.append(f'  {key} [label={_dot_string(text)} fillcolor="{color}"];')
        for hl, ht, tl, tt, rel in _sorted_edges(graph):
            lines.append(f"  {node_id[hl, ht]} -> {node_id[tl, tt]} [label={_dot_string(rel)}];")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode("utf-8")

    raise ConfigError(f"unknown export format {format!r} (expected 'structured' or 'dot')")
