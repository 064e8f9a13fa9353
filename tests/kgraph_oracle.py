"""Direct oracles for imdner.kgraph: every head x tail pair of a document, and
the structured export through `json.dumps(..., indent=2)`."""

import json

from imdner.corpus import Document, tags_to_spans
from imdner.kgraph import Edge, EntityGraph, Node, RelationRule


def _normalize(text: str) -> str:
    return " ".join(text.split()).lower()


def _mentions(doc: Document):
    out = []
    for s, sent in enumerate(doc.sentences):
        for span in tags_to_spans(sent, sentence_index=s):
            surface = " ".join(t.text for t in sent.tokens[span.start: span.end])
            out.append((s, Node(_normalize(surface), span.label)))
    return out


def extract_graph(docs: list[Document], rules: list[RelationRule]) -> EntityGraph:
    """Every mention is a node; a rule adds an edge for every head and tail
    mention of the same document at most `window` sentences apart."""
    graph = EntityGraph()
    for doc in docs:
        mentions = _mentions(doc)
        graph.nodes.update(node for _, node in mentions)
        for rule in rules:
            heads = [(s, n) for s, n in mentions if n.label == rule.head_label]
            tails = [(s, n) for s, n in mentions if n.label == rule.tail_label]
            for hs, head in heads:
                for ts, tail in tails:
                    if head != tail and abs(hs - ts) <= rule.window:
                        graph.edges.add(Edge(head, tail, rule.relation_name))
    return graph


def export_structured(graph: EntityGraph) -> bytes:
    nodes = sorted(graph.nodes, key=lambda n: (n.label, n.text))
    edges = sorted(graph.edges, key=lambda e: (e.head.label, e.head.text, e.tail.label, e.tail.text, e.relation))
    doc = {
        "nodes": [{"text": n.text, "label": n.label} for n in nodes],
        "edges": [
            {
                "head": {"text": e.head.text, "label": e.head.label},
                "tail": {"text": e.tail.text, "label": e.tail.label},
                "relation": e.relation,
            }
            for e in edges
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
