"""Per-focal-paper citation graphs over ground-truth and existing
generated references, with the category tags and connectivity metrics.

Nodes are index ids: the focal paper, its introduction's ground-truth
references, and the matched ids of existing generated references (a
generated reference that names a ground-truth work shares its node).
Edges are directed citations (citer, cited) taken from the enrichment
adjacency, restricted to the node set. All metrics are computed on the
undirected projection with parallel edges collapsed and returned as
exact fractions; an impossible denominator yields None, never a fault.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .clients import atomic_write_text
from .corpus import PaperRecord
from .stats import Histogram, count_distribution, format_fraction, write_csv

logger = logging.getLogger(__name__)

FOCAL = "Focal"
GEN_IN_INTRO = "GenInIntro"
GEN_IN_PAPER = "GenInPaper"
GEN_LINKED = "GenLinked"
GEN_ISOLATED = "GenIsolated"
GT_UNCITED = "GroundTruthUncited"

GENERATED_CATEGORIES = (GEN_IN_INTRO, GEN_IN_PAPER, GEN_LINKED, GEN_ISOLATED)
ALL_CATEGORIES = (FOCAL, *GENERATED_CATEGORIES, GT_UNCITED)


@dataclass
class CitationGraph:
    """A directed citation graph for one focal paper."""

    focal_id: str
    nodes: set[str]
    edges: set[tuple[str, str]]
    intro_ids: set[str]
    generated_ids: set[str]
    node_tags: dict[str, str] = field(default_factory=dict)
    unknown_adjacency: list[str] = field(default_factory=list)

    def undirected_neighbors(self, node: str) -> set[str]:
        out = set()
        for citer, cited in self.edges:
            if citer == node:
                out.add(cited)
            elif cited == node:
                out.add(citer)
        out.discard(node)
        return out

    def adjacent(self, a: str, b: str) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges


def build_graph(
    focal: PaperRecord,
    intro_ids: list[str],
    generated_ids: list[str],
    adjacency: dict[str, list[str]],
) -> CitationGraph:
    """Assemble the graph for one focal paper.

    The node set is the focal paper plus intro ground-truth ids plus
    matched generated ids, deduplicated. The edge set is the focal paper
    citing each intro reference, plus every adjacency edge whose both
    endpoints are nodes. Nodes with no adjacency entry contribute no
    outgoing edges and are tallied as unknown.
    """
    intro = set(intro_ids)
    generated = set(generated_ids)
    nodes = {focal.index_id} | intro | generated
    edges: set[tuple[str, str]] = {(focal.index_id, ref) for ref in intro}
    unknown = []
    for node in sorted(nodes):
        outgoing = adjacency.get(node)
        if outgoing is None:
            if node != focal.index_id:
                unknown.append(node)
            continue
        for cited in outgoing:
            if cited in nodes and cited != node:
                edges.add((node, cited))
    return CitationGraph(
        focal_id=focal.index_id,
        nodes=nodes,
        edges=edges,
        intro_ids=intro,
        generated_ids=generated,
        unknown_adjacency=unknown,
    )


def categorize(graph: CitationGraph, focal: PaperRecord) -> dict[str, str]:
    """Tag every node with its mutually exclusive category.

    Generated nodes take the first matching tag of: in the introduction,
    in the paper's full reference list, linked (an edge in either
    direction to any ground-truth or other generated node), isolated.
    Ground-truth intro references never matched by a generation are
    tagged uncited; edges to the focal paper alone do not make a node
    linked.
    """
    reference_ids = set(focal.reference_ids)
    linkable = (graph.intro_ids | graph.generated_ids) - {graph.focal_id}
    tags: dict[str, str] = {graph.focal_id: FOCAL}
    for node in sorted(graph.generated_ids - {graph.focal_id}):
        if node in graph.intro_ids:
            tags[node] = GEN_IN_INTRO
        elif node in reference_ids:
            tags[node] = GEN_IN_PAPER
        elif graph.undirected_neighbors(node) & (linkable - {node}):
            tags[node] = GEN_LINKED
        else:
            tags[node] = GEN_ISOLATED
    for node in sorted(graph.intro_ids - graph.generated_ids - {graph.focal_id}):
        tags[node] = GT_UNCITED
    graph.node_tags = tags
    return tags


def clustering_coefficient(graph: CitationGraph, node: str) -> Fraction:
    """Triangles through the node over possible triangles, on the
    undirected projection; degree below two gives zero."""
    if node not in graph.nodes:
        raise ValueError(f"{node!r} is not in the graph")
    neighbors = sorted(graph.undirected_neighbors(node))
    k = len(neighbors)
    if k < 2:
        return Fraction(0)
    triangles = 0
    for i in range(k):
        for j in range(i + 1, k):
            if graph.adjacent(neighbors[i], neighbors[j]):
                triangles += 1
    return Fraction(triangles, k * (k - 1) // 2)


def avg_clustering(graph: CitationGraph, subset: set[str]) -> Fraction | None:
    """Mean clustering coefficient over subset members with a nonzero
    coefficient; None when no member has one."""
    if not subset <= graph.nodes:
        raise ValueError("subset contains nodes outside the graph")
    coefficients = [clustering_coefficient(graph, node) for node in sorted(subset)]
    nonzero = [c for c in coefficients if c > 0]
    if not nonzero:
        return None
    return Fraction(sum(nonzero), len(nonzero))


def _require_tags(graph: CitationGraph) -> None:
    if not graph.node_tags:
        raise ValueError("categorize the graph before computing set metrics")


def boolean_edge_density(graph: CitationGraph) -> Fraction | None:
    """Fraction of linked generated nodes adjacent to at least one
    ground-truth intro reference; None with no linked nodes."""
    _require_tags(graph)
    linked = [n for n, tag in graph.node_tags.items() if tag == GEN_LINKED]
    if not linked:
        return None
    connected = sum(
        1 for node in linked if graph.undirected_neighbors(node) & graph.intro_ids
    )
    return Fraction(connected, len(linked))


def edge_expansion(graph: CitationGraph) -> Fraction | None:
    """Cross edges between the linked-generated set and the ground-truth
    intro set, divided by the smaller set's size.

    Each unordered pair counts once regardless of edge direction. None
    when either set is empty.
    """
    _require_tags(graph)
    linked = {n for n, tag in graph.node_tags.items() if tag == GEN_LINKED}
    gt = graph.intro_ids - {graph.focal_id}
    smaller = min(len(linked), len(gt))
    if smaller == 0:
        return None
    cross = 0
    for a in sorted(linked):
        for b in sorted(gt):
            if graph.adjacent(a, b):
                cross += 1
    return Fraction(cross, smaller)


def category_counts(graph: CitationGraph) -> dict[str, int]:
    _require_tags(graph)
    counts = {cat: 0 for cat in ALL_CATEGORIES}
    for tag in graph.node_tags.values():
        counts[tag] += 1
    return counts


def category_profiles(
    graphs: list[CitationGraph],
    citation_counts: dict[str, int | None],
    reference_counts: dict[str, int | None],
) -> dict[str, dict[str, Histogram]]:
    """Citation/reference-count distributions per node category across
    all focal papers. A node contributes once per graph it appears in."""
    values_citation: dict[str, list[int | None]] = {c: [] for c in ALL_CATEGORIES}
    values_reference: dict[str, list[int | None]] = {c: [] for c in ALL_CATEGORIES}
    for graph in graphs:
        _require_tags(graph)
        for node, tag in sorted(graph.node_tags.items()):
            if tag == FOCAL:
                continue
            values_citation[tag].append(citation_counts.get(node))
            values_reference[tag].append(reference_counts.get(node))
    profiles: dict[str, dict[str, Histogram]] = {}
    for category in ALL_CATEGORIES:
        if category == FOCAL:
            continue
        profiles[category] = {
            "citation_count": count_distribution(values_citation[category], "citation_count"),
            "reference_count": count_distribution(values_reference[category], "reference_count"),
        }
    return profiles


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def write_graph_files(out_dir: Path | str, graph: CitationGraph) -> None:
    """Edge list and node-tag sidecar for one paper."""
    edge_lines = [f"{citer}\t{cited}" for citer, cited in sorted(graph.edges)]
    edges = "\n".join(edge_lines) + ("\n" if edge_lines else "")
    atomic_write_text(os.path.join(out_dir, "edges.tsv"), edges)
    tag_lines = [f"{node}\t{tag}" for node, tag in sorted(graph.node_tags.items())]
    tags = "\n".join(tag_lines) + ("\n" if tag_lines else "")
    atomic_write_text(os.path.join(out_dir, "tags.tsv"), tags)


def write_graph_metrics_csv(
    path: Path | str, rows: list[dict], manifest_hash: str
) -> None:
    header = [
        "paper_id",
        "boolean_edge_density",
        "edge_expansion",
        "avg_clustering_ground_truth",
        "avg_clustering_generated",
        *(f"n_{cat}" for cat in GENERATED_CATEGORIES),
        f"n_{GT_UNCITED}",
        "unknown_adjacency",
    ]
    write_csv(path, header, [[str(row[col]) for col in header] for row in rows], manifest_hash)


def metrics_row(graph: CitationGraph) -> dict:
    """One graph_metrics.csv row for a categorized graph."""
    counts = category_counts(graph)
    gt_nodes = graph.intro_ids - {graph.focal_id}
    return {
        "paper_id": graph.focal_id,
        "boolean_edge_density": format_fraction(boolean_edge_density(graph), 6),
        "edge_expansion": format_fraction(edge_expansion(graph), 6),
        "avg_clustering_ground_truth": format_fraction(avg_clustering(graph, gt_nodes), 6),
        "avg_clustering_generated": format_fraction(
            avg_clustering(graph, graph.generated_ids - {graph.focal_id}), 6
        ),
        **{f"n_{cat}": counts[cat] for cat in GENERATED_CATEGORIES},
        f"n_{GT_UNCITED}": counts[GT_UNCITED],
        "unknown_adjacency": len(graph.unknown_adjacency),
    }
