"""citebias: audit the citation behavior of LLMs.

The package anonymizes in-text citations in scholarly papers, prompts an
LLM to suggest a reference for every bracketed citation number, verifies
the suggestions against a scholarly index, and quantifies characteristic
and citation-network biases relative to the papers' ground-truth
references.
"""

from .citegraph import (
    CitationGraph,
    avg_clustering,
    boolean_edge_density,
    build_graph,
    categorize,
    clustering_coefficient,
    edge_expansion,
)
from .config import PipelineConfig, load_config
from .corpus import PaperRecord, Venue, VenueTable
from .docprep import (
    BracketGroup,
    MainContent,
    extract_citations,
    locate_main_tex,
    prepare_source,
    select_intro_references,
    uniquely_identifiable_numbers,
)
from .llmgate import (
    DirectoryMockProvider,
    GeneratedReference,
    GenerationRun,
    merge_iterative,
    parse_reference_table,
    render_iterative_prompt,
    render_postprocess_prompt,
    render_vanilla_prompt,
)
from .matcher import (
    MatchCandidate,
    MatchVerdict,
    Thresholds,
    author_similarity,
    calibrate,
    decide_existence,
    search_candidates,
    title_similarity,
)
from .pipeline import run_pipeline
from .stats import RunSummary, bias_breakdown, characteristics, run_overlap, summarize_run

__version__ = "0.1.0"

__all__ = [
    "BracketGroup",
    "CitationGraph",
    "DirectoryMockProvider",
    "GeneratedReference",
    "GenerationRun",
    "MainContent",
    "MatchCandidate",
    "MatchVerdict",
    "PaperRecord",
    "PipelineConfig",
    "RunSummary",
    "Thresholds",
    "Venue",
    "VenueTable",
    "author_similarity",
    "avg_clustering",
    "bias_breakdown",
    "boolean_edge_density",
    "build_graph",
    "calibrate",
    "categorize",
    "characteristics",
    "clustering_coefficient",
    "decide_existence",
    "edge_expansion",
    "extract_citations",
    "load_config",
    "locate_main_tex",
    "merge_iterative",
    "parse_reference_table",
    "prepare_source",
    "render_iterative_prompt",
    "render_postprocess_prompt",
    "render_vanilla_prompt",
    "run_overlap",
    "run_pipeline",
    "search_candidates",
    "select_intro_references",
    "summarize_run",
    "title_similarity",
    "uniquely_identifiable_numbers",
]
