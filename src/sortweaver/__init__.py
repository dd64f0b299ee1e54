"""sortweaver: mine, explore, document and plan the migration of
crosscutting concerns from object-oriented code to aspect solutions.

The pipeline runs over a language-agnostic fact model: the bundled MiniLang
frontend (or any extractor writing facts.jsonl) feeds mining, sort queries,
a persisted concern model and refactoring-plan generation.
"""

__version__ = "0.1.0"

from .model import (  # noqa: F401
    DispatchPolicy,
    FactError,
    SourceModel,
    load_facts,
    load_facts_path,
    load_records,
)

__all__ = [
    "DispatchPolicy",
    "FactError",
    "SourceModel",
    "__version__",
    "load_facts",
    "load_facts_path",
    "load_records",
]
