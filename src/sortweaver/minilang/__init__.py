"""MiniLang frontend: parse Java-like sources and emit fact records."""

from .ast import CompilationUnit, Diagnostic, ParseResult, Position
from .extract import ExtractResult, extract_facts
from .parser import parse

__all__ = [
    "CompilationUnit",
    "Diagnostic",
    "ExtractResult",
    "ParseResult",
    "Position",
    "extract_facts",
    "parse",
]
