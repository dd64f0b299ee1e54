"""MiniLang frontend: parse Java-like sources and extract their fact declarations."""

from .ast import CompilationUnit, Diagnostic, ParseResult, Position
from .extract import ExtractError, ExtractResult, extract_facts
from .parser import parse

__all__ = [
    "CompilationUnit",
    "Diagnostic",
    "ExtractError",
    "ExtractResult",
    "ParseResult",
    "Position",
    "extract_facts",
    "parse",
]
