"""MiniLang frontend: ``parse`` turns a source into a compilation unit or
raises :class:`MiniLangSyntaxError`, and ``extract_facts`` turns a list of
units into the model's fact declarations."""

from .ast import CompilationUnit, Diagnostic, MiniLangSyntaxError, Position
from .extract import ExtractError, ExtractResult, extract_facts
from .parser import parse

__all__ = [
    "CompilationUnit",
    "Diagnostic",
    "ExtractError",
    "ExtractResult",
    "MiniLangSyntaxError",
    "Position",
    "extract_facts",
    "parse",
]
