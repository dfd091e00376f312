"""Shared helpers for the TPC-H query implementations."""

from __future__ import annotations

from repro.sqlparser import ast
from repro.sqlparser.parser import parse_expression


def items(*specs: str) -> list[ast.SelectItem]:
    """Parse ``"expr [AS alias]"`` strings into select items."""
    out = []
    for spec in specs:
        expr_sql, _, alias = spec.partition(" AS ")
        out.append(
            ast.SelectItem(expr=parse_expression(expr_sql), alias=alias.strip() or None)
        )
    return out
