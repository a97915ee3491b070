"""Parser for the litmus text format.

Grammar (one statement per line, ``#`` starts a comment)::

    test      := header thread+ condition
    header    := 'litmus' STRING
    thread    := 'thread' NAME '{' line* '}'
    line      := 'read'  address NAME          # load into register NAME
               | 'write' address operand       # store operand to address
               | 'fence' [NAME]                # fence (optional kind)
               | 'let' NAME '=' expr           # register arithmetic
               | 'branch' expr                 # conditional branch (control dep)
    address   := NAME | '[' NAME ']'           # location, or register-indirect
    operand   := NUMBER | NAME                 # constant or register
    expr      := operand (('+' | '-') operand)*
    condition := 'exists' [NAME '=' NUMBER ('&' NAME '=' NUMBER)*]

The ``exists`` clause must constrain every load register; it becomes the
test's outcome.  Only a test without loads may have the empty condition (a
bare ``exists``, which is what :func:`~repro.io.writer.litmus_to_text`
writes for it).
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.expr import BinOp, Const, Expr, Loc, Reg
from repro.core.instructions import Branch, Fence, Instruction, Load, Op, Store
from repro.core.litmus import LitmusTest
from repro.core.program import Program, Thread


class ParseError(ValueError):
    """Raised on malformed litmus text."""

    def __init__(self, message: str, line_number: Optional[int] = None) -> None:
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


_TOKEN_RE = re.compile(r"\[|\]|\{|\}|=|&|\+|-|\"[^\"]*\"|[A-Za-z_][A-Za-z_0-9]*|\d+")


def _strip_comment(line: str) -> str:
    position = line.find("#")
    return line if position < 0 else line[:position]


def _tokens(line: str) -> List[str]:
    return _TOKEN_RE.findall(line)


def _is_register(token: str) -> bool:
    """Registers are lower-case identifiers; locations are upper-case."""
    return token[0].islower() or token[0] == "_"


def _parse_operand(token: str, line_number: int) -> Expr:
    if token.isdigit():
        return Const(int(token))
    if _is_register(token):
        return Reg(token)
    return Loc(token)


def _parse_expr(tokens: List[str], line_number: int) -> Expr:
    if not tokens:
        raise ParseError("empty expression", line_number)
    expr = _parse_operand(tokens[0], line_number)
    index = 1
    while index < len(tokens):
        operator = tokens[index]
        if operator not in ("+", "-"):
            raise ParseError(f"expected '+' or '-', found {operator!r}", line_number)
        if index + 1 >= len(tokens):
            raise ParseError("dangling operator", line_number)
        expr = BinOp(operator, expr, _parse_operand(tokens[index + 1], line_number))
        index += 2
    return expr


def _parse_address(tokens: List[str], line_number: int) -> Tuple[Union[str, Expr], int]:
    """Parse an address; return (address, tokens consumed)."""
    if tokens[0] == "[":
        if len(tokens) < 3 or tokens[2] != "]":
            raise ParseError("malformed register-indirect address", line_number)
        return Reg(tokens[1]), 3
    return tokens[0], 1


def parse_litmus(text: str) -> LitmusTest:
    """Parse a litmus test from text."""
    name: Optional[str] = None
    threads: List[Thread] = []
    current_thread_name: Optional[str] = None
    current_instructions: List[Instruction] = []
    condition: Dict[str, int] = {}
    saw_condition = False
    condition_line = 0

    for line_number, raw_line in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        if not line:
            continue
        tokens = _tokens(line)
        if not tokens:
            continue
        keyword = tokens[0]

        if keyword == "litmus":
            if len(tokens) < 2:
                raise ParseError("missing test name", line_number)
            name = tokens[1].strip('"')
        elif keyword == "thread":
            if current_thread_name is not None:
                raise ParseError("nested thread definition", line_number)
            if len(tokens) < 2:
                raise ParseError("missing thread name", line_number)
            current_thread_name = tokens[1]
            if "{" not in tokens:
                raise ParseError("expected '{' after thread name", line_number)
            current_instructions = []
        elif keyword == "}":
            if current_thread_name is None:
                raise ParseError("'}' outside a thread", line_number)
            threads.append(Thread(current_thread_name, current_instructions))
            current_thread_name = None
        elif keyword == "read":
            if current_thread_name is None:
                raise ParseError("'read' outside a thread", line_number)
            address, consumed = _parse_address(tokens[1:], line_number)
            rest = tokens[1 + consumed :]
            if len(rest) != 1:
                raise ParseError("read needs exactly one destination register", line_number)
            current_instructions.append(Load(rest[0], address))
        elif keyword == "write":
            if current_thread_name is None:
                raise ParseError("'write' outside a thread", line_number)
            address, consumed = _parse_address(tokens[1:], line_number)
            value_tokens = tokens[1 + consumed :]
            current_instructions.append(Store(address, _parse_expr(value_tokens, line_number)))
        elif keyword == "fence":
            if current_thread_name is None:
                raise ParseError("'fence' outside a thread", line_number)
            kind = tokens[1] if len(tokens) > 1 else "full"
            current_instructions.append(Fence(kind))
        elif keyword == "let":
            if current_thread_name is None:
                raise ParseError("'let' outside a thread", line_number)
            if len(tokens) < 4 or tokens[2] != "=":
                raise ParseError("expected 'let NAME = expr'", line_number)
            current_instructions.append(Op(tokens[1], _parse_expr(tokens[3:], line_number)))
        elif keyword == "branch":
            if current_thread_name is None:
                raise ParseError("'branch' outside a thread", line_number)
            current_instructions.append(Branch(_parse_expr(tokens[1:], line_number)))
        elif keyword == "exists":
            saw_condition = True
            condition_line = line_number
            condition.update(_parse_condition(tokens[1:], line_number))
        else:
            raise ParseError(f"unknown statement {keyword!r}", line_number)

    if name is None:
        raise ParseError("missing 'litmus \"name\"' header")
    if current_thread_name is not None:
        raise ParseError(f"thread {current_thread_name} is not closed")
    if not threads:
        raise ParseError("litmus test has no threads")
    if not saw_condition:
        raise ParseError("missing 'exists' condition")
    if not condition and any(
        isinstance(instruction, Load)
        for thread in threads
        for instruction in thread.instructions
    ):
        raise ParseError("empty condition", condition_line)
    return LitmusTest.from_register_outcome(name, Program(threads), condition)


def _parse_condition(tokens: List[str], line_number: int) -> Dict[str, int]:
    condition: Dict[str, int] = {}
    index = 0
    while index < len(tokens):
        if len(tokens) - index < 3:
            raise ParseError("malformed condition", line_number)
        register, equals, value = tokens[index : index + 3]
        if equals != "=" or not value.isdigit():
            raise ParseError("conditions must have the form 'reg = value'", line_number)
        condition[register] = int(value)
        index += 3
        if index < len(tokens):
            if tokens[index] != "&":
                raise ParseError("conditions must be joined with '&'", line_number)
            index += 1
    return condition


def parse_litmus_file(path: Union[str, Path]) -> LitmusTest:
    """Parse a litmus test from a file."""
    return parse_litmus(Path(path).read_text())
