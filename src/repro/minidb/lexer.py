"""SQL tokenizer for MiniDB."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError

KEYWORDS = {
    "ALL", "AND", "ANY", "AS", "ASC", "BETWEEN", "BY", "CASE", "CAST",
    "CREATE", "CROSS", "DELETE", "DESC", "DISTINCT", "DROP", "ELSE", "END",
    "EXCEPT", "EXISTS", "FALSE", "FROM", "FULL", "GROUP", "HAVING", "IF",
    "IN", "INDEX", "INDEXED", "INNER", "INSERT", "INTERSECT", "INTO", "IS",
    "JOIN", "KEY", "LEFT", "LIKE", "LIMIT", "NOT", "NULL", "OFFSET", "ON",
    "OR", "ORDER", "OUTER", "PRIMARY", "RIGHT", "SELECT", "SET", "SOME",
    "TABLE", "THEN", "TRUE", "UNION", "UNIQUE", "UPDATE", "VALUES", "VIEW",
    "WHEN", "WHERE", "WITH",
}

OPERATORS = [
    "||", "<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%",
    "(", ")", ",", ".", ";",
]


@dataclass(frozen=True)
class Token:
    """A single lexical token."""

    kind: str  # KEYWORD, IDENT, INT, FLOAT, STRING, OP, EOF
    text: str
    value: object = None
    pos: int = 0


def tokenize(sql: str) -> list[Token]:
    """Tokenize *sql*, raising :class:`ParseError` on invalid input."""
    tokens: list[Token] = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if sql.startswith("--", i):
            end = sql.find("\n", i)
            i = n if end == -1 else end + 1
            continue
        if ch == "'":
            start = i
            text, value, i = _read_string(sql, i)
            tokens.append(Token("STRING", text, value, start))
            continue
        if ch == '"':
            # Double-quoted identifier.
            end = sql.find('"', i + 1)
            if end == -1:
                raise ParseError("unterminated quoted identifier", i)
            name = sql[i + 1 : end]
            tokens.append(Token("IDENT", name, name, i))
            i = end + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and sql[i + 1].isdigit()):
            start = i
            text, value, i = _read_number(sql, i)
            kind = "FLOAT" if isinstance(value, float) else "INT"
            tokens.append(Token(kind, text, value, start))
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (sql[i].isalnum() or sql[i] == "_"):
                i += 1
            word = sql[start:i]
            upper = word.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, upper, start))
            else:
                tokens.append(Token("IDENT", word, word, start))
            continue
        matched = False
        for op in OPERATORS:
            if sql.startswith(op, i):
                tokens.append(Token("OP", op, op, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", None, n))
    return tokens


def _read_string(sql: str, i: int) -> tuple[str, str, int]:
    """Read a single-quoted string with ``''`` escaping."""
    start = i
    i += 1
    chunks: list[str] = []
    while i < len(sql):
        ch = sql[i]
        if ch == "'":
            if i + 1 < len(sql) and sql[i + 1] == "'":
                chunks.append("'")
                i += 2
                continue
            return sql[start : i + 1], "".join(chunks), i + 1
        chunks.append(ch)
        i += 1
    raise ParseError("unterminated string literal", start)


def _read_number(sql: str, i: int) -> tuple[str, int | float, int]:
    start = i
    n = len(sql)
    seen_dot = False
    seen_exp = False
    while i < n:
        ch = sql[i]
        if ch.isdigit():
            i += 1
        elif ch == "." and not seen_dot and not seen_exp:
            seen_dot = True
            i += 1
        elif ch in "eE" and not seen_exp and i > start:
            nxt = sql[i + 1] if i + 1 < n else ""
            if nxt.isdigit() or (
                nxt in "+-" and i + 2 < n and sql[i + 2].isdigit()
            ):
                seen_exp = True
                i += 2 if nxt in "+-" else 1
            else:
                break
        else:
            break
    text = sql[start:i]
    if seen_dot or seen_exp:
        return text, float(text), i
    return text, int(text), i
