"""Reference lexer: the character-at-a-time scanner that `logic._lex` replaced.

It tries every symbol with `startswith` at each position and tracks line
and column by advancing over the consumed text.  `_lex` must return the same
tokens and raise the same `FormulaSyntaxError` (message, line, column).
"""

from fomdp.logic import FormulaSyntaxError

_SYMBOLS = ("!=", "->", "(", ")", ",", ".", ":", "!", "&", "|", "=")


class ReferenceLexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self.tokens: list = []
        self._lex()

    def _advance(self, n: int):
        for ch in self.text[self.pos : self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _lex(self):
        text = self.text
        while self.pos < len(text):
            ch = text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if ch == "#":
                end = text.find("\n", self.pos)
                self._advance((end if end >= 0 else len(text)) - self.pos)
                continue
            matched = False
            for sym in _SYMBOLS:
                if text.startswith(sym, self.pos):
                    self.tokens.append(("sym", sym, self.line, self.col))
                    self._advance(len(sym))
                    matched = True
                    break
            if matched:
                continue
            if ch.isalpha():
                j = self.pos
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[self.pos : j]
                self.tokens.append(("ident", word, self.line, self.col))
                self._advance(j - self.pos)
                continue
            raise FormulaSyntaxError(f"unexpected character {ch!r}", self.line, self.col)
        self.tokens.append(("eof", "", self.line, self.col))
