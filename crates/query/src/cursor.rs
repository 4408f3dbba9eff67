//! The character cursor the three query parsers share.
//!
//! Every step advances by whole chars: whitespace such as U+3000 is
//! multi-byte, and a byte-sized step would leave `pos` mid-char and
//! panic the next slice. Each language supplies its own identifier rule
//! and error prefix.

use st_core::StError;

/// A position in one query text.
pub(crate) struct Cursor<'a> {
    src: &'a str,
    /// Byte offset of the next unread char (always a char boundary).
    pub(crate) pos: usize,
    /// The language named in errors ("{lang} parse error at byte N: …").
    lang: &'static str,
    /// May `c` be the `i`-th char of an identifier?
    ident_char: fn(usize, char) -> bool,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(
        src: &'a str,
        lang: &'static str,
        ident_char: fn(usize, char) -> bool,
    ) -> Self {
        Cursor {
            src,
            pos: 0,
            lang,
            ident_char,
        }
    }

    /// A parse error at the current position.
    pub(crate) fn err(&self, msg: &str) -> StError {
        StError::Query(format!(
            "{} parse error at byte {}: {msg}",
            self.lang, self.pos
        ))
    }

    /// The unread text.
    pub(crate) fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }

    /// Skip whitespace.
    pub(crate) fn ws(&mut self) {
        while let Some(c) = self.rest().chars().next().filter(|c| c.is_whitespace()) {
            self.pos += c.len_utf8();
        }
    }

    /// Does `tok` come next, after whitespace?
    pub(crate) fn peek(&mut self, tok: &str) -> bool {
        self.ws();
        self.rest().starts_with(tok)
    }

    /// Consume `tok` if it comes next.
    pub(crate) fn eat(&mut self, tok: &str) -> bool {
        if self.peek(tok) {
            self.pos += tok.len();
            true
        } else {
            false
        }
    }

    /// Consume `tok` or fail.
    pub(crate) fn expect(&mut self, tok: &str) -> Result<(), StError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {tok:?}")))
        }
    }

    /// Consume an identifier under the language's rule.
    pub(crate) fn ident(&mut self) -> Result<String, StError> {
        self.ws();
        let word: String = self
            .rest()
            .chars()
            .enumerate()
            .take_while(|&(i, c)| (self.ident_char)(i, c))
            .map(|(_, c)| c)
            .collect();
        if word.is_empty() {
            return Err(self.err("expected an identifier"));
        }
        self.pos += word.len();
        Ok(word)
    }

    /// Consume `kw` if the next identifier is exactly `kw`.
    pub(crate) fn keyword(&mut self, kw: &str) -> bool {
        self.ws();
        let save = self.pos;
        match self.ident() {
            Ok(w) if w == kw => true,
            _ => {
                self.pos = save;
                false
            }
        }
    }

    /// Consume a decimal number.
    pub(crate) fn number(&mut self) -> Result<usize, StError> {
        self.ws();
        let rest = self.rest();
        let len = rest.chars().take_while(char::is_ascii_digit).count();
        if len == 0 {
            return Err(self.err("expected a number"));
        }
        let n: usize = rest[..len].parse().map_err(|_| self.err("bad number"))?;
        self.pos += len;
        Ok(n)
    }

    /// Fail with `msg` unless only whitespace is left.
    pub(crate) fn end(&mut self, msg: &str) -> Result<(), StError> {
        self.ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }
}
