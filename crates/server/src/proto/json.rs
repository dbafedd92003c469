//! The JSON both hand-written halves of the codec speak: a [`Writer`] that
//! appends compact JSON byte for byte as the vendored `serde_json` writes
//! it, and a [`Reader`] that walks only text laid out that way.
//!
//! The reader is a cursor over bytes that never indexes past its text. Each
//! step returns `None` at the first byte that differs from what the writer
//! would have written — whitespace, an escape, a sign, a leading zero, a
//! fraction or an exponent, a number above `i64::MAX` — and the caller then
//! hands the whole frame to the generic serde path, which accepts and
//! refuses exactly what it always has.

use std::io::Write as _;

/// A message's hand-written layout; what makes [`super::Frame`] sealed.
pub trait Layout: Sized {
    /// Appends the compact JSON `serde_json::to_string` writes for `self`.
    fn write(&self, w: &mut Writer);
    /// Reads `text` if it is laid out exactly as [`Layout::write`] lays it
    /// out; `None` leaves it to the generic path.
    fn read(text: &str) -> Option<Self>;
}

/// A frame payload being written.
pub struct Writer(pub Vec<u8>);

impl Writer {
    /// Appends `text` as it is: punctuation, member names, literals.
    pub(crate) fn lit(&mut self, text: &str) {
        self.0.extend_from_slice(text.as_bytes());
    }

    /// An integer, in decimal digits as `Display` writes it.
    pub(crate) fn uint(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        for digit in digits.iter_mut().rev() {
            *digit = b'0' + (n % 10) as u8;
            start -= 1;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.0.extend_from_slice(&digits[start..]);
    }

    /// A float as `Display` writes it; JSON has no NaN or infinity, so a
    /// non-finite one is `null`.
    pub(crate) fn f64(&mut self, x: f64) {
        if x.is_finite() {
            write!(self.0, "{x}").expect("a Vec accepts every write");
        } else {
            self.lit("null");
        }
    }

    /// A quoted string, escaped as the vendored `write_string` escapes it:
    /// `"`, `\`, newline, carriage return and tab by name, every other
    /// control character as `\u00xx`, everything else as it is.
    pub(crate) fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        self.0.push(b'"');
        let bytes = s.as_bytes();
        let mut run = 0;
        for (at, &b) in bytes.iter().enumerate() {
            let coded;
            let escape: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => {
                    coded = [
                        b'\\',
                        b'u',
                        b'0',
                        b'0',
                        HEX[usize::from(b >> 4)],
                        HEX[usize::from(b & 15)],
                    ];
                    &coded
                }
                _ => continue,
            };
            self.0.extend_from_slice(&bytes[run..at]);
            self.0.extend_from_slice(escape);
            run = at + 1;
        }
        self.0.extend_from_slice(&bytes[run..]);
        self.0.push(b'"');
    }

    /// `null`, or `value` as `put` writes it.
    pub(crate) fn opt<T>(&mut self, value: Option<T>, put: impl FnOnce(&mut Self, T)) {
        match value {
            Some(value) => put(self, value),
            None => self.lit("null"),
        }
    }
}

/// A cursor over a frame that moves only over the [`Writer`]'s layout.
pub(crate) struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Reader { text, pos: 0 }
    }

    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// Steps over `text`.
    pub(crate) fn lit(&mut self, text: &str) -> Option<()> {
        self.rest().starts_with(text.as_bytes()).then(|| self.pos += text.len())
    }

    /// At the end of the text.
    pub(crate) fn end(&self) -> Option<()> {
        (self.pos == self.text.len()).then_some(())
    }

    /// An integer as the writer spells one no larger than `i64::MAX`.
    pub(crate) fn uint(&mut self) -> Option<u64> {
        let rest = self.rest();
        let len = rest.iter().position(|b| !b.is_ascii_digit()).unwrap_or(rest.len());
        let digits = rest.get(..len)?;
        if digits.is_empty() || (digits[0] == b'0' && len > 1) {
            return None;
        }
        let n = digits
            .iter()
            .try_fold(0u64, |n, &d| n.checked_mul(10)?.checked_add(u64::from(d - b'0')))
            .filter(|&n| n <= i64::MAX as u64)?;
        self.pos += len;
        Some(n)
    }

    /// [`Reader::uint`] as a `usize`.
    pub(crate) fn usize(&mut self) -> Option<usize> {
        self.uint().and_then(|n| usize::try_from(n).ok())
    }

    /// `true` or `false`.
    pub(crate) fn bool(&mut self) -> Option<bool> {
        match self.lit("true") {
            Some(()) => Some(true),
            None => self.lit("false").map(|()| false),
        }
    }

    /// A quoted string with nothing to unescape: no `\`, no control
    /// character.
    pub(crate) fn str(&mut self) -> Option<&'a str> {
        self.lit("\"")?;
        let start = self.pos;
        let len = self.rest().iter().position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
        self.pos += len;
        self.lit("\"")?;
        self.text.get(start..start + len)
    }

    /// `null`, or what `read` reads.
    pub(crate) fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Option<T>,
    ) -> Option<Option<T>> {
        match self.lit("null") {
            Some(()) => Some(None),
            None => read(self).map(Some),
        }
    }
}
