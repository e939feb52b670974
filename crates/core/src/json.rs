//! Minimal JSON layer shared by report export and the `tn-server` API.
//!
//! The hermetic-build policy (DESIGN.md §6) keeps `serde` out of the
//! tree, so both directions are hand-rolled here:
//!
//! * **writing** — the `push_json_*` helpers append escaped fragments to
//!   a `String`; they started life in [`crate::report`] and moved here so
//!   the HTTP server and the report exporter share one escaping policy;
//! * **parsing** — [`Scanner`] is the one lexer: a pull scanner with
//!   object and array walkers and a `skip`, whose unescaped strings are
//!   slices of the input. The server decodes each request body with it,
//!   straight into the members its handler reads. [`parse`] builds the
//!   [`Json`] tree on top of it, for snapshots, scenario files and the
//!   surface cache;
//! * **canonicalisation** — [`Json::to_canonical_string`] re-serialises a
//!   tree with object keys sorted and numbers in a fixed form (snapshot
//!   lines, report fixed points). Cache keys are not canonical JSON: the
//!   server writes each from its decoded request's exact bits with
//!   [`crate::cache_key`], which also tells `-0` from `0`, as rendered
//!   bodies do.
//!
//! Escaping covers *every* control character below `U+0020` (the common
//! ones as the two-character escapes `\n`, `\r`, `\t`, `\b`, `\f`; the
//! rest as `\u00XX`). Non-finite numbers have no JSON encoding and are
//! written as `null`. The parser never produces a NaN; a number too
//! large for an `f64` (`1e999`) reads as an infinity, as `str::parse`
//! reads it.
//!
//! **Number lexing.** [`Scanner`] lexes each number once. Its grammar
//! walk gathers the digits into an integer mantissa and counts the
//! decimal exponent as it goes. A mantissa of at most 19 digits below
//! 2⁵³ scaled by a power of ten within 10^±22 is two exact `f64`s, so one
//! multiply or divide gives the correctly rounded value, the bits
//! `str::parse` gives (Clinger's fast path); a zero mantissa is a zero
//! of the number's sign at any exponent. Every other number (a longer
//! mantissa, a larger exponent, a subnormal) goes to `str::parse` on the
//! same text. The two-pass lexer it replaced is its `#[cfg(test)]`
//! oracle: 200,000 generated spellings per `cargo test` and ten million
//! in CI must give the same bits or the same error.
//!
//! **Number format.** [`push_json_f64`] writes a finite `f64` byte for
//! byte as `{:e}` does: the shortest digits that parse back to the same
//! value, the closest such digits to it, exact ties rounded up, then
//! `e` and the exponent (`1e0`, `2.5e-10`, `-1.7976931348623157e308`,
//! `0e0`, `-0e0`). The digits come from a Ryū writer (Adams, PLDI 2018)
//! with compile-time tables; `{:e}` is only its test oracle.
//!
//! **Cost contract.** Parsing and writing are linear in the size of the
//! input: strings are scanned and copied in runs of plain bytes, numbers
//! are formatted in place, and a canonical object is written without a
//! per-object map. A float costs tens of nanoseconds, about half of what
//! `{:e}` costs. The server scans each request body once (a fleet
//! request's decode is memoised for the router and the handler), so a
//! body at the 1 MiB HTTP cap costs milliseconds, never seconds, on an
//! event-loop shard.

use std::borrow::Cow;
use std::fmt::{self, Write as _};

use crate::shortest;

/// Appends a JSON string literal (with escaping) to `out`.
///
/// Every byte that needs escaping is ASCII, and no byte of a multi-byte
/// UTF-8 sequence is, so the scan works on bytes and copies each run of
/// unescaped characters with one `push_str`.
pub fn push_json_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        let escape = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x08 => "\\b",
            0x0c => "\\f",
            0x00..=0x1f => "\\u00",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(escape);
        if escape == "\\u00" {
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends a JSON number in scientific notation (the report format);
/// non-finite values (e.g. an unbounded upper confidence limit) have no
/// JSON encoding and are emitted as `null`.
///
/// A finite value is written exactly as `{:e}` writes it: the shortest
/// round-trip digits, the closest of those, ties rounded up, and `-0e0`
/// for negative zero (see the module docs). It allocates nothing beyond
/// `out`'s growth and costs tens of nanoseconds.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        shortest::push_exp(out, v);
    } else {
        out.push_str("null");
    }
}

/// Appends a JSON number in canonical form: integral values in the exact
/// `i64` range print without exponent or fraction, everything else falls
/// back to [`push_json_f64`]. `-0.0` canonicalises to `0`.
pub fn push_json_num(out: &mut String, v: f64) {
    // 2^53: above this, f64 no longer represents every integer, so the
    // integer rendering would suggest more precision than the value has.
    if v.is_finite() && v == v.trunc() && v.abs() <= 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        push_json_f64(out, v);
    }
}

/// A scalar a writer puts in a JSON document: a number in the report's
/// format ([`push_json_f64`]), a string escaped, an integer or a boolean
/// as is.
pub trait JsonScalar {
    /// Appends the value to `out`.
    fn push_to(self, out: &mut String);
}

impl JsonScalar for f64 {
    fn push_to(self, out: &mut String) {
        push_json_f64(out, self);
    }
}

impl JsonScalar for &str {
    fn push_to(self, out: &mut String) {
        push_json_str(out, self);
    }
}

impl JsonScalar for u64 {
    fn push_to(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl JsonScalar for usize {
    fn push_to(self, out: &mut String) {
        let _ = write!(out, "{self}");
    }
}

impl JsonScalar for bool {
    fn push_to(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

/// Appends one object member: `key`, which carries the member's
/// punctuation and quoted name (`{"seed":` to open an object, `,"seed":`
/// after another member), then `value`.
pub fn push_json_member(out: &mut String, key: &str, value: impl JsonScalar) {
    out.push_str(key);
    value.push_to(out);
}

/// A parsed JSON value.
///
/// Object member order is preserved as parsed; lookups are linear, which
/// is fine for the request-sized documents this crate handles. Numbers
/// are stored as `f64` — JSON has a single number type — so integers are
/// exact up to 2⁵³ (see [`Json::as_u64`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in document order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Looks a key up in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer: present only if
    /// this is a non-negative number with no fractional part within the
    /// exactly-representable range (≤ 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serialises with object keys sorted lexicographically and numbers
    /// in canonical form — the snapshot-line representation: two
    /// documents that parse to the same tree always canonicalise to the
    /// same string, regardless of member order or number spelling.
    pub fn to_canonical_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, canonical: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => {
                if canonical {
                    push_json_num(out, *v);
                } else {
                    push_json_f64(out, *v);
                }
            }
            Json::Str(s) => push_json_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out, canonical);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                if !canonical || members.windows(2).all(|w| w[0].0 < w[1].0) {
                    // Document order, or already strictly sorted (as
                    // `FleetEntry::to_json` emits): write in place.
                    Self::write_members(out, members.iter(), canonical);
                } else {
                    // A stable sort keeps duplicates in document order;
                    // the last of each run wins, as a map insert would.
                    let mut sorted: Vec<&(String, Json)> = members.iter().collect();
                    sorted.sort_by(|a, b| a.0.cmp(&b.0));
                    let last_of_each_key = sorted
                        .iter()
                        .enumerate()
                        .filter(|&(i, m)| sorted.get(i + 1).map_or(true, |next| next.0 != m.0))
                        .map(|(_, &m)| m);
                    Self::write_members(out, last_of_each_key, canonical);
                }
                out.push('}');
            }
        }
    }

    fn write_members<'m>(
        out: &mut String,
        members: impl Iterator<Item = &'m (String, Json)>,
        canonical: bool,
    ) {
        for (i, (k, v)) in members.enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(out, k);
            out.push(':');
            v.write(out, canonical);
        }
    }
}

impl fmt::Display for Json {
    /// Serialises in document order (numbers in the report's scientific
    /// notation); use [`Json::to_canonical_string`] for a canonical form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out, false);
        f.write_str(&out)
    }
}

/// A parse failure: byte offset into the input plus a human-readable
/// message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset where parsing failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Maximum container nesting the parser accepts; documents deeper than
/// this are hostile, not data.
const MAX_DEPTH: usize = 64;

/// Parses a complete JSON document (one value plus optional whitespace)
/// into a tree, with [`Scanner`].
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut scanner = Scanner::new(input);
    let doc = scanner.tree()?;
    scanner.finish()?;
    Ok(doc)
}

/// One value as a [`Scanner`] reads it: a scalar whole, a container by
/// its kind alone (its contents walked by [`Scanner::members`] or
/// [`Scanner::items`], or skipped by [`Scanner::scalar`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Value<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, borrowed from the input when it holds no escape.
    Str(Cow<'a, str>),
    /// An array.
    Array,
    /// An object.
    Object,
}

impl Value<'_> {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact unsigned integer, as
    /// [`Json::as_u64`] reads it.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value with its string, if any, owned: no longer tied to the
    /// scanner's input.
    pub fn into_owned(self) -> Value<'static> {
        match self {
            Value::Null => Value::Null,
            Value::Bool(b) => Value::Bool(b),
            Value::Num(v) => Value::Num(v),
            Value::Str(s) => Value::Str(Cow::Owned(s.into_owned())),
            Value::Array => Value::Array,
            Value::Object => Value::Object,
        }
    }
}

/// A string a [`Scanner`] read, kept apart from its input as two `u32`
/// offsets (see [`Scanner::text`]). A plain string is a span of the
/// input. A string that held escapes is unescaped into a side buffer,
/// and its offsets count from the end of the input, as if that buffer
/// followed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Text {
    start: u32,
    end: u32,
}

impl Text {
    /// The string, given the input it was read from and the side buffer
    /// its escaped strings went to.
    pub fn get<'b>(self, input: &'b str, escaped: &'b str) -> &'b str {
        let (start, end) = (self.start as usize, self.end as usize);
        match start.checked_sub(input.len()) {
            Some(start) => &escaped[start..end - input.len()],
            None => &input[start..end],
        }
    }
}

/// `v` as an unsigned integer, if it is one within the exactly
/// representable range (≤ 2⁵³).
fn exact_u64(v: f64) -> Option<u64> {
    (v >= 0.0 && v.trunc() == v && v <= 9.007_199_254_740_992e15).then_some(v as u64)
}

/// A pull scanner over one JSON document: the one lexer behind [`parse`]
/// and the server's request decoders.
///
/// A caller reads values with [`Scanner::members`] (an object's members
/// by key), [`Scanner::items`] (an array's items), [`Scanner::scalar`]
/// or [`Scanner::skip`], and ends with [`Scanner::finish`]. Errors carry the byte offset and
/// message [`parse`] reports, so a decoder built on the scanner rejects
/// exactly the texts `parse` rejects, with the same error, whatever it
/// keeps of the values it reads. Strings without escapes are slices of
/// the input, so reading them allocates nothing, and
/// [`Scanner::text`] keeps one as its span.
#[derive(Debug, Clone)]
pub struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers opened and not yet closed.
    depth: usize,
    /// Test builds can route strings through the char-at-a-time oracle.
    #[cfg(test)]
    char_at_a_time: bool,
}

impl<'a> Scanner<'a> {
    /// A scanner at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Scanner {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            #[cfg(test)]
            char_at_a_time: false,
        }
    }

    /// Reads the next value: a scalar whole, a container only opened
    /// (walk it before reading on).
    #[inline]
    fn value(&mut self) -> Result<Value<'a>, JsonError> {
        self.skip_ws();
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 64 levels"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(open @ (b'[' | b'{')) => {
                self.pos += 1;
                self.depth += 1;
                Ok(if open == b'[' {
                    Value::Array
                } else {
                    Value::Object
                })
            }
            Some(b'-' | b'0'..=b'9') => Ok(Value::Num(self.number()?)),
            Some(other) => Err(self.error(format!("unexpected byte 0x{other:02x}"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    /// Walks an array [`Scanner::value`] opened: `item` reads each
    /// element with one value read of its own.
    fn array(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `]` in array")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Walks an object [`Scanner::value`] opened: `member` gets each key
    /// and reads its value with one value read of its own.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                member(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => {
                        self.pos += 1;
                        break;
                    }
                    _ => return Err(self.error("expected `,` or `}` in object")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Reads the next value. An object's first member named `keys[i]`
    /// goes to `field(self, i)`, which reads its value, and every other
    /// member is skipped, later duplicates included: the members
    /// [`Json::get`] finds. Any other value is read as
    /// [`Scanner::scalar`] reads it. Returns the value, an object as
    /// [`Value::Object`].
    pub fn members<const N: usize>(
        &mut self,
        keys: [&str; N],
        mut field: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<Value<'a>, JsonError> {
        let value = self.value()?;
        if value != Value::Object {
            self.skip_rest(&value)?;
            return Ok(value);
        }
        let mut seen = [false; N];
        self.object(|s, key| match keys.iter().position(|k| key == *k) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                field(s, i)
            }
            _ => s.skip(),
        })?;
        Ok(value)
    }

    /// Reads the next value. An array's first `cap` items go to `item`,
    /// which reads each, and the rest are skipped but counted. Returns
    /// the array's length, or `None` for any other value (skipped).
    pub fn items(
        &mut self,
        cap: usize,
        mut item: impl FnMut(&mut Self) -> Result<(), JsonError>,
    ) -> Result<Option<usize>, JsonError> {
        let value = self.value()?;
        if value != Value::Array {
            return self.skip_rest(&value).map(|()| None);
        }
        let mut len = 0;
        self.array(|s| {
            len += 1;
            if len > cap {
                s.skip()
            } else {
                item(s)
            }
        })?;
        Ok(Some(len))
    }

    /// Skips the contents of a container `value` opened (and nothing
    /// for a scalar), checking their syntax all the same.
    fn skip_rest(&mut self, value: &Value<'a>) -> Result<(), JsonError> {
        match value {
            Value::Array => self.array(Self::skip),
            Value::Object => self.object(|s, _| s.skip()),
            _ => Ok(()),
        }
    }

    /// Reads the next value, skipping a container's contents: a
    /// container comes back as [`Value::Array`] or [`Value::Object`],
    /// already closed.
    pub fn scalar(&mut self) -> Result<Value<'a>, JsonError> {
        let value = self.value()?;
        self.skip_rest(&value)?;
        Ok(value)
    }

    /// Skips the next value, checking its syntax.
    pub fn skip(&mut self) -> Result<(), JsonError> {
        self.scalar().map(drop)
    }

    /// Ends the document: nothing but whitespace may follow its value.
    pub fn finish(mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after the JSON value"))
        }
    }

    /// How many bytes of the input are still to be read.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads the next value, as [`Scanner::scalar`] does: a number as
    /// its `f64`, any other value skipped, giving `None`.
    pub fn f64(&mut self) -> Result<Option<f64>, JsonError> {
        self.scalar().map(|value| value.as_f64())
    }

    /// Reads the next value, as [`Scanner::scalar`] does, keeping a
    /// string as a [`Text`]: a span of the input when it holds no escape,
    /// or else a span of the side buffer `escaped`, which it is appended
    /// to unescaped. Any other value is skipped, and gives `None`.
    ///
    /// # Panics
    ///
    /// If the input and the side buffer together reach 4 GiB, past what
    /// a [`Text`] offset holds.
    pub fn text(&mut self, escaped: &mut String) -> Result<Option<Text>, JsonError> {
        self.skip_ws();
        if self.peek() != Some(b'"') || self.depth > MAX_DEPTH {
            return self.skip().map(|()| None);
        }
        let start = self.pos + 1;
        let (start, end) = match self.string()? {
            // A plain string is the bytes between its quotes.
            Cow::Borrowed(_) => (start, self.pos - 1),
            Cow::Owned(text) => {
                let start = self.text.len() + escaped.len();
                escaped.push_str(&text);
                (start, start + text.len())
            }
        };
        let offset = |at: usize| u32::try_from(at).expect("texts are kept within 4 GiB");
        Ok(Some(Text {
            start: offset(start),
            end: offset(end),
        }))
    }

    /// Reads the next value whole, as a tree.
    fn tree(&mut self) -> Result<Json, JsonError> {
        Ok(match self.value()? {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(b),
            Value::Num(v) => Json::Num(v),
            Value::Str(s) => Json::Str(s.into_owned()),
            Value::Array => {
                let mut items = Vec::new();
                self.array(|s| {
                    items.push(s.tree()?);
                    Ok(())
                })?;
                Json::Array(items)
            }
            Value::Object => {
                let mut members = Vec::new();
                self.object(|s, key| {
                    members.push((key.into_owned(), s.tree()?));
                    Ok(())
                })?;
                Json::Object(members)
            }
        })
    }

    #[cold]
    fn error(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.expected(byte))
        }
    }

    /// The error [`Scanner::expect`] reports, kept out of line.
    #[cold]
    fn expected(&self, byte: u8) -> JsonError {
        self.error(format!("expected `{}`", byte as char))
    }

    #[inline]
    fn literal(&mut self, text: &str, value: Value<'a>) -> Result<Value<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected `{text}`")))
        }
    }

    #[inline]
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        #[cfg(test)]
        if self.char_at_a_time {
            return self.string_char_at_a_time().map(Cow::Owned);
        }
        self.expect(b'"')?;
        // Only a string with an escape needs a buffer of its own.
        let mut unescaped: Option<String> = None;
        loop {
            // The run of plain bytes up to the next quote, backslash or
            // control byte. Each of those is ASCII, so both ends of the
            // run are UTF-8 boundaries of the (valid) input.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            let plain = &self.text[self.pos..self.pos + run];
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(plain),
                        Some(mut out) => {
                            out.push_str(plain);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(plain);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// The original scanner, one scalar per step: the differential
    /// oracle for [`Scanner::string`].
    #[cfg(test)]
    fn string_char_at_a_time(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(b) if b < 0x20 => {
                    return Err(self.error("raw control character in string"));
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| self.error("invalid UTF-8 in string"))?;
                    let c = s.chars().next().expect("peeked non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let b = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            other => {
                self.pos -= 1;
                return Err(self.error(format!("unknown escape `\\{}`", other as char)));
            }
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xd800..=0xdbff).contains(&first) {
            // High surrogate: must pair with a following \uDC00..\uDFFF.
            if self.peek() != Some(b'\\') {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 1;
            if self.peek() != Some(b'u') {
                return Err(self.error("unpaired high surrogate"));
            }
            self.pos += 1;
            let second = self.hex4()?;
            if !(0xdc00..=0xdfff).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else if (0xdc00..=0xdfff).contains(&first) {
            return Err(self.error("unpaired low surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.error("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.error("truncated \\u escape"))?;
            let digit = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a') as u32 + 10,
                b'A'..=b'F' => (b - b'A') as u32 + 10,
                _ => return Err(self.error("non-hex digit in \\u escape")),
            };
            code = code * 16 + digit;
            self.pos += 1;
        }
        Ok(code)
    }

    /// Reads a number in one pass. The grammar walk gathers the digits
    /// into an integer mantissa and counts the decimal exponent as it
    /// goes; the exact fast path then converts the pair (see the module
    /// docs), and any number it does not cover goes to `str::parse`.
    #[inline]
    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Every digit goes into the mantissa. At most 19 digits always fit
        // in a `u64`; a longer mantissa may wrap, and goes to the fallback.
        let mut mantissa = 0u64;
        // Integer part: `0` alone or a nonzero-led digit run.
        let digits = match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                1
            }
            Some(b'1'..=b'9') => self.digits(&mut mantissa)?,
            _ => return Err(self.error("expected a digit")),
        };
        let mut fraction_digits = 0;
        if self.peek() == Some(b'.') {
            self.pos += 1;
            fraction_digits = self.digits(&mut mantissa)?;
        }
        let (mut exponent, mut exponent_digits, mut exponent_negative) = (0u64, 0, false);
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if let Some(sign @ (b'+' | b'-')) = self.peek() {
                exponent_negative = sign == b'-';
                self.pos += 1;
            }
            exponent_digits = self.digits(&mut exponent)?;
        }
        if digits + fraction_digits <= 19 && exponent_digits <= 19 {
            if mantissa == 0 {
                // Zero at any scale, its sign kept.
                return Ok(if negative { -0.0 } else { 0.0 });
            }
            if mantissa < 1 << 53 && exponent < POWERS_OF_TEN.len() as u64 {
                let exponent = exponent as i64;
                let scale = if exponent_negative {
                    -exponent
                } else {
                    exponent
                };
                let scale = scale - fraction_digits as i64;
                if let Some(&power) = POWERS_OF_TEN.get(scale.unsigned_abs() as usize) {
                    // An exact integer times or over an exact power of
                    // ten: one correctly rounded operation, as
                    // `str::parse` rounds.
                    let mantissa = mantissa as f64;
                    let magnitude = if scale < 0 {
                        mantissa / power
                    } else {
                        mantissa * power
                    };
                    return Ok(if negative { -magnitude } else { magnitude });
                }
            }
        }
        self.parse_number(start)
    }

    /// The number from `start` to here, read by `str::parse`: the fallback
    /// for every number outside the exact fast path.
    #[cold]
    fn parse_number(&self, start: usize) -> Result<f64, JsonError> {
        let text = &self.text[start..self.pos];
        text.parse()
            .map_err(|_| self.error(format!("unparseable number `{text}`")))
    }

    /// Reads a run of at least one digit, appending each to `value`
    /// (wrapping past 19 digits), and returns how many there were.
    #[inline]
    fn digits(&mut self, value: &mut u64) -> Result<usize, JsonError> {
        let start = self.pos;
        while let Some(digit @ b'0'..=b'9') = self.peek() {
            *value = value.wrapping_mul(10).wrapping_add(u64::from(digit - b'0'));
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.error("expected a digit"));
        }
        Ok(self.pos - start)
    }

    /// The number lexer the one-pass [`Scanner::number`] replaced: a
    /// grammar walk, then `str::parse` over the same text. Its oracle.
    #[cfg(test)]
    fn number_reference(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: `0` alone or a nonzero-led digit run.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits_reference()?,
            _ => return Err(self.error("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits_reference()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits_reference()?;
        }
        let text = &self.text[start..self.pos];
        text.parse()
            .map_err(|_| self.error(format!("unparseable number `{text}`")))
    }

    #[cfg(test)]
    fn digits_reference(&mut self) -> Result<(), JsonError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.error("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

/// The powers of ten an `f64` holds exactly: 10²² is the last, since
/// 5²² < 2⁵³ < 5²³.
const POWERS_OF_TEN: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Serialises documents as JSONL: one canonical line per document, each
/// terminated by `\n`.
///
/// This framing is sound because [`push_json_str`] escapes *every*
/// control character below `0x20` — a string containing a raw newline is
/// written as `\n` (two bytes), so a canonical line can never span more
/// than one physical line.
pub fn to_jsonl(docs: &[Json]) -> String {
    let mut out = String::with_capacity(docs.len() * 64);
    for doc in docs {
        out.push_str(&doc.to_canonical_string());
        out.push('\n');
    }
    out
}

/// Parses JSONL text: one document per non-blank line.
///
/// Blank lines (empty or whitespace-only) are skipped, so snapshots
/// survive trailing newlines and hand edits. A malformed line fails the
/// whole parse with its 1-based line number in the error message.
pub fn parse_jsonl(input: &str) -> Result<Vec<Json>, JsonError> {
    let mut docs = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = parse(line).map_err(|e| JsonError {
            message: format!("line {}: {}", i + 1, e.message),
            offset: e.offset,
        })?;
        docs.push(doc);
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Adversarial documents for the JSONL round-trip: embedded
    /// newlines and carriage returns in strings (both as keys and as
    /// values), every other sub-0x20 control character, and deep-ish
    /// nesting — everything that could break line framing.
    fn adversarial_docs() -> Vec<Json> {
        let all_controls: String = (0u8..0x20).map(|b| b as char).collect();
        vec![
            Json::Object(vec![
                ("plain".into(), Json::Str("line one\nline two".into())),
                ("crlf".into(), Json::Str("a\r\nb".into())),
                ("key\nwith newline".into(), Json::Num(1.0)),
            ]),
            Json::Str(all_controls),
            Json::Array(vec![
                Json::Str("\n".into()),
                Json::Str("\u{85}\u{2028}\u{2029}".into()),
                Json::Null,
            ]),
            Json::Object(vec![(
                "nested".into(),
                Json::Array(vec![Json::Object(vec![(
                    "\t".into(),
                    Json::Str("\0".into()),
                )])]),
            )]),
            Json::Num(-0.0),
            Json::Bool(false),
        ]
    }

    #[test]
    fn jsonl_lines_never_contain_raw_newlines() {
        let text = to_jsonl(&adversarial_docs());
        for line in text.lines() {
            assert!(!line.is_empty(), "no blank lines emitted");
            assert!(!line.contains('\r'), "no raw CR inside a line: {line:?}");
        }
        // One physical line per document, despite the embedded newlines.
        assert_eq!(text.lines().count(), adversarial_docs().len());
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn jsonl_round_trip_reaches_canonical_fixed_point() {
        let docs = adversarial_docs();
        let first = to_jsonl(&docs);
        let parsed = parse_jsonl(&first).expect("written JSONL parses");
        assert_eq!(parsed.len(), docs.len());
        // write -> parse -> write is the identity on the text: canonical
        // serialisation is a fixed point.
        let second = to_jsonl(&parsed);
        assert_eq!(first, second);
        // And the values survive semantically (keys get sorted by the
        // canonical form, so compare through a second parse).
        for (a, b) in parsed.iter().zip(&parse_jsonl(&second).unwrap()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn jsonl_skips_blank_lines_and_reports_bad_ones() {
        let text = "\n{\"a\":1}\n   \n\n\"two\"\n\t\n";
        let docs = parse_jsonl(text).unwrap();
        assert_eq!(docs.len(), 2);
        assert_eq!(docs[0].get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(docs[1].as_str(), Some("two"));
        assert_eq!(parse_jsonl("").unwrap(), Vec::new());

        let err = parse_jsonl("{\"ok\":true}\n{oops\n").unwrap_err();
        assert!(err.message.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), Json::Null);
        assert_eq!(parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(parse("false").unwrap(), Json::Bool(false));
        assert_eq!(parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(parse("-0.5e2").unwrap(), Json::Num(-50.0));
        assert_eq!(parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_containers() {
        let doc = parse(r#"{"a":[1,2,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(doc.get("c").and_then(Json::as_str), Some("x"));
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[2].get("b").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "nul",
            "tru",
            "01",
            "1.",
            "1e",
            "+1",
            "\"\\x\"",
            "\"unterminated",
            "{\"a\":1} extra",
            "[\"\u{1}\"]",
            "\"\\ud800\"",
            "\"\\udc00 alone\"",
        ] {
            assert!(parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn deep_nesting_is_rejected() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        let err = parse(&deep).unwrap_err();
        assert!(err.message.contains("nesting"));
        // 65 levels of containers hold no value; a value inside them is
        // one level too deep, for the tree and the skip alike.
        let limit = "[".repeat(65) + &"]".repeat(65);
        assert!(parse(&limit).is_ok());
        let over = "[".repeat(65) + "1" + &"]".repeat(65);
        assert_eq!(parse(&over).unwrap_err().offset, 65);
        assert_parsers_agree(&over);
    }

    #[test]
    fn scanner_borrows_plain_strings_and_reads_first_members() {
        let text = r#"{"b":"plain","a":"esc\"aped","b":2,"c":[1,{"b":3}],"a":null}"#;
        let mut scanner = Scanner::new(text);
        let mut read = Vec::new();
        let value = scanner.members(["a", "b", "c"], |s, i| {
            read.push((i, s.scalar()?));
            Ok(())
        });
        assert_eq!(value, Ok(Value::Object));
        scanner.clone().finish().unwrap();
        // Each key's first member, in document order; the array is
        // skipped whole.
        assert_eq!(
            read,
            [
                (1, Value::Str(Cow::Borrowed("plain"))),
                (0, Value::Str(Cow::Owned("esc\"aped".into()))),
                (2, Value::Array),
            ]
        );
        // Strings kept as texts: spans of the input, or of the side
        // buffer for one that held an escape.
        let text = r#"{"b":"plain","a":"esc\"aped","c":[1,"x"],"d":"z\n"}"#;
        let mut scanner = Scanner::new(text);
        let mut escaped = String::new();
        let mut kept = Vec::new();
        scanner
            .members(["a", "b", "c", "d"], |s, i| {
                kept.push((i, s.text(&mut escaped)?));
                Ok(())
            })
            .unwrap();
        scanner.finish().unwrap();
        assert_eq!(escaped, "esc\"apedz\n");
        let end = text.len() as u32;
        let span = |start, end| Some(Text { start, end });
        assert_eq!(
            kept,
            [
                (1, span(6, 11)),
                (0, span(end, end + 8)),
                (2, None),
                (3, span(end + 8, end + 10))
            ]
        );
        let texts: Vec<_> = (kept.iter())
            .filter_map(|(_, t)| t.map(|t| t.get(text, &escaped)))
            .collect();
        assert_eq!(texts, ["plain", "esc\"aped", "z\n"]);
        // A value that is not an object is read whole.
        let mut scanner = Scanner::new(r#" ["x", {"a": 1}] "#);
        assert_eq!(
            scanner.members(["a"], |_, _| panic!("no members")),
            Ok(Value::Array)
        );
        scanner.finish().unwrap();
        // Array items past the cap are skipped but counted.
        let mut scanner = Scanner::new("[1, [2], 3, {}]");
        let mut kept = Vec::new();
        let len = scanner.items(2, |s| {
            kept.push(s.scalar()?);
            Ok(())
        });
        assert_eq!(
            (len, kept),
            (Ok(Some(4)), vec![Value::Num(1.0), Value::Array])
        );
        assert_eq!(
            Scanner::new("{}").items(9, |_| panic!("no items")),
            Ok(None)
        );
        assert_eq!(Value::Num(7.0).as_u64(), Some(7));
        assert_eq!(Value::Num(-1.0).as_u64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Null.as_f64(), None);
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{1f600}".into())
        );
    }

    #[test]
    fn every_control_char_round_trips() {
        // The satellite requirement: *all* chars < 0x20 escape and
        // re-parse to the original string, not just \n/\t/\"/\\.
        let original: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let mut encoded = String::new();
        push_json_str(&mut encoded, &original);
        assert!(
            !encoded.chars().any(|c| (c as u32) < 0x20),
            "no raw control characters may survive escaping: {encoded:?}"
        );
        assert_eq!(parse(&encoded).unwrap(), Json::Str(original));
    }

    #[test]
    fn writer_output_round_trips_through_the_parser() {
        for v in [0.0, -0.0, 1.0, 2.5e-10, 6.02e23, -17.25, 9.0e15] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            assert_eq!(parse(&out).unwrap(), Json::Num(v), "report form of {v}");
            let mut out = String::new();
            push_json_num(&mut out, v);
            assert_eq!(
                parse(&out).unwrap().as_f64(),
                Some(v),
                "canonical form of {v}"
            );
        }
        for s in [
            "",
            "plain",
            "a\"b\\c\nd\u{1}e\u{8}f\u{c}g",
            "ünïcode \u{1f600}",
        ] {
            let mut out = String::new();
            push_json_str(&mut out, s);
            assert_eq!(parse(&out).unwrap(), Json::Str(s.into()), "string {s:?}");
        }
    }

    #[test]
    fn non_finite_numbers_encode_as_null() {
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut out = String::new();
            push_json_f64(&mut out, v);
            assert_eq!(out, "null");
            let mut out = String::new();
            push_json_num(&mut out, v);
            assert_eq!(out, "null");
            // ... and therefore round-trip to Json::Null, never NaN.
            assert!(parse(&out).unwrap().is_null());
        }
    }

    #[test]
    fn canonicalisation_sorts_keys_and_normalises_numbers() {
        let a = parse(r#"{"z": 1e0, "a": {"y": 2.0, "x": 3}}"#).unwrap();
        let b = parse(r#"{"a":{"x":3.0,"y":2},"z":1}"#).unwrap();
        assert_eq!(a.to_canonical_string(), b.to_canonical_string());
        assert_eq!(a.to_canonical_string(), r#"{"a":{"x":3,"y":2},"z":1}"#);
    }

    #[test]
    fn display_preserves_document_order() {
        let doc = parse(r#"{"z":1,"a":2}"#).unwrap();
        assert_eq!(doc.to_string(), r#"{"z":1e0,"a":2e0}"#);
    }

    #[test]
    fn accessors_are_type_safe() {
        let doc = parse(r#"{"n": 7, "s": "x", "b": true, "f": 1.5, "neg": -1}"#).unwrap();
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(7));
        assert_eq!(doc.get("f").and_then(Json::as_u64), None);
        assert_eq!(doc.get("neg").and_then(Json::as_u64), None);
        assert_eq!(doc.get("f").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(Json::Null.get("x"), None);
    }

    #[test]
    fn duplicate_keys_get_finds_the_first_and_canonical_keeps_the_last() {
        let doc = parse(r#"{"b":1,"a":2,"b":3}"#).unwrap();
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.to_canonical_string(), r#"{"a":2,"b":3}"#);
        assert_eq!(doc.to_string(), r#"{"b":1e0,"a":2e0,"b":3e0}"#);
        // Adjacent duplicates are sorted but not strictly: still deduped.
        let doc = parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(doc.get("a").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.to_canonical_string(), r#"{"a":2}"#);
    }

    #[test]
    fn one_mebibyte_strings_parse_and_write_in_linear_time() {
        // A scanner that re-validates the rest of the input for each
        // character takes about 20 s for one string at the 1 MiB cap.
        let len = 1 << 20;
        let plain = "x".repeat(len);
        let mixed: String = "ab\u{e9}\u{20ac}\"\\\n\u{1}\u{1f600}"
            .chars()
            .cycle()
            .take(len / 2)
            .collect();
        for payload in [plain, mixed] {
            let mut body = String::from("{\"devices\":");
            let started = Instant::now();
            push_json_str(&mut body, &payload);
            body.push('}');
            let doc = parse(&body).expect("the body is valid JSON");
            let elapsed = started.elapsed();
            assert_eq!(
                doc.get("devices").and_then(Json::as_str),
                Some(payload.as_str())
            );
            assert!(
                elapsed < Duration::from_secs(2),
                "a {} B body took {elapsed:?}",
                body.len()
            );
        }
    }

    /// The reference writer: char-at-a-time escaping, `format!` numbers
    /// and a `BTreeMap` per canonical object. The in-place writer must
    /// match it byte for byte.
    mod writer_oracle {
        use super::Json;
        use std::collections::BTreeMap;

        fn push_str(out: &mut String, s: &str) {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    '\u{8}' => out.push_str("\\b"),
                    '\u{c}' => out.push_str("\\f"),
                    c if (c as u32) < 0x20 => {
                        out.push_str(&format!("\\u{:04x}", c as u32));
                    }
                    c => out.push(c),
                }
            }
            out.push('"');
        }

        fn push_f64(out: &mut String, v: f64) {
            if v.is_finite() {
                out.push_str(&format!("{v:e}"));
            } else {
                out.push_str("null");
            }
        }

        fn push_num(out: &mut String, v: f64) {
            if v.is_finite() && v == v.trunc() && v.abs() <= 9.007_199_254_740_992e15 {
                out.push_str(&format!("{}", v as i64));
            } else {
                push_f64(out, v);
            }
        }

        pub fn write(json: &Json, out: &mut String, canonical: bool) {
            let member = |out: &mut String, i: usize, k: &str, v: &Json| {
                if i > 0 {
                    out.push(',');
                }
                push_str(out, k);
                out.push(':');
                write(v, out, canonical);
            };
            match json {
                Json::Null => out.push_str("null"),
                Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                Json::Num(v) if canonical => push_num(out, *v),
                Json::Num(v) => push_f64(out, *v),
                Json::Str(s) => push_str(out, s),
                Json::Array(items) => {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        write(item, out, canonical);
                    }
                    out.push(']');
                }
                Json::Object(members) => {
                    out.push('{');
                    if canonical {
                        let sorted: BTreeMap<&str, &Json> =
                            members.iter().map(|(k, v)| (k.as_str(), v)).collect();
                        for (i, (k, v)) in sorted.into_iter().enumerate() {
                            member(out, i, k, v);
                        }
                    } else {
                        for (i, (k, v)) in members.iter().enumerate() {
                            member(out, i, k, v);
                        }
                    }
                    out.push('}');
                }
            }
        }

        pub fn text(json: &Json, canonical: bool) -> String {
            let mut out = String::new();
            write(json, &mut out, canonical);
            out
        }
    }

    fn parse_char_at_a_time(input: &str) -> Result<Json, JsonError> {
        let mut scanner = Scanner::new(input);
        scanner.char_at_a_time = true;
        let doc = scanner.tree()?;
        scanner.finish()?;
        Ok(doc)
    }

    /// Skips `input` as one document: the scanner's syntax check, with
    /// no tree built.
    fn skip_document(input: &str) -> Result<(), JsonError> {
        let mut scanner = Scanner::new(input);
        scanner.skip()?;
        scanner.finish()
    }

    /// Both scanners must agree exactly: the same value, or the same
    /// error offset and message; and skipping the document must meet
    /// the same error, or none.
    fn assert_parsers_agree(input: &str) {
        let parsed = parse(input);
        assert_eq!(
            parsed,
            parse_char_at_a_time(input),
            "parsers disagree on {input:?}"
        );
        assert_eq!(
            skip_document(input),
            parsed.map(drop),
            "skipping disagrees on {input:?}"
        );
    }

    /// Both writers must emit the same bytes, canonical and not.
    fn assert_writers_agree(doc: &Json) {
        assert_eq!(
            doc.to_canonical_string(),
            writer_oracle::text(doc, true),
            "{doc:?}"
        );
        assert_eq!(doc.to_string(), writer_oracle::text(doc, false), "{doc:?}");
    }

    /// String fragments that exercise every branch of both scanners and
    /// writers: multi-byte UTF-8, quotes, backslashes, every escape
    /// form, raw controls and the byte ranges around them.
    const PIECES: [&str; 22] = [
        "a", "Z", "0", " ", "id", "device", "\"", "\\", "/", "\n", "\r", "\t", "\u{8}", "\u{c}",
        "\u{0}", "\u{1f}", "\u{7f}", "\u{e9}", "\u{20ac}", "\u{2028}", "\u{85}", "😀",
    ];

    fn gen_string(rng: &mut tn_rng::Rng) -> String {
        let len = rng.gen_range(0..6usize);
        (0..len)
            .map(|_| PIECES[rng.gen_range(0..PIECES.len())])
            .collect()
    }

    fn gen_num(rng: &mut tn_rng::Rng) -> f64 {
        match rng.gen_range(0..11u32) {
            0 => rng.gen_range(-1000..1000i64) as f64,
            1 => -0.0,
            2 => rng.gen_f64() * 1e6 - 5e5,
            3 => 1e300 * rng.gen_f64(),
            4 => 5e-324,
            5 => 9.007_199_254_740_992e15 + 2.0 * rng.gen_range(0..3u32) as f64,
            6 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)],
            // A subnormal.
            7 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
            // An odd multiple of 2^-25: 2^-25 itself prints as a tie
            // rounded up, `2.9802322387695313e-8`.
            8 => (2 * rng.gen_range(0..64u32) + 1) as f64 * 2f64.powi(-25),
            // The double nearest a power of ten.
            9 => {
                let exponent = rng.gen_range(-323..309i32);
                format!("1e{exponent}").parse().unwrap()
            }
            _ => (rng.gen_f64() * 1e3).round() / 1e3,
        }
    }

    /// A random document. Object keys come mostly from a small pool, so
    /// members arrive unsorted and with duplicates.
    fn gen_value(rng: &mut tn_rng::Rng, depth: u32) -> Json {
        let kinds = if depth >= 3 { 4 } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 => Json::Num(gen_num(rng)),
            3 => Json::Str(gen_string(rng)),
            4 => Json::Array(
                (0..rng.gen_range(0..5usize))
                    .map(|_| gen_value(rng, depth + 1))
                    .collect(),
            ),
            _ => Json::Object(
                (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let key = if rng.gen_bool(0.7) {
                            PIECES[rng.gen_range(0..6usize)].to_string()
                        } else {
                            gen_string(rng)
                        };
                        (key, gen_value(rng, depth + 1))
                    })
                    .collect(),
            ),
        }
    }

    /// Replaces, inserts or deletes a few characters, or truncates.
    fn mutate(rng: &mut tn_rng::Rng, text: &str) -> String {
        const MUTANTS: [char; 27] = [
            '"', '\\', 'u', 'd', '8', 'D', 'c', '0', '{', '}', '[', ']', ',', ':', '\n', '\u{0}',
            '\u{1}', '\u{1f}', '\u{7f}', '\u{e9}', '😀', '-', 'e', '.', ' ', 'n', 't',
        ];
        let mut chars: Vec<char> = text.chars().collect();
        for _ in 0..rng.gen_range(1..4u32) {
            let at = rng.gen_range(0..chars.len() + 1);
            let c = MUTANTS[rng.gen_range(0..MUTANTS.len())];
            match rng.gen_range(0..4u32) {
                0 if at < chars.len() => chars[at] = c,
                1 => chars.insert(at, c),
                2 if at < chars.len() => {
                    chars.remove(at);
                }
                _ => chars.truncate(at),
            }
        }
        chars.into_iter().collect()
    }

    #[test]
    fn scanner_matches_the_char_at_a_time_oracle_on_edge_cases() {
        for case in [
            "\"plain\"",
            "\"\u{e9}\u{20ac}\u{1f600}\"",
            "\"a\\u00e9b\\u20AC\"",
            "\"\\ud83d\\ude00\"",
            "\"\\ud83d\"",
            "\"\\ud83dx\"",
            "\"\\ud83d\\u0041\"",
            "\"\\udc00\"",
            "\"\\u12\"",
            "\"\\u12g4\"",
            "\"\\x\"",
            "\"\\\u{e9}\"",
            "\"\\\"\\\\\\/\\b\\f\\n\\r\\t\"",
            "\"",
            "\"\\",
            "\"abc",
            "\"\u{e9}",
            "\"a\u{1}b\"",
            "\"\u{0}\"",
            "\"\u{1f}\"",
            "\"a\nb\"",
            "\"\u{7f}\"",
            "{\"k\u{0}\":1}",
            "[\"a\",\"b",
            "{\"\u{e9}\":\"\u{1f600}\"}",
            "{\"a\":\"x\" \"b\"}",
            "[\"\u{1f600}\" , \"\\u0000\"]",
        ] {
            assert_parsers_agree(case);
        }
        for doc in adversarial_docs() {
            assert_writers_agree(&doc);
            assert_parsers_agree(&doc.to_canonical_string());
            assert_parsers_agree(&doc.to_string());
        }
    }

    #[test]
    fn scanner_and_writer_match_their_oracles_on_generated_documents() {
        let mut rng = tn_rng::Rng::seed_from_u64(0x15_0c0de);
        let (mut parsed, mut rejected) = (0, 0);
        for _ in 0..1500 {
            let doc = gen_value(&mut rng, 0);
            assert_writers_agree(&doc);
            for text in [doc.to_canonical_string(), doc.to_string()] {
                assert_parsers_agree(&text);
                for _ in 0..4 {
                    let mutated = mutate(&mut rng, &text);
                    assert_parsers_agree(&mutated);
                    match parse(&mutated) {
                        Ok(doc) => {
                            assert_writers_agree(&doc);
                            parsed += 1;
                        }
                        Err(_) => rejected += 1,
                    }
                }
            }
        }
        // The mutations reach both outcomes often.
        assert!(
            parsed > 1000 && rejected > 1000,
            "{parsed} parsed, {rejected} rejected"
        );
    }

    /// A random spelling of a JSON number, or of something near one:
    /// a double's `{:e}`, `{:?}` or `{}` form (subnormals, extremes and
    /// `-0` included), or one built from 0-25 significant digits with
    /// leading and trailing zeros, a decimal point anywhere and an
    /// exponent up to ±400; a quarter of them then mutated as
    /// [`mutate`] mutates documents.
    fn spell_number(rng: &mut tn_rng::Rng) -> String {
        let digit = |rng: &mut tn_rng::Rng| char::from(b'0' + rng.gen_range(0..10u8));
        let zeros = |rng: &mut tn_rng::Rng, max: usize| "0".repeat(rng.gen_range(0..max + 1));
        let text = if rng.gen_bool(0.25) {
            let v = match rng.gen_range(0..3u32) {
                0 => f64::from_bits(rng.gen_range(1..1u64 << 52)),
                1 => f64::from_bits(rng.next_u64()),
                _ => gen_num(rng),
            };
            let v = if v.is_finite() { v } else { f64::MAX };
            match rng.gen_range(0..3u32) {
                0 => format!("{v:e}"),
                1 => format!("{v:?}"),
                _ => format!("{v}"),
            }
        } else {
            let significant = match rng.gen_range(0..3u32) {
                0 => rng.gen_range(0..26usize),
                1 => rng.gen_range(15..26usize),
                _ => rng.gen_range(1..8usize),
            };
            // Nonzero-led, so every digit counts.
            let first = char::from(b'1' + rng.gen_range(0..9u8));
            let digits: String = (0..significant)
                .map(|i| if i == 0 { first } else { digit(rng) })
                .collect();
            let point = rng.gen_range(0..significant + 1);
            let mut out = String::from(if rng.gen_bool(0.4) { "-" } else { "" });
            match (point, significant) {
                (_, 0) => out.push('0'),
                (0, _) => out.push_str(&format!("0.{}{digits}", zeros(rng, 30))),
                _ => out.push_str(&format!("{}.{}", &digits[..point], &digits[point..])),
            }
            if out.ends_with('.') {
                out.pop();
                if rng.gen_bool(0.5) {
                    out.push_str(&format!(".0{}", zeros(rng, 4)));
                } else {
                    out.push_str(&zeros(rng, 6));
                }
            } else if out.contains('.') {
                out.push_str(&zeros(rng, 5));
            }
            if rng.gen_bool(0.6) {
                out.push(if rng.gen_bool(0.5) { 'e' } else { 'E' });
                out.push_str(["", "+", "-"][rng.gen_range(0..3usize)]);
                let exponent = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..401u32),
                    _ => rng.gen_range(0..30u32),
                };
                out.push_str(&format!("{}{exponent}", zeros(rng, 2)));
            }
            out
        };
        if rng.gen_bool(0.25) {
            mutate(rng, &text)
        } else {
            text
        }
    }

    /// Lexes `text` as a number with the one-pass lexer and with the
    /// reference: the same end and the same bits as `str::parse` gives
    /// on the token, or the same error. Returns whether it lexed.
    fn assert_number_matches_reference(text: &str) -> bool {
        let (mut fast, mut reference) = (Scanner::new(text), Scanner::new(text));
        let (got, want) = (fast.number(), reference.number_reference());
        match (got, want) {
            (Ok(got), Ok(want)) => {
                assert_eq!(fast.pos, reference.pos, "{text:?}");
                let token = &text[..reference.pos];
                let parsed: f64 = token.parse().expect("the reference parsed it");
                assert_eq!(want.to_bits(), parsed.to_bits(), "{text:?}");
                assert_eq!(
                    got.to_bits(),
                    parsed.to_bits(),
                    "{text:?}: {got:e} vs {parsed:e}"
                );
                true
            }
            (got, want) => {
                assert_eq!(got, want, "{text:?}");
                false
            }
        }
    }

    fn numbers_lex_to_the_bits_str_parse_gives(spellings: usize) {
        for edge in [
            "0",
            "-0",
            "-0.0",
            "0e0",
            "-0e-400",
            "0.000e400",
            "1",
            "-1",
            "9007199254740991",
            "9007199254740992",
            "9007199254740993",
            "1e22",
            "1e23",
            "1e-22",
            "1e-23",
            "123456789012345678901234",
            "0.1",
            "0.30000000000000004",
            "5e-324",
            "2.5e-324",
            "4.9406564584124654e-324",
            "1.7976931348623157e308",
            "1.8e308",
            "1e400",
            "-1e400",
            "2.2250738585072014e-308",
            "1.00000000000000000000000000e5",
            "01",
            "-",
            "1.",
            "1e",
            "1e+",
            ".5",
            "-.5",
            "1.e5",
            "1ee5",
            "1e5.5",
            "+1",
            "00",
            "-01",
            "9999999999999999999",
            "18446744073709551616",
            "-18446744073709551616e-20",
            "0.0000000000000000000000",
            "-0.0000000000000000000001e22",
            "1e0000000000000000000022",
        ] {
            assert_number_matches_reference(edge);
        }
        let mut rng = tn_rng::Rng::seed_from_u64(0x6e_756d).fork(spellings as u64);
        let mut lexed = 0;
        for _ in 0..spellings {
            lexed += usize::from(assert_number_matches_reference(&spell_number(&mut rng)));
        }
        // Both outcomes come up often.
        assert!(
            lexed > spellings / 2 && spellings - lexed > spellings / 50,
            "{lexed} of {spellings} lexed"
        );
    }

    #[test]
    fn numbers_lex_to_the_bits_str_parse_gives_over_200k_spellings() {
        numbers_lex_to_the_bits_str_parse_gives(200_000);
    }

    #[test]
    #[ignore = "ten million spellings; run with --release -- --ignored"]
    fn numbers_lex_to_the_bits_str_parse_gives_over_10m_spellings() {
        numbers_lex_to_the_bits_str_parse_gives(10_000_000);
    }
}
