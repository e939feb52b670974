//! Typed request decoding: each POST body is scanned once, with
//! [`tn_core::json::Scanner`], straight into the members its handler
//! reads. No `Json` tree is built on the request path.
//!
//! The scan checks the whole document's syntax before any member is
//! checked, so a syntax error anywhere earns its 400 even when a member
//! before it is also wrong. Handlers then check members in their own
//! order, not the document's. A key's first member counts, as `Json::get`
//! finds it; a document that is not an object has no members. A fleet
//! request is decoded into a [`FleetRequest`] that its
//! [`Request`](crate::http::Request) keeps, so the router's offload check
//! and the handler share one scan.

use crate::handlers::BadRequest;
use tn_core::json::{JsonError, Scanner, Text, Value};
use tn_fleet::EntryMembers;

/// Largest number of items a fleet request's `devices` or `ids` holds.
pub(crate) const FLEET_MAX_ENTRIES: usize = 10_000;

/// One member a handler reads: its key and, when the body has it, its
/// value (a container's contents skipped).
#[derive(Debug, Clone)]
pub(crate) struct Field<'a> {
    key: &'static str,
    pub(crate) value: Option<Value<'a>>,
}

impl Field<'_> {
    /// The member named `key`, not yet read.
    pub(crate) fn absent(key: &'static str) -> Self {
        Self { key, value: None }
    }

    /// The member's string; the member is required.
    pub(crate) fn str(&self) -> Result<&str, BadRequest> {
        self.value.as_ref().and_then(Value::as_str).ok_or_else(|| {
            BadRequest::new(400, format!("missing or non-string field `{}`", self.key))
        })
    }

    /// The member as an exact unsigned integer, or `default` when absent.
    pub(crate) fn u64_or(&self, default: u64) -> Result<u64, BadRequest> {
        self.value.as_ref().map_or(Ok(default), |v| {
            v.as_u64().ok_or_else(|| {
                BadRequest::new(
                    400,
                    format!("field `{}` must be a non-negative integer", self.key),
                )
            })
        })
    }

    /// The member as a boolean, or `default` when absent.
    pub(crate) fn bool_or(&self, default: bool) -> Result<bool, BadRequest> {
        self.value.as_ref().map_or(Ok(default), |v| {
            v.as_bool().ok_or_else(|| {
                BadRequest::new(400, format!("field `{}` must be a boolean", self.key))
            })
        })
    }

    /// The entry of `presets` the member names, or the first when it is
    /// absent; any other value is the 400 `message` reads.
    pub(crate) fn preset<T: Copy>(
        &self,
        presets: &[(&'static str, T)],
        message: &str,
    ) -> Result<(&'static str, T), BadRequest> {
        let Some(value) = &self.value else {
            return Ok(presets[0]);
        };
        let named = presets
            .iter()
            .find(|(name, _)| value.as_str() == Some(name));
        named.copied().ok_or_else(|| BadRequest::new(400, message))
    }

    /// The member as a finite number above zero; the member is required.
    pub(crate) fn positive(&self) -> Result<f64, BadRequest> {
        let v = self.value.as_ref().and_then(Value::as_f64).ok_or_else(|| {
            BadRequest::new(400, format!("missing or non-numeric field `{}`", self.key))
        })?;
        if v > 0.0 && v.is_finite() {
            Ok(v)
        } else {
            Err(BadRequest::new(
                400,
                format!("field `{}` must be finite and > 0", self.key),
            ))
        }
    }
}

/// Scans `body`, which must be one UTF-8 JSON document: `read` reads its
/// value, and nothing but whitespace may follow. A non-UTF-8 body or a
/// syntax error anywhere is the 400 the request earns.
pub(crate) fn scan<'a, T>(
    body: &'a [u8],
    read: impl FnOnce(&mut Scanner<'a>) -> Result<T, JsonError>,
) -> Result<T, BadRequest> {
    let text =
        std::str::from_utf8(body).map_err(|_| BadRequest::new(400, "request body is not UTF-8"))?;
    let mut scanner = Scanner::new(text);
    read(&mut scanner)
        .and_then(|value| scanner.finish().map(|()| value))
        .map_err(|e| BadRequest::new(400, format!("malformed JSON: {e}")))
}

/// Reads the next value as an object's members named in `keys`, each a
/// scalar; all are absent for any other value.
pub(crate) fn fields<'a, const N: usize>(
    s: &mut Scanner<'a>,
    keys: [&'static str; N],
) -> Result<[Field<'a>; N], JsonError> {
    let mut fields = keys.map(Field::absent);
    s.members(keys, |s, i| {
        fields[i].value = Some(s.scalar()?);
        Ok(())
    })?;
    Ok(fields)
}

/// An array member's items, at most a cap of them kept, and how many it
/// held: a body at the size cap can hold a few hundred thousand items.
#[derive(Debug, Clone)]
pub(crate) struct List<T> {
    pub(crate) items: Vec<T>,
    pub(crate) len: usize,
}

impl<T> List<T> {
    /// The items of member `field`, which must hold between one and `cap`.
    pub(crate) fn within(&self, field: &str, cap: usize) -> Result<&[T], BadRequest> {
        if self.len == 0 {
            return Err(BadRequest::new(
                400,
                format!("field `{field}` must not be empty"),
            ));
        }
        if self.len > cap {
            let message = format!("field `{field}` must hold ≤ {cap} entries");
            return Err(BadRequest::new(400, message));
        }
        Ok(&self.items)
    }
}

/// Reads the next value as a list of its first `cap` items, each read by
/// `item`; `None` for a value that is not an array. The list is reserved
/// once, after its first item: room for the rest of the input at that
/// item's size, and a quarter more.
pub(crate) fn list<'a, T>(
    s: &mut Scanner<'a>,
    cap: usize,
    mut item: impl FnMut(&mut Scanner<'a>) -> Result<T, JsonError>,
) -> Result<Option<List<T>>, JsonError> {
    let mut items = Vec::new();
    let len = s.items(cap, |s| {
        let before = s.remaining();
        items.push(item(s)?);
        if items.len() == 1 {
            // The first item and the comma after it.
            let rest = s.remaining() / (before - s.remaining() + 1);
            items.reserve((cap - 1).min(rest + rest / 4 + 1));
        }
        Ok(())
    })?;
    Ok(len.map(|len| List { items, len }))
}

/// A `POST /v1/fleet` body as decoded, which its request keeps: each
/// member as read, checked only when the handler reaches it. Strings are
/// kept as [`Text`] offsets into the body, or into `escaped` for those
/// that held escapes.
#[derive(Debug, Clone)]
pub(crate) struct FleetRequest {
    pub(crate) seed: Field<'static>,
    pub(crate) quick: Field<'static>,
    /// `devices`: absent, or its entries (`None` when not an array).
    pub(crate) devices: Option<Option<List<EntryMembers>>>,
    /// `ids`: absent, or its items (`None` when not an array), each
    /// `None` when not a string.
    pub(crate) ids: Option<Option<List<Option<Text>>>>,
    /// The escaped strings of `devices` and `ids`, unescaped.
    pub(crate) escaped: String,
}

impl FleetRequest {
    /// Decodes a fleet request body in one scan.
    pub(crate) fn decode(body: &[u8]) -> Result<Self, BadRequest> {
        let mut request = FleetRequest {
            seed: Field::absent("seed"),
            quick: Field::absent("quick"),
            devices: None,
            ids: None,
            escaped: String::new(),
        };
        let escaped = &mut request.escaped;
        scan(body, |s| {
            s.members(["seed", "quick", "devices", "ids"], |s, i| {
                match i {
                    0 => request.seed.value = Some(s.scalar()?.into_owned()),
                    1 => request.quick.value = Some(s.scalar()?.into_owned()),
                    2 => {
                        let read = |s: &mut Scanner<'_>| EntryMembers::read(s, escaped);
                        request.devices = Some(list(s, FLEET_MAX_ENTRIES, read)?);
                    }
                    _ => request.ids = Some(list(s, FLEET_MAX_ENTRIES, |s| s.text(escaped))?),
                }
                Ok(())
            })
        })?;
        Ok(request)
    }

    /// The `(seed, quick)` the request is served at.
    pub(crate) fn surface(&self, default_seed: u64) -> Result<(u64, bool), BadRequest> {
        Ok((self.seed.u64_or(default_seed)?, self.quick.bool_or(true)?))
    }
}
