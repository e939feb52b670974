//! The structured event layer: level filter, stderr text sink and JSONL
//! file sink.
//!
//! An event is a level, a message and `key=value` fields; the current
//! span path (see [`crate::span()`]) is attached automatically. The filter
//! defaults to `warn`, overridable by the `TN_LOG` environment variable
//! at first use or [`set_level`] / [`set_level_str`] (CLI `--log-level`)
//! at any time. Each JSONL record is one object per line with at least
//! `ts` (seconds, monotonic clock), `level`, `span` and `msg` — the
//! contract `scripts/ci.sh` validates with the in-tree JSON parser.

use crate::clock;
use crate::level::Level;
use crate::span::current_span_path;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// One typed field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}

impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v.into())
    }
}

impl From<u16> for FieldValue {
    fn from(v: u16) -> Self {
        FieldValue::U64(v.into())
    }
}

impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}

impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl fmt::Display for FieldValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldValue::U64(v) => write!(f, "{v}"),
            FieldValue::I64(v) => write!(f, "{v}"),
            FieldValue::F64(v) => write!(f, "{v}"),
            FieldValue::Str(v) => write!(f, "{v}"),
            FieldValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Threshold encoding: 0 = off, otherwise `level as u8 + 1`.
struct Logger {
    threshold: AtomicU8,
    stderr: AtomicBool,
    file: Mutex<Option<BufWriter<File>>>,
}

fn logger() -> &'static Logger {
    static LOGGER: OnceLock<Logger> = OnceLock::new();
    LOGGER.get_or_init(|| {
        let level = std::env::var("TN_LOG")
            .ok()
            .map(|raw| match raw.to_ascii_lowercase().as_str() {
                "off" | "none" | "0" => None,
                other => other.parse::<Level>().ok().or(Some(Level::Warn)),
            })
            .unwrap_or(Some(Level::Warn));
        Logger {
            threshold: AtomicU8::new(level.map_or(0, |l| l as u8 + 1)),
            stderr: AtomicBool::new(true),
            file: Mutex::new(None),
        }
    })
}

/// Sets the level filter (`None` disables all output).
pub fn set_level(level: Option<Level>) {
    logger()
        .threshold
        .store(level.map_or(0, |l| l as u8 + 1), Ordering::Relaxed);
}

/// Parses and applies a level name; `"off"` disables output. This is the
/// `--log-level` entry point.
pub fn set_level_str(s: &str) -> Result<(), String> {
    if s.eq_ignore_ascii_case("off") {
        set_level(None);
        return Ok(());
    }
    set_level(Some(s.parse::<Level>()?));
    Ok(())
}

/// The currently enabled level, if any.
pub fn level() -> Option<Level> {
    match logger().threshold.load(Ordering::Relaxed) {
        0 => None,
        n => Some(Level::ALL[(n - 1) as usize]),
    }
}

/// Whether events at `level` currently pass the filter. Cheap (one
/// relaxed atomic load): call before assembling expensive fields.
pub fn enabled(level: Level) -> bool {
    let threshold = logger().threshold.load(Ordering::Relaxed);
    threshold != 0 && (level as u8) < threshold
}

/// Enables or disables the stderr text sink (on by default).
pub fn set_stderr(on: bool) {
    logger().stderr.store(on, Ordering::Relaxed);
}

/// Opens (truncating) a JSONL trace file; every event passing the filter
/// is appended as one JSON object per line and flushed. This is the
/// `--trace-out` entry point. Pass-through errors: the caller decides
/// whether a missing trace file is fatal.
pub fn set_trace_file(path: &str) -> std::io::Result<()> {
    let file = File::create(path)?;
    *logger().file.lock().expect("trace sink poisoned") = Some(BufWriter::new(file));
    Ok(())
}

fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn push_json_value(out: &mut String, value: &FieldValue) {
    match value {
        FieldValue::U64(v) => out.push_str(&v.to_string()),
        FieldValue::I64(v) => out.push_str(&v.to_string()),
        FieldValue::F64(v) => {
            if v.is_finite() {
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        FieldValue::Bool(v) => out.push_str(if *v { "true" } else { "false" }),
        FieldValue::Str(v) => {
            out.push('"');
            escape_json_into(out, v);
            out.push('"');
        }
    }
}

/// Emits one structured event at the current span path.
pub fn emit(level: Level, msg: &str, fields: &[(&str, FieldValue)]) {
    if !enabled(level) {
        return;
    }
    emit_at(level, &current_span_path(), msg, fields);
}

/// Emits one structured event with an explicit span path (used by span
/// guards, which pop themselves off the stack before reporting).
pub(crate) fn emit_at(level: Level, span: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    if !enabled(level) {
        return;
    }
    let ts = clock::now_nanos() as f64 / 1e9;
    let log = logger();

    if log.stderr.load(Ordering::Relaxed) {
        let mut line = format!("[{ts:.6}] {:5} {span} {msg}", level.as_str().to_uppercase());
        for (key, value) in fields {
            match value {
                FieldValue::Str(s) => line.push_str(&format!(" {key}={s:?}")),
                other => line.push_str(&format!(" {key}={other}")),
            }
        }
        eprintln!("{line}");
    }

    let mut sink = log.file.lock().expect("trace sink poisoned");
    if let Some(file) = sink.as_mut() {
        let mut line = String::with_capacity(128);
        line.push_str(&format!("{{\"ts\":{ts:.6},\"level\":\""));
        line.push_str(level.as_str());
        line.push_str("\",\"span\":\"");
        escape_json_into(&mut line, span);
        line.push_str("\",\"msg\":\"");
        escape_json_into(&mut line, msg);
        line.push('"');
        for (key, value) in fields {
            line.push_str(",\"");
            escape_json_into(&mut line, key);
            line.push_str("\":");
            push_json_value(&mut line, value);
        }
        line.push_str("}\n");
        // A full disk mustn't take the simulation down with it.
        let _ = file.write_all(line.as_bytes());
        let _ = file.flush();
    }
}

/// Emits at [`Level::Error`].
pub fn error(msg: &str, fields: &[(&str, FieldValue)]) {
    emit(Level::Error, msg, fields);
}

/// Emits at [`Level::Warn`].
pub fn warn(msg: &str, fields: &[(&str, FieldValue)]) {
    emit(Level::Warn, msg, fields);
}

/// Emits at [`Level::Info`].
pub fn info(msg: &str, fields: &[(&str, FieldValue)]) {
    emit(Level::Info, msg, fields);
}

/// Emits at [`Level::Debug`].
pub fn debug(msg: &str, fields: &[(&str, FieldValue)]) {
    emit(Level::Debug, msg, fields);
}

/// Emits at [`Level::Trace`].
pub fn trace(msg: &str, fields: &[(&str, FieldValue)]) {
    emit(Level::Trace, msg, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_filters_by_severity() {
        // Tests in this binary share the global logger; exercise the
        // transitions and leave it off (quiet for the other tests).
        set_level(Some(Level::Info));
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Info));
        assert!(!enabled(Level::Debug));
        assert_eq!(level(), Some(Level::Info));
        set_level(None);
        assert!(!enabled(Level::Error));
        assert_eq!(level(), None);
    }

    #[test]
    fn set_level_str_accepts_off_and_rejects_garbage() {
        assert!(set_level_str("oFF").is_ok());
        assert!(set_level_str("banana").is_err());
    }

    #[test]
    fn json_escaping_covers_control_chars() {
        let mut out = String::new();
        escape_json_into(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn field_values_render_as_json() {
        let cases: Vec<(FieldValue, &str)> = vec![
            (1u64.into(), "1"),
            ((-3i64).into(), "-3"),
            (true.into(), "true"),
            ("x\"y".into(), "\"x\\\"y\""),
            (f64::NAN.into(), "null"),
        ];
        for (value, want) in cases {
            let mut out = String::new();
            push_json_value(&mut out, &value);
            assert_eq!(out, want);
        }
    }
}
