//! Test-only reference for the streaming artifact writers.
//!
//! [`to_string`] and [`to_string_pretty`] are the JSON writer as it was
//! before the writers streamed: every number through `format!`, every
//! object key cloned into a fresh string, every indent built with
//! `repeat`. Each module's differential proptest builds its artifact
//! as a `Value` tree the old way, renders it here, and requires the
//! streaming render to match byte for byte. The strategies below
//! generate the inputs that stress the format: names that need
//! escaping and numbers on either side of the integer cut-off.

use proptest::prelude::*;
use serde_json::Value;

/// Render compactly, as the writer did before it streamed.
pub fn to_string(value: &Value) -> String {
    let mut s = String::new();
    write(value, &mut s, None, 0);
    s
}

/// Render with two-space indentation, as the writer did before it
/// streamed.
pub fn to_string_pretty(value: &Value) -> String {
    let mut s = String::new();
    write(value, &mut s, Some(2), 0);
    s
}

fn write(value: &Value, f: &mut String, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => f.push_str("null"),
        Value::Bool(b) => f.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                f.push_str(&format!("{}", *n as i64));
            } else {
                f.push_str(&format!("{n}"));
            }
        }
        Value::String(s) => {
            f.push('"');
            for c in s.chars() {
                match c {
                    '"' => f.push_str("\\\""),
                    '\\' => f.push_str("\\\\"),
                    '\n' => f.push_str("\\n"),
                    '\t' => f.push_str("\\t"),
                    '\r' => f.push_str("\\r"),
                    c if (c as u32) < 0x20 => f.push_str(&format!("\\u{:04x}", c as u32)),
                    c => f.push(c),
                }
            }
            f.push('"');
        }
        Value::Array(items) => {
            f.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    f.push(',');
                }
                newline(f, indent, level + 1);
                write(v, f, indent, level + 1);
            }
            if !items.is_empty() {
                newline(f, indent, level);
            }
            f.push(']');
        }
        Value::Object(map) => {
            f.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                if i > 0 {
                    f.push(',');
                }
                newline(f, indent, level + 1);
                write(&Value::String(k.clone()), f, indent, level + 1);
                f.push(':');
                if indent.is_some() {
                    f.push(' ');
                }
                write(v, f, indent, level + 1);
            }
            if !map.is_empty() {
                newline(f, indent, level);
            }
            f.push('}');
        }
    }
}

fn newline(f: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        f.push('\n');
        f.push_str(&" ".repeat(w * level));
    }
}

/// Characters names are drawn from: plain ASCII, every character the
/// writer escapes by name, raw control characters, DEL (not escaped),
/// and multi-byte UTF-8.
const NAME_CHARS: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀',
];

/// Static keys and categories with the same mix, for the fields that
/// must be `&'static str`.
pub const STATIC_KEYS: [&str; 6] = ["batch", "swap_ms", "a\"q", "b\\s", "c\nd", "é"];

/// A name that often needs escaping (possibly empty).
pub fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0..NAME_CHARS.len(), 0..6)
        .prop_map(|ix| ix.into_iter().map(|i| NAME_CHARS[i]).collect())
}

/// A number from every rendering regime: integral, fractional, at or
/// past the 9e15 integer cut-off, and `-0.0`.
pub fn number() -> impl Strategy<Value = f64> {
    prop_oneof![
        (-1_000_000i64..1_000_000).prop_map(|i| i as f64),
        -1e6f64..1e6,
        0.0f64..1e-3,
        8.99e15f64..2e16,
        Just(-0.0),
        Just(9e15),
        Just(1e21),
    ]
}

/// A simulated timestamp, drawn from a small set often enough that
/// equal timestamps (the stable-sort tie case) are common.
pub fn time() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(1.5),
        Just(2.25),
        (0u32..8).prop_map(|i| i as f64 * 0.5),
        0.0f64..100.0,
    ]
}
