//! The hostile-input table for the JSON boundary, shared by
//! `tests/text_boundary.rs` (the reader itself and the tempest / cstar /
//! runtime parsers over it) and `crates/bench/tests/hostile_text.rs` (the
//! two parsers that live in the bench crate).
//!
//! Every row is a byte sequence something outside the program could put
//! into a file this program reads back. `json_ok` says what the reader
//! itself must answer; every *typed* parser must answer `Err` on every
//! row — none of them is a diagnostic array, a plan, a record, a timeline
//! or a trace line — and nothing may panic, abort or overflow the stack.

/// One hostile document.
pub struct Row {
    pub name: String,
    pub text: String,
    pub json_ok: bool,
}

fn row(name: &str, text: impl Into<String>, json_ok: bool) -> Row {
    Row { name: name.to_string(), text: text.into(), json_ok }
}

/// The fixed rows.
pub fn rows() -> Vec<Row> {
    let nested = |n: usize| "[".repeat(n) + &"]".repeat(n);
    vec![
        // Nesting: the cap is 128 containers, and a bomb is an error.
        row("depth bomb, unclosed", "[".repeat(200_000), false),
        row("depth bomb, balanced", nested(200_000), false),
        row("depth bomb, objects", "{\"a\":".repeat(100_000), false),
        row("nesting at the cap", nested(128), true),
        row("nesting one past the cap", nested(129), false),
        // Escapes.
        row("bad \\u digit", r#""\u12G4""#, false),
        row("short \\u", r#""\u12""#, false),
        row("\\u at end of input", r#""\u"#, false),
        row("lone high surrogate", r#""\ud800""#, false),
        row("lone low surrogate", r#""\udc00""#, false),
        row("high surrogate then a non-surrogate", r#""\ud800A""#, false),
        row("surrogate pair", r#""\ud83d\ude00""#, true),
        row("unknown escape", r#""\q""#, false),
        row("backslash at end of input", "\"\\", false),
        // NUL and control bytes.
        row("raw NUL in a string", "\"a\0b\"", false),
        row("raw newline in a string", "\"a\nb\"", false),
        row("raw 0x1f in a string", "\"a\u{1f}b\"", false),
        row("NUL outside a string", "\0", false),
        row("NUL after a value", "1\0", false),
        row("byte-order mark", "\u{feff}{}", false),
        // Numbers.
        row("exponent overflow", "1e999", false),
        row("negative exponent overflow is zero", "1e-999", true),
        row("lone minus", "-", false),
        row("leading zero", "01", false),
        row("trailing point", "1.", false),
        row("leading point", ".5", false),
        row("leading plus", "+1", false),
        row("empty exponent", "1e", false),
        row("two signs", "--1", false),
        row("integer past 128 bits", "340282366920938463463374607431768211456", false),
        row("minus zero", "-0", true),
        row("exponent forms", "1E+2", true),
        // Structure.
        row("empty input", "", false),
        row("whitespace only", " \n\t\r", false),
        row("duplicate keys", r#"{"a":1,"a":2}"#, true),
        row("trailing garbage after an object", "{} x", false),
        row("two documents", "[] []", false),
        row("two objects, no separator", "{}{}", false),
        row("key without a value", r#"{"a"}"#, false),
        row("colon without a value", r#"{"a":}"#, false),
        row("comma-only object", "{,}", false),
        row("trailing comma", "[1,]", false),
        row("leading comma", "[,1]", false),
        row("number as a key", "{1:2}", false),
        row("unterminated string", "\"abc", false),
        row("truncated keyword", "tru", false),
        row("keyword with a tail", "nullx", false),
        row("mismatched brackets", "[}", false),
        row("single quotes", "{'a':1}", false),
        row("a megabyte of string", format!("\"{}\"", "a".repeat(1 << 20)), true),
        row("a megabyte of digits", "9".repeat(1 << 20), false),
    ]
}

/// Every proper prefix of `doc` (trimmed: a document minus its trailing
/// newline is still the document), as rows the reader must reject.
pub fn prefixes(what: &str, doc: &str) -> Vec<Row> {
    let doc = doc.trim_end();
    (0..doc.len())
        .filter(|&cut| doc.is_char_boundary(cut))
        .map(|cut| row(&format!("{what} cut at byte {cut}"), &doc[..cut], false))
        .collect()
}
