//! The text boundary: the one JSON writer, the one JSON reader and the one
//! string escape every crate above uses for what it says to — and hears
//! from — the outside world (trace exports, metrics lines and timelines,
//! run reports, the perf-gate baseline, compiler diagnostics, directive
//! plans). DESIGN.md "§ text boundary" lists what crosses.
//!
//! # Writing
//!
//! [`Writer`] writes bytes: every piece of output is one append to its
//! buffer, which goes to a [`Sink`] — a `String` once the writer
//! finishes, or a file through [`IoSink`] in 64 KiB chunks. It owns
//! separator placement: call sites say *what* — keys and values, in
//! order — and a [`Layout`] per container says *how*, so the three house
//! styles (`{"k":1}`, `{"k": 1, "j": 2}` and one member per line) come
//! from one code path and stay byte-identical to what the hand-rolled
//! writers produced.
//!
//! # Reading
//!
//! [`parse`] builds a [`Json`] tree; [`Reader`] is the same
//! recursive-descent parser driven by the caller, for documents too large
//! to hold as a tree (a timeline's records are parsed one at a time).
//! Input is hostile until proven otherwise: nesting is capped at
//! [`MAX_DEPTH`], integers are kept exactly (never through `f64`), every
//! narrowing is checked and names its field, and no input panics.

use std::borrow::Cow;
use std::io;

/// Deepest container nesting [`Reader`] accepts; deeper input is an
/// error, not a stack overflow.
pub const MAX_DEPTH: usize = 128;

// ---- writing --------------------------------------------------------------

#[inline(always)]
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// `00`, `01`, … `99`: the decimal digits of every number below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Write the decimal digits of `v` into the end of `buf` (20 bytes hold
/// any `u64`), two per table lookup; returns where they start.
#[inline(always)]
pub(crate) fn uint_digits(v: u64, buf: &mut [u8]) -> usize {
    let (mut at, mut rest) = (buf.len(), v);
    loop {
        let pair = (rest % 100) as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        rest /= 100;
        if rest == 0 {
            // The first pair's tens digit is a leading zero when it is 0.
            return at + usize::from(buf[at] == b'0');
        }
    }
}

/// Where a [`Writer`]'s bytes end up. The writer keeps them in its buffer
/// and hands them over whenever [`Sink::CHUNK`] have collected, and at
/// [`Writer::sink`] and [`Writer::finish`].
pub trait Sink {
    /// Bytes the writer collects before a hand-over: unbounded (the
    /// default) for text kept in memory.
    const CHUNK: usize = usize::MAX;

    /// The buffer a writer over this sink starts with.
    fn start(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Take the writer's bytes, leaving `bytes` empty.
    fn take(&mut self, bytes: &mut Vec<u8>);
}

/// Text in memory: a writer starts with the string's own bytes (so it
/// appends, and keeps the string's capacity) and gives them back as the
/// string when it finishes.
impl Sink for String {
    fn start(&mut self) -> Vec<u8> {
        std::mem::take(self).into_bytes()
    }

    fn take(&mut self, bytes: &mut Vec<u8>) {
        let text = String::from_utf8(std::mem::take(bytes))
            .expect("a writer writes only UTF-8: text it was given, and ASCII of its own");
        if self.is_empty() {
            *self = text;
        } else {
            self.push_str(&text);
        }
    }
}

/// How one container lays out its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `{"a":1,"b":2}` — the line formats (trace events, phase records,
    /// diagnostics, plans).
    Compact,
    /// `{"a": 1, "b": 2}` — inline objects inside a laid-out document.
    Spaced,
    /// One member per line, indented by the writer's step per open
    /// container; the closing bracket sits on its own line.
    Lines,
}

struct Frame {
    layout: Layout,
    close: &'static [u8],
    first: bool,
}

/// A streaming JSON writer. Values are written in call order; inside an
/// object every value is preceded by [`Writer::key`]. A sink that can
/// fail latches its own error (see [`IoSink`]); the writer itself never
/// fails and never panics.
pub struct Writer<W: Sink> {
    buf: Vec<u8>,
    out: W,
    frames: Vec<Frame>,
    after_key: bool,
    /// Prefix of every [`Layout::Lines`] line.
    base: String,
    /// Spaces added per open container in [`Layout::Lines`].
    step: usize,
    /// Set by [`Writer::members`]: the first member starts where the
    /// caller's own text left off, without a line break.
    splice: bool,
}

impl<W: Sink> Writer<W> {
    /// A writer whose [`Layout::Lines`] containers indent by `step`
    /// spaces per level (0 for the line formats, which never use it).
    pub fn new(mut out: W, step: usize) -> Writer<W> {
        Writer {
            buf: out.start(),
            out,
            frames: Vec::new(),
            after_key: false,
            base: String::new(),
            step,
            splice: false,
        }
    }

    /// A writer that starts *inside* an object whose members sit one per
    /// line behind `indent`, for text spliced into a document laid out by
    /// hand: no braces are written, the first member starts at once and
    /// the last ends without a line break.
    pub fn members(out: W, indent: &str) -> Writer<W> {
        let mut w = Writer::new(out, 0);
        w.base = indent.to_string();
        w.frames.push(Frame { layout: Layout::Lines, close: b"", first: true });
        w.splice = true;
        w
    }

    /// Every byte of output goes through here.
    #[inline(always)]
    fn put(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
        if self.buf.len() >= W::CHUNK {
            self.out.take(&mut self.buf);
        }
    }

    /// `s` with JSON string escaping (no surrounding quotes): `"`, `\`
    /// and the control characters below U+0020; everything else verbatim.
    /// The clean case is one scan and one put, inlined into the caller —
    /// for a literal key the scan folds away at compile time. The scan is
    /// a fold, not `any`: without the early exit it vectorises, and the
    /// trace exports ran 1.3–1.5× faster for it.
    #[inline(always)]
    fn escaped(&mut self, s: &str) {
        if s.bytes().fold(false, |hit, b| hit | needs_escape(b)) {
            self.escape_slow(s.as_bytes());
        } else {
            self.put(s.as_bytes());
        }
    }

    #[cold]
    fn escape_slow(&mut self, mut rest: &[u8]) {
        while let Some(at) = rest.iter().position(|&b| needs_escape(b)) {
            self.put(&rest[..at]);
            match rest[at] {
                b'"' => self.put(b"\\\""),
                b'\\' => self.put(b"\\\\"),
                b'\n' => self.put(b"\\n"),
                b'\t' => self.put(b"\\t"),
                b'\r' => self.put(b"\\r"),
                b => self.put(format!("\\u{b:04x}").as_bytes()),
            }
            rest = &rest[at + 1..];
        }
        self.put(rest);
    }

    /// Step past the separator slot of the innermost container: returns
    /// whether this is its first member and its layout (top level:
    /// nothing to separate, so "first" and compact).
    #[inline(always)]
    fn advance(&mut self) -> (bool, Layout) {
        match self.frames.last_mut() {
            Some(f) => (std::mem::replace(&mut f.first, false), f.layout),
            None => (true, Layout::Compact),
        }
    }

    /// The line break and indentation before a [`Layout::Lines`] member.
    fn break_line(&mut self, first: bool) {
        if !first {
            self.put(b",\n");
        } else if !std::mem::take(&mut self.splice) {
            self.put(b"\n");
        }
        self.indent(self.frames.len());
    }

    fn indent(&mut self, depth: usize) {
        let base = std::mem::take(&mut self.base);
        self.put(base.as_bytes());
        self.base = base;
        for _ in 0..depth * self.step {
            self.put(b" ");
        }
    }

    /// The separator before an array element or an object key; returns
    /// the container's layout.
    #[inline(always)]
    fn separate(&mut self) -> Layout {
        let (first, layout) = self.advance();
        match (first, layout) {
            (true, Layout::Compact | Layout::Spaced) => {}
            (false, Layout::Compact) => self.put(b","),
            (false, Layout::Spaced) => self.put(b", "),
            (first, Layout::Lines) => self.break_line(first),
        }
        layout
    }

    #[inline(always)]
    fn before_value(&mut self) {
        if !std::mem::take(&mut self.after_key) {
            self.separate();
        }
    }

    /// The key of the next value (objects only).
    #[inline(always)]
    pub fn key(&mut self, key: &str) -> &mut Writer<W> {
        let layout = self.separate();
        self.put(b"\"");
        self.escaped(key);
        self.put(if layout == Layout::Compact { b"\":" } else { b"\": " });
        self.after_key = true;
        self
    }

    /// An unsigned integer value.
    #[inline(always)]
    pub fn uint(&mut self, v: u64) -> &mut Writer<W> {
        self.before_value();
        self.digits(v)
    }

    /// A signed integer value.
    pub fn int(&mut self, v: i64) -> &mut Writer<W> {
        self.before_value();
        if v < 0 {
            self.put(b"-");
        }
        self.digits(v.unsigned_abs())
    }

    /// Decimal digits straight from a stack buffer: integers are the hot
    /// value of every line format.
    #[inline(always)]
    fn digits(&mut self, v: u64) -> &mut Writer<W> {
        let mut buf = [0; 20];
        let at = uint_digits(v, &mut buf);
        self.put(&buf[at..]);
        self
    }

    /// A value given as its JSON text (a stream line copied into a
    /// document, a number formatted by hand): written as it is, with the
    /// separators of the container it lands in.
    #[inline(always)]
    pub fn raw(&mut self, text: &str) -> &mut Writer<W> {
        self.raw_ascii(text.as_bytes())
    }

    /// [`Writer::raw`] for text this crate formatted as ASCII bytes.
    #[inline(always)]
    pub(crate) fn raw_ascii(&mut self, text: &[u8]) -> &mut Writer<W> {
        self.before_value();
        self.put(text);
        self
    }

    /// A float with exactly `decimals` digits after the point.
    pub fn fixed(&mut self, v: f64, decimals: usize) -> &mut Writer<W> {
        self.before_value();
        self.put(format!("{v:.decimals$}").as_bytes());
        self
    }

    /// A string value.
    #[inline(always)]
    pub fn str(&mut self, s: &str) -> &mut Writer<W> {
        self.before_value();
        self.put(b"\"");
        self.escaped(s);
        self.put(b"\"");
        self
    }

    /// Open an object.
    pub fn object(&mut self, layout: Layout) -> &mut Writer<W> {
        self.open(layout, b"{", b"}")
    }

    /// Open an array.
    pub fn array(&mut self, layout: Layout) -> &mut Writer<W> {
        self.open(layout, b"[", b"]")
    }

    fn open(&mut self, layout: Layout, open: &[u8], close: &'static [u8]) -> &mut Writer<W> {
        self.before_value();
        self.put(open);
        self.frames.push(Frame { layout, close, first: true });
        self
    }

    /// Close the innermost open container.
    pub fn end(&mut self) -> &mut Writer<W> {
        if let Some(f) = self.frames.pop() {
            if f.layout == Layout::Lines {
                self.put(b"\n");
                self.indent(self.frames.len());
            }
            self.put(f.close);
        }
        self
    }

    /// A line break between top-level values (the JSONL separator and the
    /// newline that ends a document).
    pub fn newline(&mut self) -> &mut Writer<W> {
        self.put(b"\n");
        self
    }

    /// Has the innermost open container no member yet?
    pub fn is_empty(&self) -> bool {
        self.frames.last().is_some_and(|f| f.first)
    }

    /// The sink, between values, holding everything written so far (the
    /// metrics publisher flushes it once per batch of lines).
    pub fn sink(&mut self) -> &mut W {
        self.out.take(&mut self.buf);
        &mut self.out
    }

    /// The sink, with everything written so far.
    pub fn finish(mut self) -> W {
        self.out.take(&mut self.buf);
        self.out
    }
}

/// A [`std::io::Write`] (a `File`) as a [`Sink`]: the writer's bytes go
/// through in [`IoSink::CHUNK`]-sized writes. The first I/O error is
/// latched, later output is discarded, and [`IoSink::finish`] reports it.
pub struct IoSink<W: io::Write> {
    inner: W,
    error: Option<io::Error>,
}

impl<W: io::Write> IoSink<W> {
    /// Wrap `inner` (unbuffered: the writer's buffer is the buffer).
    pub fn new(inner: W) -> IoSink<W> {
        IoSink { inner, error: None }
    }

    /// Flush `inner` (an error stays latched for [`IoSink::finish`]).
    pub fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.inner.flush().err();
        }
    }

    /// [`IoSink::flush`], giving up the sink: the first error any write
    /// hit, if one did.
    pub fn finish(mut self) -> io::Result<()> {
        self.flush();
        self.error.map_or(Ok(()), Err)
    }
}

impl<W: io::Write> Sink for IoSink<W> {
    /// Bytes buffered before a write to the underlying file.
    const CHUNK: usize = 1 << 16;

    fn take(&mut self, bytes: &mut Vec<u8>) {
        if self.error.is_none() {
            self.error = self.inner.write_all(bytes).err();
        }
        bytes.clear();
    }
}

// ---- reading --------------------------------------------------------------

/// A parsed JSON value. Strings borrow from the source text unless they
/// contained an escape.
#[derive(Debug, Clone, PartialEq)]
pub enum Json<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number written without fraction or exponent, kept exactly
    /// (`u64::MAX` and `i64::MIN` both fit).
    Int(i128),
    /// Any other (finite) number.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<Json<'a>>),
    /// An object's members in source order. Keys are not deduplicated:
    /// [`Json::field`] returns the first match.
    Obj(Vec<(Cow<'a, str>, Json<'a>)>),
}

impl<'a> Json<'a> {
    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json<'a>]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The text, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Object member lookup (first match; `None` on a non-object).
    pub fn field(&self, key: &str) -> Option<&Json<'a>> {
        match self {
            Json::Obj(o) => o.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer member `key`, narrowed to `T` with a range check. A
    /// missing member, a non-integer (floats included) and a value `T`
    /// cannot hold are each an error naming the field.
    pub fn int<T: TryFrom<i128>>(&self, key: &str) -> Result<T, String> {
        match self.field(key) {
            Some(Json::Int(i)) => {
                T::try_from(*i).map_err(|_| format!("field `{key}`: {i} is out of range"))
            }
            _ => Err(format!("missing integer field `{key}`")),
        }
    }

    /// The string member `key`.
    pub fn string(&self, key: &str) -> Result<&str, String> {
        self.field(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("missing string field `{key}`"))
    }

    /// The array member `key`.
    pub fn array(&self, key: &str) -> Result<&[Json<'a>], String> {
        self.field(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("missing array field `{key}`"))
    }
}

/// Parse one complete JSON document into a tree.
pub fn parse(src: &str) -> Result<Json<'_>, String> {
    let mut r = Reader::new(src);
    let v = r.value()?;
    r.end()?;
    Ok(v)
}

/// The recursive-descent parser behind [`parse`], usable directly to walk
/// a large document without holding it as a tree: [`Reader::object`] and
/// [`Reader::array`] hand each member to a closure, which consumes it
/// with [`Reader::value`] (a subtree) or a nested walk.
pub struct Reader<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `src`.
    pub fn new(src: &'a str) -> Reader<'a> {
        Reader { src, pos: 0, depth: 0 }
    }

    /// The next non-whitespace byte, not consumed.
    fn peek(&mut self) -> Result<u8, String> {
        let bytes = self.src.as_bytes();
        while matches!(bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied().ok_or_else(|| "unexpected end of input".to_string())
    }

    fn eat(&mut self, want: u8) -> Result<(), String> {
        if self.peek()? == want {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", want as char, self.pos))
        }
    }

    /// Only whitespace may remain.
    pub fn end(mut self) -> Result<(), String> {
        match self.peek() {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("trailing garbage at offset {}", self.pos)),
        }
    }

    /// Parse the next value into a tree.
    pub fn value(&mut self) -> Result<Json<'a>, String> {
        match self.peek()? {
            b'{' => {
                let mut members = Vec::new();
                self.object(|key, r| {
                    members.push((key, r.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            b'[' => {
                let mut items = Vec::new();
                self.array(|r| {
                    items.push(r.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            b'-' | b'0'..=b'9' => self.number(),
            _ => Err(format!("unexpected character at offset {}", self.pos)),
        }
    }

    /// Walk the object that starts here: `member` is called with each key
    /// and must consume that member's value from the reader.
    pub fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.container(b'{', b'}', |r| {
            if r.peek()? != b'"' {
                return Err(format!("expected a string key at offset {}", r.pos));
            }
            let key = r.string()?;
            r.eat(b':')?;
            member(key, r)
        })
    }

    /// Walk the array that starts here: `item` is called before each
    /// element and must consume it from the reader.
    pub fn array(
        &mut self,
        item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.container(b'[', b']', item)
    }

    fn container(
        &mut self,
        open: u8,
        close: u8,
        mut element: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.depth += 1;
        if self.peek()? == close {
            self.pos += 1;
        } else {
            loop {
                element(self)?;
                match self.peek()? {
                    b',' => self.pos += 1,
                    b if b == close => {
                        self.pos += 1;
                        break;
                    }
                    _ => {
                        return Err(format!(
                            "expected `,` or `{}` at offset {}",
                            close as char, self.pos
                        ))
                    }
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    fn keyword(&mut self, word: &str, v: Json<'a>) -> Result<Json<'a>, String> {
        if self.src.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad keyword at offset {}", self.pos))
        }
    }

    /// RFC 8259 number grammar; integers exact, the rest finite `f64`.
    fn number(&mut self) -> Result<Json<'a>, String> {
        let bytes = self.src.as_bytes();
        let start = self.pos;
        let digits = |pos: &mut usize| {
            let from = *pos;
            while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                *pos += 1;
            }
            *pos - from
        };
        let mut pos = start + usize::from(bytes[start] == b'-');
        let int_digits = digits(&mut pos);
        let mut ok = int_digits > 0 && (int_digits == 1 || bytes[pos - int_digits] != b'0');
        let mut integer = true;
        if bytes.get(pos) == Some(&b'.') {
            pos += 1;
            ok &= digits(&mut pos) > 0;
            integer = false;
        }
        if matches!(bytes.get(pos), Some(b'e' | b'E')) {
            pos += 1;
            pos += usize::from(matches!(bytes.get(pos), Some(b'+' | b'-')));
            ok &= digits(&mut pos) > 0;
            integer = false;
        }
        let text = &self.src[start..pos];
        self.pos = pos;
        let parsed = if !ok {
            None
        } else if integer {
            text.parse().ok().map(Json::Int)
        } else {
            text.parse().ok().filter(|f: &f64| f.is_finite()).map(Json::Num)
        };
        parsed.ok_or_else(|| format!("bad number `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        let bytes = self.src.as_bytes();
        self.pos += 1; // the opening quote, seen by the caller
        let mut unescaped: Option<String> = None;
        let mut clean = self.pos;
        loop {
            match bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    let tail = &self.src[clean..self.pos];
                    self.pos += 1;
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(s) => Cow::Owned(s + tail),
                    });
                }
                Some(b'\\') => {
                    let s = unescaped.get_or_insert_with(String::new);
                    s.push_str(&self.src[clean..self.pos]);
                    self.pos += 1;
                    let c = self.escape_char()?;
                    unescaped.get_or_insert_with(String::new).push(c);
                    clean = self.pos;
                }
                Some(0..=0x1f) => {
                    return Err(format!("raw control byte in a string at offset {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    /// The character an escape (after its backslash) stands for.
    fn escape_char(&mut self) -> Result<char, String> {
        let at = self.pos;
        let e = *self.src.as_bytes().get(at).ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b't' => '\t',
            b'r' => '\r',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'u' => {
                let hi = self.hex4()?;
                let code = match hi {
                    0xd800..=0xdbff if self.src.as_bytes()[self.pos..].starts_with(b"\\u") => {
                        self.pos += 2;
                        match self.hex4()? {
                            lo @ 0xdc00..=0xdfff => 0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00),
                            _ => 0xd800, // not a pair: rejected below
                        }
                    }
                    _ => hi,
                };
                char::from_u32(code)
                    .ok_or_else(|| format!("lone surrogate escape at offset {at}"))?
            }
            _ => return Err(format!("unknown escape at offset {at}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| format!("bad \\u escape at offset {}", self.pos))?;
        self.pos += 4;
        Ok(hex.iter().fold(0, |acc, h| acc * 16 + (*h as char).to_digit(16).unwrap_or(0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_place_their_own_separators() {
        let mut w = Writer::new(String::new(), 2);
        w.object(Layout::Lines);
        w.key("a").uint(1);
        w.key("b").object(Layout::Spaced).key("x").int(-2).key("y").fixed(0.5, 2).end();
        w.key("c").array(Layout::Lines);
        w.object(Layout::Compact).key("k").str("v\n").key("n").uint(u64::MAX).end();
        w.array(Layout::Compact).end();
        w.end().key("d").array(Layout::Lines).end().end().newline();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": {\"x\": -2, \"y\": 0.50},\n  \"c\": [\n    \
             {\"k\":\"v\\n\",\"n\":18446744073709551615},\n    []\n  ],\n  \"d\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn raw_values_take_the_containers_separators() {
        let line = {
            let mut w = Writer::new(String::new(), 0);
            w.object(Layout::Compact).key("k").uint(1).end();
            w.finish()
        };
        let mut spliced = Writer::new(String::new(), 0);
        let mut built = Writer::new(String::new(), 0);
        spliced.object(Layout::Lines).key("rows").array(Layout::Lines);
        built.object(Layout::Lines).key("rows").array(Layout::Lines);
        for _ in 0..2 {
            spliced.raw(&line);
            built.object(Layout::Compact).key("k").uint(1).end();
        }
        spliced.end().end().newline();
        built.end().end().newline();
        assert_eq!(spliced.finish(), built.finish());
    }

    #[test]
    fn digit_pairs_print_what_to_string_prints() {
        let text = |v: u64| {
            let mut buf = [0; 20];
            let at = uint_digits(v, &mut buf);
            String::from_utf8(buf[at..].to_vec()).expect("digits are ASCII")
        };
        let powers = (0..=19).flat_map(|k| {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1]
        });
        for v in (0..=1_000_000).chain(powers).chain([u64::MAX]) {
            assert_eq!(text(v), v.to_string());
        }
    }

    #[test]
    fn members_fragment_has_no_braces_and_no_outer_newlines() {
        let mut w = Writer::members(String::new(), "    ");
        w.key("a").uint(1);
        w.key("b").object(Layout::Spaced).key("1").uint(2).end();
        assert_eq!(w.finish(), "    \"a\": 1,\n    \"b\": {\"1\": 2}");
    }

    #[test]
    fn writer_output_reads_back() {
        let mut w = Writer::new(String::new(), 0);
        w.object(Layout::Compact);
        w.key("s").str("q\"b\\ n\n t\t r\r bell\u{1} é \u{1f600}");
        w.key("min").int(i64::MIN).key("max").uint(u64::MAX).key("f").fixed(2.5, 3);
        w.key("arr").array(Layout::Spaced).uint(0).str("").end().end();
        let text = w.finish();
        let v = parse(&text).expect("own output parses");
        assert_eq!(v.string("s").unwrap(), "q\"b\\ n\n t\t r\r bell\u{1} é \u{1f600}");
        assert_eq!(v.int::<i64>("min").unwrap(), i64::MIN);
        assert_eq!(v.int::<u64>("max").unwrap(), u64::MAX);
        assert_eq!(v.field("f"), Some(&Json::Num(2.5)));
        assert_eq!(v.array("arr").unwrap().len(), 2);
        assert!(v.int::<u32>("max").unwrap_err().contains("`max`"), "narrowing names the field");
        assert!(v.int::<u64>("min").is_err() && v.int::<u64>("f").is_err());
    }

    #[test]
    fn strings_borrow_unless_escaped_and_pairs_combine() {
        let v = parse(r#"["plain", "aé😀\/"]"#).unwrap();
        let items = v.as_array().unwrap();
        assert!(matches!(&items[0], Json::Str(Cow::Borrowed("plain"))));
        assert_eq!(items[1].as_str(), Some("aé\u{1f600}/"));
    }

    #[test]
    fn reader_walks_without_a_tree() {
        let src = r#"{"n": 2, "skip": {"deep": [1, 2]}, "items": [10, 20, 30]}"#;
        let (mut n, mut sum) = (0u64, 0u64);
        let mut r = Reader::new(src);
        r.object(|key, r| match &*key {
            "n" => r.value().map(|v| n = if let Json::Int(i) = v { i as u64 } else { 0 }),
            "items" => r.array(|r| {
                r.value().map(|v| sum += if let Json::Int(i) = v { i as u64 } else { 0 })
            }),
            _ => r.value().map(drop),
        })
        .unwrap();
        r.end().unwrap();
        assert_eq!((n, sum), (2, 60));
        // A walker that forgets to consume its value is an error, not a loop.
        assert!(Reader::new("[1]").array(|_| Ok(())).is_err());
    }

    #[test]
    fn sink_latches_the_first_io_error() {
        struct Full;
        impl std::io::Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("disk full"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut w = Writer::new(IoSink::new(Full), 0);
        w.array(Layout::Compact).uint(1).uint(2).end();
        assert_eq!(w.finish().finish().unwrap_err().to_string(), "disk full");
        let mut w = Writer::new(IoSink::new(Vec::new()), 0);
        w.uint(7);
        assert!(w.finish().finish().is_ok());
    }
}
