//! Trace-signature encodings (paper §3.2, §5.2) and the repository's shared
//! JSON encoder.
//!
//! A *trace* is the sequence of instructions (PCs) touching a block from the
//! coherence miss that fetched it until the invalidation that takes it away.
//! Storing whole traces is prohibitive, so the predictor folds each trace into
//! a fixed-width *signature*. The paper uses **truncated addition** — the
//! running sum of PCs modulo `2^k` — and shows (Figure 7) that 13 bits
//! suffice for per-block tables while global tables need the full 30 bits.
//!
//! The [`SignatureEncoder`] trait admits alternative encodings; the ablation
//! bench compares truncated addition with an XOR-rotate mix.
//!
//! The second half of this module is [`JsonValue`]/[`JsonObject`]: the one
//! dependency-free JSON encoder every report, probe section, and benchmark
//! baseline in the workspace serializes through (this repository carries no
//! external dependencies, so the encoder is hand-rolled — but hand-rolled
//! *once*, here, instead of per consumer).

use std::fmt;
use std::fmt::Write as _;

use crate::types::Pc;

/// Width of a signature in bits. The paper's "Base" configuration is 30 bits
/// (enough to hold one whole PC); Figure 7 sweeps {30, 13, 11, 6}.
///
/// # Examples
///
/// ```
/// use ltp_core::SignatureBits;
///
/// let bits = SignatureBits::new(13)?;
/// assert_eq!(bits.get(), 13);
/// assert_eq!(bits.mask(), (1 << 13) - 1);
/// # Ok::<(), ltp_core::InvalidSignatureBits>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SignatureBits(u8);

/// Error returned when constructing a [`SignatureBits`] outside `1..=32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidSignatureBits(pub u8);

impl fmt::Display for InvalidSignatureBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "signature width {} is outside 1..=32 bits", self.0)
    }
}

impl std::error::Error for InvalidSignatureBits {}

impl SignatureBits {
    /// The paper's "Base" width: 30 bits, the minimum holding one full PC.
    pub const BASE: SignatureBits = SignatureBits(30);
    /// The paper's recommended per-block width (Figure 7): 13 bits.
    pub const PER_BLOCK_DEFAULT: SignatureBits = SignatureBits(13);

    /// Creates a width, validating `1 <= bits <= 32`.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidSignatureBits`] when outside that range.
    pub fn new(bits: u8) -> Result<Self, InvalidSignatureBits> {
        if (1..=32).contains(&bits) {
            Ok(SignatureBits(bits))
        } else {
            Err(InvalidSignatureBits(bits))
        }
    }

    /// The width in bits.
    #[inline]
    pub const fn get(self) -> u8 {
        self.0
    }

    /// A mask selecting the low `bits` bits.
    #[inline]
    pub const fn mask(self) -> u32 {
        if self.0 >= 32 {
            u32::MAX
        } else {
            (1u32 << self.0) - 1
        }
    }
}

impl fmt::Display for SignatureBits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}b", self.0)
    }
}

/// A trace signature: the compact encoding of one instruction trace.
///
/// Only the low [`SignatureBits`] bits are meaningful; constructors mask
/// eagerly so equality is width-honest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Signature(u32);

impl Signature {
    /// The raw (masked) signature bits.
    #[inline]
    pub const fn bits(self) -> u32 {
        self.0
    }

    /// Creates a signature from raw bits, masked to `width`.
    #[inline]
    pub fn from_bits(bits: u32, width: SignatureBits) -> Self {
        Signature(bits & width.mask())
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sig:{:#x}", self.0)
    }
}

impl fmt::LowerHex for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// Folds a trace of PCs into a [`Signature`], one instruction at a time.
///
/// Implementations must be deterministic and must depend only on the sequence
/// of PCs folded so far (the predictor re-creates signatures incrementally as
/// instructions execute).
pub trait SignatureEncoder: fmt::Debug + Send {
    /// The signature of the empty trace.
    fn empty(&self) -> Signature {
        Signature::default()
    }

    /// The signature of a trace that begins at the faulting instruction `pc`
    /// (the paper initializes the current signature with the PC of the
    /// coherence-missing instruction).
    fn start(&self, pc: Pc) -> Signature;

    /// Extends `current` with one more touching instruction.
    fn fold(&self, current: Signature, pc: Pc) -> Signature;

    /// The signature width this encoder produces.
    fn width(&self) -> SignatureBits;

    /// Encodes a whole trace at once (training helpers and tests).
    fn encode_trace(&self, pcs: &[Pc]) -> Signature {
        let mut iter = pcs.iter();
        let Some(&first) = iter.next() else {
            return self.empty();
        };
        iter.fold(self.start(first), |sig, &pc| self.fold(sig, pc))
    }
}

/// The paper's encoder: truncated addition (`sig' = (sig + pc) mod 2^k`).
///
/// §3.2: "truncated addition randomizes the signature bits and enables
/// encoding large traces into a small number of bits."
///
/// # Examples
///
/// ```
/// use ltp_core::{Pc, SignatureBits, SignatureEncoder, TruncatedAdd};
///
/// let enc = TruncatedAdd::new(SignatureBits::new(13)?);
/// let sig = enc.encode_trace(&[Pc::new(0x100), Pc::new(0x104), Pc::new(0x104)]);
/// // Order-insensitive by construction, but length- and multiset-sensitive:
/// assert_ne!(sig, enc.encode_trace(&[Pc::new(0x100), Pc::new(0x104)]));
/// # Ok::<(), ltp_core::InvalidSignatureBits>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedAdd {
    width: SignatureBits,
}

impl TruncatedAdd {
    /// Creates a truncated-addition encoder of the given width.
    pub fn new(width: SignatureBits) -> Self {
        TruncatedAdd { width }
    }
}

impl Default for TruncatedAdd {
    /// The paper's per-block default: 13-bit truncated addition.
    fn default() -> Self {
        TruncatedAdd::new(SignatureBits::PER_BLOCK_DEFAULT)
    }
}

impl SignatureEncoder for TruncatedAdd {
    fn start(&self, pc: Pc) -> Signature {
        Signature::from_bits(pc.value(), self.width)
    }

    fn fold(&self, current: Signature, pc: Pc) -> Signature {
        Signature::from_bits(current.bits().wrapping_add(pc.value()), self.width)
    }

    fn width(&self) -> SignatureBits {
        self.width
    }
}

/// An order-sensitive alternative encoder: rotate-left-then-XOR.
///
/// Unlike [`TruncatedAdd`], two traces containing the same PCs in different
/// orders encode differently. The `ltp-xor:bits=13` rows of the
/// `reports/specs/fig8-table-org.json` campaign quantify whether order
/// sensitivity buys accuracy on the suite (the paper conjectures
/// sophisticated encodings could shrink global tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorRotate {
    width: SignatureBits,
    rotation: u32,
}

impl XorRotate {
    /// Creates an XOR-rotate encoder; `rotation` is the left-rotation applied
    /// before each fold (values coprime to the width mix best).
    pub fn new(width: SignatureBits, rotation: u32) -> Self {
        XorRotate { width, rotation }
    }
}

impl Default for XorRotate {
    fn default() -> Self {
        XorRotate::new(SignatureBits::PER_BLOCK_DEFAULT, 5)
    }
}

impl SignatureEncoder for XorRotate {
    fn start(&self, pc: Pc) -> Signature {
        Signature::from_bits(pc.value(), self.width)
    }

    fn fold(&self, current: Signature, pc: Pc) -> Signature {
        let w = u32::from(self.width.get());
        let r = self.rotation % w;
        let cur = current.bits();
        let rotated = ((cur << r) | (cur >> (w - r.max(1)))) & self.width.mask();
        Signature::from_bits(rotated ^ pc.value(), self.width)
    }

    fn width(&self) -> SignatureBits {
        self.width
    }
}

// ---- JSON ----------------------------------------------------------------

/// An owned JSON document: the interchange tree behind every `RunReport`,
/// probe metrics section, and benchmark baseline in the workspace.
///
/// Objects preserve insertion order (they are field *lists*, not maps), so a
/// document renders byte-identically run after run. Rendering is compact —
/// no whitespace — matching the workspace's JSON-lines conventions.
///
/// # Examples
///
/// ```
/// use ltp_core::{JsonObject, JsonValue};
///
/// let doc = JsonObject::new()
///     .field("name", "em3d")
///     .field("ops", 12288u64)
///     .field("ratio", 0.25)
///     .field("tags", JsonValue::Array(vec!["a".into(), "b".into()]))
///     .build();
/// assert_eq!(
///     doc.render(),
///     r#"{"name":"em3d","ops":12288,"ratio":0.25,"tags":["a","b"]}"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A floating-point number; non-finite values render as `null` (JSON
    /// has no NaN/Inf).
    F64(f64),
    /// A string (escaped on render).
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object as an ordered field list. Keys are rendered in insertion
    /// order and are not deduplicated — callers keep them unique.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(128);
        self.write(&mut out);
        out
    }

    /// Appends the value's compact JSON rendering to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            JsonValue::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                json_escape_into(out, s);
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    json_escape_into(out, key);
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::U64(v)
    }
}

impl From<u32> for JsonValue {
    fn from(v: u32) -> Self {
        JsonValue::U64(u64::from(v))
    }
}

impl From<u16> for JsonValue {
    fn from(v: u16) -> Self {
        JsonValue::U64(u64::from(v))
    }
}

impl From<u8> for JsonValue {
    fn from(v: u8) -> Self {
        JsonValue::U64(u64::from(v))
    }
}

impl From<i64> for JsonValue {
    fn from(v: i64) -> Self {
        JsonValue::I64(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::F64(v)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::Str(v.to_string())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::Str(v)
    }
}

impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> Self {
        JsonValue::Array(v)
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// Builder for [`JsonValue::Object`] field lists (see [`JsonValue`]'s
/// example).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JsonObject {
    fields: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends one field (builder style).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> Self {
        self.push(key, value);
        self
    }

    /// Appends one field (in-place style).
    pub fn push(&mut self, key: &str, value: impl Into<JsonValue>) {
        self.fields.push((key.to_string(), value.into()));
    }

    /// Finishes the object.
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.fields)
    }
}

/// Appends `s` to `out` with JSON string escaping applied (quotes,
/// backslashes, and control characters).
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcs(vals: &[u32]) -> Vec<Pc> {
        vals.iter().copied().map(Pc::new).collect()
    }

    #[test]
    fn signature_bits_validation() {
        assert!(SignatureBits::new(0).is_err());
        assert!(SignatureBits::new(33).is_err());
        assert_eq!(SignatureBits::new(32).unwrap().mask(), u32::MAX);
        assert_eq!(SignatureBits::new(6).unwrap().mask(), 0b11_1111);
        let err = SignatureBits::new(0).unwrap_err();
        assert_eq!(err.to_string(), "signature width 0 is outside 1..=32 bits");
    }

    #[test]
    fn truncated_add_is_running_sum_mod_2k() {
        let enc = TruncatedAdd::new(SignatureBits::new(6).unwrap());
        let sig = enc.encode_trace(&pcs(&[60, 10]));
        assert_eq!(sig.bits(), (60 + 10) % 64);
    }

    #[test]
    fn truncated_add_start_is_faulting_pc() {
        let enc = TruncatedAdd::new(SignatureBits::BASE);
        assert_eq!(enc.start(Pc::new(0x10f4)).bits(), 0x10f4);
    }

    #[test]
    fn empty_trace_encodes_to_empty() {
        let enc = TruncatedAdd::default();
        assert_eq!(enc.encode_trace(&[]), enc.empty());
    }

    #[test]
    fn repeat_counts_distinguish_traces() {
        // The loop example of Figure 3(c): {PCi, PCj, PCj} must differ from
        // {PCi, PCj} so the predictor can count touches.
        let enc = TruncatedAdd::default();
        let twice = enc.encode_trace(&pcs(&[0x100, 0x104, 0x104]));
        let once = enc.encode_trace(&pcs(&[0x100, 0x104]));
        assert_ne!(twice, once);
    }

    #[test]
    fn truncated_add_is_order_insensitive() {
        let enc = TruncatedAdd::default();
        assert_eq!(
            enc.encode_trace(&pcs(&[1, 2, 3])),
            enc.encode_trace(&pcs(&[3, 2, 1]))
        );
    }

    #[test]
    fn xor_rotate_is_order_sensitive() {
        let enc = XorRotate::default();
        assert_ne!(
            enc.encode_trace(&pcs(&[0x21, 0x412, 0x833])),
            enc.encode_trace(&pcs(&[0x833, 0x412, 0x21]))
        );
    }

    #[test]
    fn narrow_widths_alias_wide_traces() {
        // With 6 bits, two different traces can collide (subtrace aliasing is
        // the Figure 7 accuracy cliff); verify a concrete collision exists.
        let enc = TruncatedAdd::new(SignatureBits::new(6).unwrap());
        let a = enc.encode_trace(&pcs(&[64]));
        let b = enc.encode_trace(&pcs(&[128]));
        assert_eq!(a, b, "64 ≡ 128 (mod 64)");
    }

    #[test]
    fn incremental_matches_batch() {
        let enc = TruncatedAdd::new(SignatureBits::new(13).unwrap());
        let trace = pcs(&[0x4000, 0x4010, 0x4010, 0x4020]);
        let mut sig = enc.start(trace[0]);
        for &pc in &trace[1..] {
            sig = enc.fold(sig, pc);
        }
        assert_eq!(sig, enc.encode_trace(&trace));
    }

    #[test]
    fn signatures_mask_on_construction() {
        let w = SignatureBits::new(8).unwrap();
        assert_eq!(Signature::from_bits(0x1FF, w).bits(), 0xFF);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SignatureBits::BASE.to_string(), "30b");
        let s = Signature::from_bits(0xab, SignatureBits::BASE);
        assert_eq!(s.to_string(), "sig:0xab");
        assert_eq!(format!("{s:x}"), "ab");
    }

    #[test]
    fn json_scalars_render_compactly() {
        assert_eq!(JsonValue::Null.render(), "null");
        assert_eq!(JsonValue::Bool(true).render(), "true");
        assert_eq!(JsonValue::U64(u64::MAX).render(), "18446744073709551615");
        assert_eq!(JsonValue::I64(-3).render(), "-3");
        assert_eq!(JsonValue::F64(2.5).render(), "2.5");
        assert_eq!(JsonValue::F64(0.0).render(), "0");
        assert_eq!(JsonValue::F64(f64::NAN).render(), "null");
        assert_eq!(JsonValue::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(
            JsonValue::Str("a\"b\\c\n\t\u{1}".to_string()).render(),
            "\"a\\\"b\\\\c\\n\\t\\u0001\""
        );
    }

    #[test]
    fn json_objects_preserve_field_order() {
        let doc = JsonObject::new()
            .field("z", 1u64)
            .field("a", 2u64)
            .field("nested", JsonObject::new().field("k", "v").build())
            .build();
        assert_eq!(doc.render(), r#"{"z":1,"a":2,"nested":{"k":"v"}}"#);
        assert_eq!(doc.to_string(), doc.render());
    }

    #[test]
    fn json_arrays_render_in_order() {
        let arr = JsonValue::Array(vec![1u64.into(), JsonValue::Null, "x".into()]);
        assert_eq!(arr.render(), r#"[1,null,"x"]"#);
        assert_eq!(JsonValue::Array(Vec::new()).render(), "[]");
        assert_eq!(JsonObject::new().build().render(), "{}");
    }
}
