//! Sample values, definition provenance and the [`Sample`] carried on TDF
//! signals.

use std::fmt;

use crate::intern::ProvId;

/// A dynamically-typed TDF sample value (double, int or bool).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Analog quantity.
    Double(f64),
    /// Digital bus / counter value.
    Int(i64),
    /// Digital single-bit value.
    Bool(bool),
}

/// Hashes by discriminant and exact bit pattern (`f64::to_bits` for
/// doubles). Used for content fingerprinting of interfaces, not as a map
/// key — `Value` is deliberately not `Eq` (NaN).
impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Double(v) => v.to_bits().hash(state),
            Value::Int(v) => v.hash(state),
            Value::Bool(v) => v.hash(state),
        }
    }
}

impl Value {
    /// Converts to `f64` (bools become 0.0/1.0).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::Double(v) => v,
            Value::Int(v) => v as f64,
            Value::Bool(b) => {
                if b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Converts to `i64` (doubles truncate toward zero like a C cast).
    pub fn as_i64(self) -> i64 {
        match self {
            Value::Double(v) => v as i64,
            Value::Int(v) => v,
            Value::Bool(b) => b as i64,
        }
    }

    /// Converts to `bool` (non-zero is true, C style).
    pub fn as_bool(self) -> bool {
        match self {
            Value::Double(v) => v != 0.0,
            Value::Int(v) => v != 0,
            Value::Bool(b) => b,
        }
    }

    /// Whether two values are numerically equal after f64 conversion.
    pub fn numeric_eq(self, other: Value) -> bool {
        self.as_f64() == other.as_f64()
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Double(0.0)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Double(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// Where the value flowing on a signal was last *defined*.
///
/// Minic models stamp their port writes with `(var, line, model)`;
/// redefining library elements (delay, gain, buffer) replace the `line` and
/// `model` with their netlist binding site while keeping `var` — exactly the
/// coordinates the paper uses for cluster-level associations such as
/// `(op_signal_out, 74, sense_top, 36, AM)`. Samples carry its interned
/// [`ProvId`]; this string form renders events and reports.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Provenance {
    /// The originating variable/port name.
    pub var: String,
    /// Source or netlist line of the (re)definition.
    pub line: u32,
    /// Model owning that line.
    pub model: String,
}

impl Provenance {
    /// Creates a provenance record.
    pub fn new(var: impl Into<String>, line: u32, model: impl Into<String>) -> Self {
        Provenance {
            var: var.into(),
            line,
            model: model.into(),
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.var, self.line, self.model)
    }
}

/// One sample travelling on a TDF signal — a `Copy` record, so moving it
/// between modules never allocates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The carried value.
    pub value: Value,
    /// Last definition feeding this sample, interned against the cluster's
    /// [`Interner`](crate::Interner); [`ProvId::NONE`] when unknown.
    pub prov: ProvId,
    /// False when the producing module failed to write the port during its
    /// activation — the "port used without definition" undefined behaviour
    /// the paper reports finding in both case studies.
    pub defined: bool,
}

impl Sample {
    /// A defined sample without provenance (testbench stimulus).
    pub fn new(value: impl Into<Value>) -> Self {
        Sample::stamped(value, ProvId::NONE)
    }

    /// A defined sample carrying the interned definition provenance `prov`.
    pub fn stamped(value: impl Into<Value>, prov: ProvId) -> Self {
        Sample {
            value: value.into(),
            prov,
            defined: true,
        }
    }

    /// The padding sample inserted when a module did not write its output
    /// port; reading it is undefined behaviour per the SystemC-AMS standard.
    pub fn undefined() -> Self {
        Sample {
            value: Value::default(),
            prov: ProvId::NONE,
            defined: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_follow_c_semantics() {
        assert_eq!(Value::Double(2.9).as_i64(), 2);
        assert_eq!(Value::Double(-2.9).as_i64(), -2);
        assert!(Value::Int(-1).as_bool());
        assert!(!Value::Double(0.0).as_bool());
        assert_eq!(Value::Bool(true).as_f64(), 1.0);
        assert_eq!(Value::Bool(true).as_i64(), 1);
    }

    #[test]
    fn numeric_eq_across_types() {
        assert!(Value::Int(1).numeric_eq(Value::Bool(true)));
        assert!(Value::Double(0.0).numeric_eq(Value::Int(0)));
        assert!(!Value::Double(0.5).numeric_eq(Value::Int(0)));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(1.5), Value::Double(1.5));
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(true), Value::Bool(true));
    }

    #[test]
    fn default_value_is_zero_double() {
        assert_eq!(Value::default(), Value::Double(0.0));
    }

    #[test]
    fn sample_constructors() {
        let s = Sample::new(1.0);
        assert!(s.defined);
        assert!(s.prov.is_none());

        let interner = crate::Interner::new();
        let p = Provenance::new("op_signal_out", 14, "TS");
        let s2 = Sample::stamped(2.0, interner.intern_prov(&p));
        assert_eq!(interner.resolve_prov(s2.prov), Some(p));

        let u = Sample::undefined();
        assert!(!u.defined);
    }

    #[test]
    fn provenance_displays_like_paper_tuples() {
        let p = Provenance::new("op_signal_out", 74, "sense_top");
        assert_eq!(p.to_string(), "(op_signal_out, 74, sense_top)");
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Double(1.5).to_string(), "1.5");
        assert_eq!(Value::Int(-3).to_string(), "-3");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
