//! Three-valued logic (`0`, `1`, `X`) and cell evaluation semantics.
//!
//! The simulator and the equivalence checkers share this single source of
//! truth for what every [`CellKind`] computes.

use crate::cell::CellKind;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Not;

/// A logic value carried by a net: `0`, `1` or unknown (`X`).
///
/// The unknown value models uninitialized state and propagates
/// pessimistically: any operation whose result cannot be determined from the
/// known inputs yields [`Value::X`].
///
/// ```
/// use desync_netlist::Value;
/// assert_eq!(Value::Zero & Value::X, Value::Zero); // 0 dominates AND
/// assert_eq!(Value::One & Value::X, Value::X);
/// assert_eq!(!Value::X, Value::X);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum Value {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown / uninitialized.
    #[default]
    X,
}

impl Value {
    /// Converts a boolean into a known logic value.
    pub fn from_bool(b: bool) -> Self {
        if b {
            Value::One
        } else {
            Value::Zero
        }
    }

    /// Returns `Some(bool)` when the value is known, `None` for `X`.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Value::Zero => Some(false),
            Value::One => Some(true),
            Value::X => None,
        }
    }

    /// Whether the value is the unknown `X`.
    pub fn is_x(self) -> bool {
        matches!(self, Value::X)
    }

    /// Whether the value is a defined (non-`X`) logic level.
    pub fn is_known(self) -> bool {
        !self.is_x()
    }

    /// Three-valued AND of two values.
    pub fn and(self, other: Value) -> Value {
        match (self, other) {
            (Value::Zero, _) | (_, Value::Zero) => Value::Zero,
            (Value::One, Value::One) => Value::One,
            _ => Value::X,
        }
    }

    /// Three-valued OR of two values.
    pub fn or(self, other: Value) -> Value {
        match (self, other) {
            (Value::One, _) | (_, Value::One) => Value::One,
            (Value::Zero, Value::Zero) => Value::Zero,
            _ => Value::X,
        }
    }

    /// Three-valued XOR of two values.
    pub fn xor(self, other: Value) -> Value {
        match (self.to_bool(), other.to_bool()) {
            (Some(a), Some(b)) => Value::from_bool(a ^ b),
            _ => Value::X,
        }
    }

    /// Three-valued NOT.
    #[allow(clippy::should_implement_trait)] // `impl Not` exists below; this is the named form
    pub fn not(self) -> Value {
        match self {
            Value::Zero => Value::One,
            Value::One => Value::Zero,
            Value::X => Value::X,
        }
    }
}

impl Not for Value {
    type Output = Value;
    fn not(self) -> Value {
        Value::not(self)
    }
}

impl std::ops::BitAnd for Value {
    type Output = Value;
    fn bitand(self, rhs: Value) -> Value {
        self.and(rhs)
    }
}

impl std::ops::BitOr for Value {
    type Output = Value;
    fn bitor(self, rhs: Value) -> Value {
        self.or(rhs)
    }
}

impl std::ops::BitXor for Value {
    type Output = Value;
    fn bitxor(self, rhs: Value) -> Value {
        self.xor(rhs)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::from_bool(b)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Value::Zero => '0',
            Value::One => '1',
            Value::X => 'x',
        };
        write!(f, "{c}")
    }
}

/// Evaluates a *combinational* cell on its input values.
///
/// Sequential cells ([`CellKind::Dff`], [`CellKind::LatchLow`],
/// [`CellKind::LatchHigh`], [`CellKind::CElement`]) hold internal state and
/// are evaluated by the simulator instead; calling this function on them
/// returns [`Value::X`].
///
/// ```
/// use desync_netlist::{CellKind, Value};
/// use desync_netlist::value::evaluate;
/// let out = evaluate(CellKind::Nand, &[Value::One, Value::One]);
/// assert_eq!(out, Value::Zero);
/// ```
pub fn evaluate(kind: CellKind, inputs: &[Value]) -> Value {
    match kind {
        CellKind::Const0 => Value::Zero,
        CellKind::Const1 => Value::One,
        CellKind::Buf | CellKind::Delay => inputs.first().copied().unwrap_or(Value::X),
        CellKind::Not => inputs.first().copied().unwrap_or(Value::X).not(),
        CellKind::And => inputs.iter().copied().fold(Value::One, Value::and),
        CellKind::Nand => inputs.iter().copied().fold(Value::One, Value::and).not(),
        CellKind::Or => inputs.iter().copied().fold(Value::Zero, Value::or),
        CellKind::Nor => inputs.iter().copied().fold(Value::Zero, Value::or).not(),
        CellKind::Xor => inputs.iter().copied().fold(Value::Zero, Value::xor),
        CellKind::Xnor => inputs.iter().copied().fold(Value::Zero, Value::xor).not(),
        CellKind::Mux2 => {
            // inputs: [sel, a (sel=0), b (sel=1)]
            let sel = inputs.first().copied().unwrap_or(Value::X);
            let a = inputs.get(1).copied().unwrap_or(Value::X);
            let b = inputs.get(2).copied().unwrap_or(Value::X);
            match sel {
                Value::Zero => a,
                Value::One => b,
                Value::X => {
                    if a == b {
                        a
                    } else {
                        Value::X
                    }
                }
            }
        }
        CellKind::AndOrInv => {
            // AOI22: !((i0 & i1) | (i2 & i3))
            let a = inputs.first().copied().unwrap_or(Value::X);
            let b = inputs.get(1).copied().unwrap_or(Value::X);
            let c = inputs.get(2).copied().unwrap_or(Value::X);
            let d = inputs.get(3).copied().unwrap_or(Value::X);
            a.and(b).or(c.and(d)).not()
        }
        CellKind::Dff | CellKind::LatchLow | CellKind::LatchHigh | CellKind::CElement => Value::X,
    }
}

/// Evaluates a Muller C-element given its previous output.
///
/// The output switches to the common input value when all inputs agree and
/// holds its previous value otherwise. If the previous value is `X` and the
/// inputs do not agree, the result stays `X`.
pub fn evaluate_c_element(inputs: &[Value], previous: Value) -> Value {
    if inputs.is_empty() {
        return previous;
    }
    let first = inputs[0];
    if first.is_known() && inputs.iter().all(|&v| v == first) {
        first
    } else {
        previous
    }
}

/// Evaluates a transparent latch.
///
/// * `transparent_high == true`: the latch is transparent when `enable` is 1.
/// * `transparent_high == false`: transparent when `enable` is 0.
///
/// When opaque (or the enable is `X` and data differs from the stored value)
/// the stored value is retained.
pub fn evaluate_latch(data: Value, enable: Value, stored: Value, transparent_high: bool) -> Value {
    let transparent = match enable.to_bool() {
        Some(e) => e == transparent_high,
        None => {
            // Unknown enable: output is only known if data and state agree.
            return if data == stored { stored } else { Value::X };
        }
    };
    if transparent {
        data
    } else {
        stored
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_truth_table() {
        assert_eq!(!Value::Zero, Value::One);
        assert_eq!(!Value::One, Value::Zero);
        assert_eq!(!Value::X, Value::X);
    }

    #[test]
    fn and_dominance() {
        assert_eq!(Value::Zero & Value::X, Value::Zero);
        assert_eq!(Value::X & Value::Zero, Value::Zero);
        assert_eq!(Value::One & Value::X, Value::X);
        assert_eq!(Value::One & Value::One, Value::One);
    }

    #[test]
    fn or_dominance() {
        assert_eq!(Value::One | Value::X, Value::One);
        assert_eq!(Value::X | Value::One, Value::One);
        assert_eq!(Value::Zero | Value::X, Value::X);
        assert_eq!(Value::Zero | Value::Zero, Value::Zero);
    }

    #[test]
    fn xor_unknown() {
        assert_eq!(Value::One ^ Value::Zero, Value::One);
        assert_eq!(Value::One ^ Value::One, Value::Zero);
        assert_eq!(Value::One ^ Value::X, Value::X);
    }

    #[test]
    fn evaluate_basic_gates() {
        use CellKind::*;
        let t = Value::One;
        let f = Value::Zero;
        assert_eq!(evaluate(And, &[t, t, t]), t);
        assert_eq!(evaluate(And, &[t, f, t]), f);
        assert_eq!(evaluate(Or, &[f, f]), f);
        assert_eq!(evaluate(Or, &[f, t]), t);
        assert_eq!(evaluate(Nand, &[t, t]), f);
        assert_eq!(evaluate(Nor, &[f, f]), t);
        assert_eq!(evaluate(Xor, &[t, f, t]), f);
        assert_eq!(evaluate(Xnor, &[t, f]), f);
        assert_eq!(evaluate(Not, &[t]), f);
        assert_eq!(evaluate(Buf, &[f]), f);
        assert_eq!(evaluate(Const0, &[]), f);
        assert_eq!(evaluate(Const1, &[]), t);
    }

    #[test]
    fn evaluate_mux() {
        let t = Value::One;
        let f = Value::Zero;
        assert_eq!(evaluate(CellKind::Mux2, &[f, t, f]), t);
        assert_eq!(evaluate(CellKind::Mux2, &[t, t, f]), f);
        // Unknown select but agreeing data legs.
        assert_eq!(evaluate(CellKind::Mux2, &[Value::X, t, t]), t);
        assert_eq!(evaluate(CellKind::Mux2, &[Value::X, t, f]), Value::X);
    }

    #[test]
    fn evaluate_aoi22() {
        let t = Value::One;
        let f = Value::Zero;
        assert_eq!(evaluate(CellKind::AndOrInv, &[t, t, f, f]), f);
        assert_eq!(evaluate(CellKind::AndOrInv, &[f, t, f, t]), t);
    }

    #[test]
    fn c_element_behaviour() {
        let t = Value::One;
        let f = Value::Zero;
        assert_eq!(evaluate_c_element(&[t, t], f), t);
        assert_eq!(evaluate_c_element(&[t, f], f), f);
        assert_eq!(evaluate_c_element(&[f, f], t), f);
        assert_eq!(evaluate_c_element(&[t, Value::X], f), f);
    }

    #[test]
    fn latch_transparency() {
        let t = Value::One;
        let f = Value::Zero;
        // transparent-high latch
        assert_eq!(evaluate_latch(t, t, f, true), t);
        assert_eq!(evaluate_latch(t, f, f, true), f);
        // transparent-low latch
        assert_eq!(evaluate_latch(t, f, f, false), t);
        assert_eq!(evaluate_latch(t, t, f, false), f);
        // unknown enable keeps value only when data agrees
        assert_eq!(evaluate_latch(f, Value::X, f, true), f);
        assert_eq!(evaluate_latch(t, Value::X, f, true), Value::X);
    }

    #[test]
    fn display_roundtrip() {
        assert_eq!(Value::Zero.to_string(), "0");
        assert_eq!(Value::One.to_string(), "1");
        assert_eq!(Value::X.to_string(), "x");
    }

    #[test]
    fn sequential_kinds_evaluate_to_x() {
        assert_eq!(evaluate(CellKind::Dff, &[Value::One]), Value::X);
        assert_eq!(evaluate(CellKind::LatchHigh, &[Value::One]), Value::X);
    }
}
