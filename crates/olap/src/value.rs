//! Attribute and measure values.

use std::cmp::Ordering;

/// A dynamically typed value for member attributes and measures.
///
/// The paper's application part attaches "attributes … like population,
/// number of schools" to dimension categories; values of those attributes
/// are numeric or string typed (Section 1: "classical relational attribute
/// information of (in general) numeric or string type").
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Missing value.
    Null,
}

impl Value {
    /// Numeric view of the value, if it has one.
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            Value::Str(_) | Value::Null => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Comparison used by filter predicates: numeric values compare
    /// numerically (`Int` vs `Float` allowed), strings lexicographically,
    /// booleans as false < true. Mixed or null comparisons return `None`.
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Null, _) | (_, Value::Null) => None,
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Bool(true).as_f64(), Some(1.0));
    }

    #[test]
    fn comparisons() {
        use Ordering::*;
        assert_eq!(Value::Int(1).compare(&Value::Float(2.0)), Some(Less));
        assert_eq!(Value::Float(2.0).compare(&Value::Int(2)), Some(Equal));
        assert_eq!(
            Value::Str("a".into()).compare(&Value::Str("b".into())),
            Some(Less)
        );
        assert_eq!(Value::Str("a".into()).compare(&Value::Int(1)), None);
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Bool(false).compare(&Value::Bool(true)), Some(Less));
    }

    #[test]
    fn conversions_and_display() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
