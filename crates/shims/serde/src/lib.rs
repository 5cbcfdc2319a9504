//! Minimal in-workspace stand-in for `serde` (offline build).
//!
//! The real serde separates the data model from the format through a visitor-based
//! `Serializer`/`Deserializer` pair. This workspace only ever serialises to JSON, so
//! the shim collapses the data model to a [`jsonlite::Json`] tree:
//!
//! * [`Serialize`] — `to_value(&self) -> Json`
//! * [`Deserialize`] — `from_value(&Json) -> Result<Self, DeError>`
//!
//! and carries the text entry points itself: [`to_string`], [`to_string_pretty`],
//! [`from_str`].
//!
//! The derive macros (`#[derive(Serialize, Deserialize)]`, re-exported from the
//! `serde_derive` shim) generate impls that follow serde's default encodings: structs
//! as objects, newtype structs transparently, tuple structs as arrays, and enums
//! externally tagged (`"Variant"` for unit variants, `{"Variant": ...}` otherwise).
//!
//! Map keys are serialised through their JSON value: strings directly, numbers via
//! their decimal rendering — matching `serde_json`'s integer-keyed-map behaviour.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::Arc;

pub use jsonlite as json;
pub use jsonlite::Json;
pub use serde_derive::{Deserialize, Serialize};

/// Error produced when a JSON value cannot be decoded into the target type.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError {
    /// Human-readable description of the mismatch.
    pub message: String,
}

impl DeError {
    /// Build an error from any displayable message.
    pub fn custom(msg: impl fmt::Display) -> DeError {
        DeError { message: msg.to_string() }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deserialization error: {}", self.message)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves as a JSON value.
pub trait Serialize {
    /// The JSON encoding of `self`.
    fn to_value(&self) -> Json;
}

/// Types that can be rebuilt from a JSON value.
pub trait Deserialize: Sized {
    /// Decode from a JSON value.
    fn from_value(v: &Json) -> Result<Self, DeError>;
}

/// Serialise a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    value.to_value().compact()
}

/// Serialise a value to pretty (two-space indented) JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> String {
    value.to_value().pretty()
}

/// Parse a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, DeError> {
    T::from_value(&Json::parse(s).map_err(DeError::custom)?)
}

// --- helpers used by the generated derive code ---

static NULL: Json = Json::Null;

/// Fetch a struct field from an object, yielding `null` when the key is absent (so
/// `Option` fields tolerate omission).
pub fn field<'a>(v: &'a Json, name: &str) -> Result<&'a Json, DeError> {
    match v {
        Json::Obj(_) => Ok(v.get(name).unwrap_or(&NULL)),
        other => {
            Err(DeError::custom(format!("expected an object with field {name:?}, got {other:?}")))
        }
    }
}

/// Decode an externally-tagged enum payload: a single-key object `{"Variant": inner}`.
pub fn variant(v: &Json) -> Option<(&str, &Json)> {
    match v {
        Json::Obj(pairs) if pairs.len() == 1 => Some((pairs[0].0.as_str(), &pairs[0].1)),
        _ => None,
    }
}

/// Decode a fixed-arity tuple payload.
pub fn tuple(v: &Json, arity: usize) -> Result<&[Json], DeError> {
    match v.as_arr() {
        Some(items) if items.len() == arity => Ok(items),
        Some(items) => {
            Err(DeError::custom(format!("expected a {arity}-tuple, got {} elements", items.len())))
        }
        None => Err(DeError::custom(format!("expected a {arity}-tuple array, got {v:?}"))),
    }
}

/// Build a single-key object (externally-tagged enum payload).
pub fn tagged(tag: &str, inner: Json) -> Json {
    Json::Obj(vec![(tag.to_string(), inner)])
}

fn key_to_string<K: Serialize>(k: &K) -> String {
    match k.to_value() {
        Json::Str(s) => s,
        other => other.compact(),
    }
}

fn key_from_string<K: Deserialize>(s: &str) -> Result<K, DeError> {
    // Try the string directly first, then its JSON reading (covers numeric and
    // newtype-over-integer keys).
    if let Ok(k) = K::from_value(&Json::Str(s.to_string())) {
        return Ok(k);
    }
    let parsed = Json::parse(s).map_err(|e| DeError::custom(format!("bad map key {s:?}: {e}")))?;
    K::from_value(&parsed)
}

// --- primitive impls ---

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Json) -> Result<Self, DeError> {
                // `as` saturates and truncates; accept only numbers the widening
                // cast reproduces exactly (integral, finite) and `$t` can hold.
                let exact = match v {
                    Json::Num(n) if (*n as i128) as f64 == *n => <$t>::try_from(*n as i128).ok(),
                    _ => None,
                };
                exact.ok_or_else(|| DeError::custom(format!(
                    concat!("expected ", stringify!($t), ", got {:?}"), v
                )))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Json) -> Result<Self, DeError> {
                match v {
                    Json::Num(n) => Ok(*n as $t),
                    // jsonlite renders non-finite numbers as null; accept it back
                    Json::Null => Ok(<$t>::NAN),
                    other => Err(DeError::custom(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"), other
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        v.as_bool().ok_or_else(|| DeError::custom(format!("expected bool, got {v:?}")))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom(format!("expected string, got {v:?}")))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        let s = v.as_str().ok_or_else(|| DeError::custom("expected single-char string"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(DeError::custom(format!("expected single-char string, got {s:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Json {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Json {
        match self {
            Some(v) => v.to_value(),
            None => Json::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Json {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        v.as_arr()
            .ok_or_else(|| DeError::custom(format!("expected array, got {v:?}")))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + fmt::Debug, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| DeError::custom(format!("expected {N}-element array, got {len}")))
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn to_value(&self) -> Json {
        Json::Arr(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        Ok(items.into_iter().collect())
    }
}

impl<T: Serialize + Ord + Hash> Serialize for HashSet<T> {
    fn to_value(&self) -> Json {
        // sort for deterministic output
        let mut items: Vec<&T> = self.iter().collect();
        items.sort();
        Json::Arr(items.into_iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize + Eq + Hash> Deserialize for HashSet<T> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        let items: Vec<T> = Deserialize::from_value(v)?;
        Ok(items.into_iter().collect())
    }
}

impl<K: Serialize + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (key_to_string(k), v.to_value())).collect())
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        match v {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_value(val)?)))
                .collect(),
            other => Err(DeError::custom(format!("expected object, got {other:?}"))),
        }
    }
}

impl<K: Serialize + Ord + Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn to_value(&self) -> Json {
        // sort keys for deterministic output
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Json::Obj(entries.into_iter().map(|(k, v)| (key_to_string(k), v.to_value())).collect())
    }
}

impl<K: Deserialize + Eq + Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        match v {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, val)| Ok((key_from_string(k)?, V::from_value(val)?)))
                .collect(),
            other => Err(DeError::custom(format!("expected object, got {other:?}"))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident . $idx:tt),+ ; $arity:expr)),+ $(,)?) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Json {
                Json::Arr(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Json) -> Result<Self, DeError> {
                let items = tuple(v, $arity)?;
                Ok(($($name::from_value(&items[$idx])?,)+))
            }
        }
    )+};
}

impl_tuple!(
    (A.0; 1),
    (A.0, B.1; 2),
    (A.0, B.1, C.2; 3),
    (A.0, B.1, C.2, D.3; 4),
);

impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Json {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        Vec::<T>::from_value(v).map(Arc::from)
    }
}

impl Serialize for Json {
    fn to_value(&self) -> Json {
        self.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Json) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for () {
    fn to_value(&self) -> Json {
        Json::Null
    }
}

impl Deserialize for () {
    fn from_value(_: &Json) -> Result<Self, DeError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
        assert_eq!(Option::<u32>::from_value(&Json::Null).unwrap(), None);
        assert_eq!(Option::<u32>::from_value(&Json::Num(7.0)).unwrap(), Some(7));
        assert!(bool::from_value(&Json::Num(1.0)).is_err());
    }

    #[test]
    fn collections_roundtrip() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_value(&v.to_value()).unwrap(), v);
        let mut m = HashMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2u32);
        assert_eq!(HashMap::<String, u32>::from_value(&m.to_value()).unwrap(), m);
        let mut im = BTreeMap::new();
        im.insert(5u64, "five".to_string());
        assert_eq!(BTreeMap::<u64, String>::from_value(&im.to_value()).unwrap(), im);
    }

    #[test]
    fn integer_decode_rejects_what_the_type_cannot_hold() {
        assert!(from_str::<u64>("-3").is_err());
        assert!(from_str::<usize>("1.5").is_err());
        assert!(from_str::<u64>("1e30").is_err());
        assert!(from_str::<u8>("300").is_err());
        // the boundaries themselves still decode
        assert_eq!(from_str::<u8>("255").unwrap(), 255);
        assert_eq!(from_str::<i8>("-128").unwrap(), -128);
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
    }

    #[test]
    fn roundtrip_via_strings() {
        let v = vec![1u64, 2, 3];
        let s = to_string(&v);
        assert_eq!(s, "[1,2,3]");
        assert_eq!(from_str::<Vec<u64>>(&s).unwrap(), v);
        assert!(from_str::<Vec<u64>>("{nope").is_err());
    }

    #[test]
    fn bytes_as_plain_vector() {
        let b: Arc<[u8]> = Arc::from(vec![0u8, 255]);
        assert_eq!(b.to_value(), Json::Arr(vec![Json::Num(0.0), Json::Num(255.0)]));
        assert_eq!(Arc::<[u8]>::from_value(&b.to_value()).unwrap(), b);
    }

    #[test]
    fn missing_field_reads_as_null() {
        let obj = Json::Obj(vec![("present".into(), Json::Num(1.0))]);
        assert!(field(&obj, "absent").unwrap().is_null());
        assert!(field(&Json::Num(3.0), "x").is_err());
    }
}
