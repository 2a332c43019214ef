//! Application payloads.
//!
//! The paper's `m` is an opaque application message. [`Payload`] wraps
//! [`bytes::Bytes`] so that the many copies a broadcast protocol necessarily
//! makes (outbox, `MSG` set, `ACK` piggyback — see DESIGN.md D1) are
//! reference-counted rather than deep-cloned.

use bytes::Bytes;
use std::fmt;

/// An opaque application message (the paper's `m`).
///
/// Cloning is `O(1)` (atomic refcount bump). Equality/hash are by content,
/// which matches the paper's treatment of `m` as a value.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload(Bytes);

impl Payload {
    /// Creates an empty payload.
    pub fn empty() -> Self {
        Payload(Bytes::new())
    }

    /// Wraps existing bytes without copying.
    pub fn from_bytes(bytes: Bytes) -> Self {
        Payload(bytes)
    }

    /// Copies a byte slice into a payload.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Payload(Bytes::copy_from_slice(data))
    }

    /// Creates a payload from a UTF-8 string (copies).
    #[allow(clippy::should_implement_trait)] // infallible, unlike FromStr
    pub fn from_str(s: &str) -> Self {
        Payload(Bytes::copy_from_slice(s.as_bytes()))
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload has no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read-only view of the bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// The underlying `Bytes` (cheap clone).
    pub fn bytes(&self) -> Bytes {
        self.0.clone()
    }

    /// Lossy UTF-8 rendering, for examples and logs.
    pub fn as_text(&self) -> String {
        String::from_utf8_lossy(&self.0).into_owned()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() <= 24 {
            if let Ok(s) = std::str::from_utf8(&self.0) {
                return write!(f, "Payload({s:?})");
            }
        }
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

impl From<&str> for Payload {
    fn from(s: &str) -> Self {
        Payload::from_str(s)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Bytes::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Self {
        Payload::copy_from_slice(v)
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_shallow_and_equal() {
        let p = Payload::from("hello");
        let q = p.clone();
        assert_eq!(p, q);
        assert_eq!(q.as_slice(), b"hello");
    }

    #[test]
    fn equality_is_by_content() {
        let a = Payload::from("x");
        let b = Payload::copy_from_slice(b"x");
        assert_eq!(a, b);
        assert_ne!(a, Payload::from("y"));
    }

    #[test]
    fn empty_payload() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
    }

    #[test]
    fn text_roundtrip() {
        let p = Payload::from("URB says hi");
        assert_eq!(p.as_text(), "URB says hi");
    }

    #[test]
    fn conversions() {
        let v: Payload = vec![1u8, 2, 3].into();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        let s: Payload = (&b"ab"[..]).into();
        assert_eq!(s.len(), 2);
    }
}
