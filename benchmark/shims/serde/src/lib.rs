//! Signature-only stand-in for `serde`.
//!
//! The benchmark drives the runtime over its default binary codec, which
//! is hand-rolled and never touches serde; the crates still name
//! `Serialize`/`Deserialize` in derives and bounds, so those names must
//! resolve. Every method body here is unreachable from a binary-codec
//! run: `serde_json` (the only caller) reports an error before calling
//! any of them.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

const UNSUPPORTED: &str = "serde shim: only the binary codec is available in this build";

/// A data format that can serialize a value.
pub trait Serializer: Sized {
    /// Output of a successful serialization.
    type Ok;
    /// Error of a failed one.
    type Error;
}

/// A value that can be serialized.
pub trait Serialize {
    /// Never reached in this build; see the crate docs.
    fn serialize<S: Serializer>(&self, _serializer: S) -> Result<S::Ok, S::Error> {
        unimplemented!("{UNSUPPORTED}")
    }
}

/// A data format that can deserialize a value.
pub trait Deserializer<'de>: Sized {
    /// Error of a failed deserialization.
    type Error;
}

/// A value that can be deserialized.
pub trait Deserialize<'de>: Sized {
    /// Never reached in this build; see the crate docs.
    fn deserialize<D: Deserializer<'de>>(_deserializer: D) -> Result<Self, D::Error> {
        unimplemented!("{UNSUPPORTED}")
    }
}

/// `serde::de`.
pub mod de {
    pub use super::{Deserialize, Deserializer};

    /// A value deserializable from any lifetime.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}
}

// The container impls the crates' hand-written adapters call through.
impl<T: Serialize> Serialize for [T] {}
impl<T: Serialize> Serialize for Vec<T> {}
impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {}
