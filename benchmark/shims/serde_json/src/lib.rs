//! Signature-only stand-in for `serde_json`: every entry point returns
//! [`Error`]. The benchmark's workloads all use the binary wire codec;
//! a frame that asks for the JSON codec is rejected as a codec error,
//! exactly as a malformed JSON frame would be.

use std::fmt;
use std::io;

use serde::de::DeserializeOwned;
use serde::Serialize;

/// The one error this shim produces.
#[derive(Debug)]
pub struct Error(());

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("JSON codec unavailable: built against the std-backed serde_json shim")
    }
}

impl std::error::Error for Error {}

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

pub fn to_writer<W: io::Write, T: ?Sized + Serialize>(_writer: W, _value: &T) -> Result<()> {
    Err(Error(()))
}

pub fn from_slice<T: DeserializeOwned>(_bytes: &[u8]) -> Result<T> {
    Err(Error(()))
}
