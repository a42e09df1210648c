//! Offline stand-in for `serde_json`: the four entry points `bighouse`
//! calls outside its tests, all of which fail. The benchmark never saves
//! a workload, writes a checkpoint or starts the process backend, so none
//! of them is reached; if one were, the run would end with this error
//! instead of a silently empty document.

use std::fmt;

/// The only error this stand-in produces.
#[derive(Debug)]
pub struct Error;

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("serde_json is stubbed out in the offline benchmark build")
    }
}

impl std::error::Error for Error {}

/// Alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Always fails.
pub fn to_string<T: ?Sized + serde::Serialize>(_value: &T) -> Result<String> {
    Err(Error)
}

/// Always fails.
pub fn to_vec<T: ?Sized + serde::Serialize>(_value: &T) -> Result<Vec<u8>> {
    Err(Error)
}

/// Always fails.
pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T> {
    Err(Error)
}

/// Always fails.
pub fn from_slice<'a, T: serde::Deserialize<'a>>(_v: &'a [u8]) -> Result<T> {
    Err(Error)
}
