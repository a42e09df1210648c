//! Offline stand-in for `serde`.
//!
//! `bighouse` derives `Serialize`/`Deserialize` on its configuration and
//! report types so the CLI, checkpoints and the process backend can move
//! them as JSON. None of that is on the benchmark's path, so here the two
//! traits are markers that every type implements and the derives expand to
//! nothing. Together with the `serde_json` stand-in this type-checks the
//! whole library; anything that would really serialize fails at run time.

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Marker: every type "serializes".
pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

/// Marker: every type "deserializes".
pub trait Deserialize<'de>: Sized {}
impl<T> Deserialize<'_> for T {}

/// Deserialization helpers.
pub mod de {
    /// Marker: every type "deserializes" without borrowing.
    pub trait DeserializeOwned {}
    impl<T> DeserializeOwned for T {}
}
