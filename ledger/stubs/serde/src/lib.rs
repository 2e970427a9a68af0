//! Offline stand-in for `serde`: the two trait names plus no-op derives.
//! The workspace has no serializer crate, so nothing ever calls through
//! these traits.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker with the real trait's name; the no-op derive does not implement it.
pub trait Serialize {}

/// Marker with the real trait's name; the no-op derive does not implement it.
pub trait Deserialize<'de> {}
