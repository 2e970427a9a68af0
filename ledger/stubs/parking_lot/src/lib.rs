//! Empty: `parking_lot` is declared by `hoga-eval` and `hoga-core` but never imported.

#![forbid(unsafe_code)]
