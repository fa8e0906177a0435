//! Offline stand-in for `rayon`.
//!
//! Only the data-parallel helpers in [`par`] are provided: a persistent
//! pool of parked worker threads pulling indices from an atomic counter.
//! Hot paths (the FMM evaluation engine, direct N-body, the step's
//! per-cell stages) call these helpers explicitly; serial code uses plain
//! `std` iterators.

pub mod par;
