//! # sim — the parallel RBC-flow simulation platform (the paper's core)
//!
//! Orchestrates everything: cells (`vesicle`), the vessel boundary solver
//! (`bie`), contact-free time stepping (`collision`), and far-field
//! summation (`fmm`), with per-component wall-time accounting matching the
//! COL / BIE-solve / BIE-FMM / Other-FMM / Other breakdown of Figs. 4–6.
//!
//! Modules:
//! - [`stepper`]: the time-step algorithm of §2.2;
//! - [`domain`]: vessel state, inlet/outlet ports, boundary conditions;
//! - [`network`]: branched vascular networks with flux-balanced N-port
//!   boundary conditions;
//! - [`physio`]: physiology observables (apparent viscosity, cell-free
//!   layer, branch hematocrit split);
//! - [`fill`]: the vessel-filling procedure of §5.1;
//! - [`timers`]: component timers;
//! - [`checkpoint`]: bit-exact checkpoint/restart for long runs.

#![warn(missing_docs)]

pub mod caches;
pub mod checkpoint;
pub mod domain;
pub mod fill;
pub mod network;
pub mod physio;
pub mod stepper;
pub mod timers;

pub use caches::{refined_surface, surface_cache_stats, SurfaceCacheStats};
pub use checkpoint::{vessel_digest, Checkpoint};
pub use domain::{Port, Vessel};
pub use fill::{cells_from_seeds, fill_seeds, fill_seeds_packed, Seed};
pub use network::{vessel_from_network, NetworkSpec, SegmentSpec};
pub use physio::{
    apparent_viscosity, branch_hematocrit, cell_free_layer, membrane_drag_power, tube_dimensions,
    BranchSplit,
};
pub use stepper::{DtControl, DtState, SimConfig, Simulation, StepStats};
pub use timers::{timed, StepTimers};
