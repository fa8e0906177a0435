//! # driver — the scenario-driven simulation harness
//!
//! Everything needed to run end-to-end `sim::Simulation` workloads from
//! declarative configs:
//!
//! - [`toml`]: a hand-rolled parser for the TOML subset scenario files use
//!   (the environment is offline, so no external parser crates);
//! - [`scenario`]: the registry of named scenario builders (shear pair,
//!   sedimentation, vessel flow, dense fill, packed dense fill, Poiseuille
//!   cell train, random suspension, bifurcation, vessel ladder) shared by
//!   `examples/`, `sim-driver`, and the `benchmark/` workloads. Each
//!   builder composes four shared parts — a tube vessel (coarse surface,
//!   `wall_refine`, boundary-solver options), the §5.1 fill, a checked
//!   cell train and the step-configuration tail — and reads every key of
//!   its config section once, recording the key with its default. A
//!   mistyped value, or a key of the section the build did not read, is an
//!   error;
//! - [`session`]: the run layer — [`Session`] owns a built scenario and
//!   steps it resumably, streaming each step ([`StepRow`]) through
//!   pluggable [`StepSink`] observers (console table, CSV stream, cadence
//!   checkpointer); [`Session::run`] composes all three under
//!   [`RunOptions`] and returns a [`RunReport`];
//! - [`assert`](mod@assert): the `--assert` expressions — a bound on an
//!   aggregate of one per-step CSV column ([`RunAssert`]) or on a farm
//!   counter ([`FarmAssert`]), the checks the CI smokes make;
//! - [`batch`]: the simulation farm — `sim-driver batch <manifest.toml>`
//!   schedules many scenario jobs over the persistent worker pool with
//!   shared immutable caches and a checkpoint-resumable queue;
//! - [`physio`]: the physiology observer — [`PhysioSink`] keeps
//!   apparent viscosity, cell-free layer, and branch hematocrit split
//!   (from [`sim::physio`]) as one row per step.
//!
//! The `sim-driver` binary is the CLI front end:
//!
//! ```text
//! cargo run --release -p driver -- list
//! cargo run --release -p driver -- shear_pair --steps 20
//! cargo run --release -p driver -- vessel_flow --config scenarios/vessel_flow.toml
//! cargo run --release -p driver -- shear_pair --restart target/driver/shear_pair/shear_pair_final.ckpt --steps 10
//! cargo run --release -p driver -- batch scenarios/farm_smoke.toml
//! ```

#![warn(missing_docs)]

pub mod assert;
pub mod batch;
pub mod physio;
pub mod scenario;
pub mod session;
pub mod toml;

pub use assert::{Assert, FarmAssert, RunAssert};
pub use batch::{run_farm, FarmOptions, FarmReport, JobOutcome, JobSpec, JobStatus, Manifest};
pub use physio::{PhysioRow, PhysioSink};
pub use scenario::{build, registry, Built, ScenarioSpec};
pub use session::{
    final_checkpoint_path, CacheTelemetry, CheckpointSink, ConsoleSink, CsvSink, RunOptions,
    RunReport, Session, StepRow, StepSink,
};
pub use toml::{Doc, Value};
