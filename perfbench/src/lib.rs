//! The repository's end-to-end benchmark.
//!
//! Two workloads drive the public APIs of `l2r-eval`/`l2r-datagen`
//! (inputs), `l2r-core` (fit, snapshot, engine, registry) and `l2r-serve`
//! (server, `BinClient`, `frame`).  Each takes the D1 dataset at one scale
//! through the whole pipeline — set-up, fit, snapshot to a validated
//! serving engine, requests on the wire:
//!
//! * `d1-full` — full scale: a transfer-heavy fit, region-path queries;
//! * `d1-xl` — XL scale: a learning-heavy fit, compile-heavy serving,
//!   stitched queries.
//!
//! An untraced run reports end-to-end metrics; a traced run (`--trace 1`)
//! reports per-layer metrics from spans and exact counts taken around the
//! calls into each crate.  Every output is checked; a wrong one counts as a
//! failed operation.

pub mod data;
pub mod host;
pub mod layers;
pub mod measure;
pub mod wire;
pub mod workloads;
