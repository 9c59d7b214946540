//! # httpipe-core — the experiment framework
//!
//! Reproduces every table and figure of *"Network Performance Effects of
//! HTTP/1.1, CSS1, and PNG"* (SIGCOMM '97) on top of the workspace's
//! substrates: the [`netsim`] TCP simulator, the [`httpclient`] robot, the
//! [`httpserver`] origin, the [`flate`] DEFLATE implementation and the
//! [`webcontent`] Microscape workload.
//!
//! The crate is organized around *cells*: one deterministic simulation of
//! a (network environment × server profile × protocol setup × scenario)
//! combination, measured exactly as the paper measures (packets each way,
//! wire bytes, elapsed seconds, header-overhead percentage). The
//! [`experiments`] module groups cells into the paper's tables; the
//! `repro` binary in `httpipe-bench` prints them.
//!
//! ```no_run
//! use httpipe_core::prelude::*;
//!
//! let cell = run_matrix_cell(
//!     NetEnv::Lan,
//!     ServerKind::Apache,
//!     ProtocolSetup::Http11Pipelined,
//!     Scenario::Revalidate,
//! );
//! assert_eq!(cell.validated, 43);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod env;
pub mod experiments;
pub mod gate;
pub mod harness;
pub mod result;

/// Convenient re-exports for examples and benches.
pub mod prelude {
    pub use crate::env::NetEnv;
    pub use crate::harness::{
        custom_store, matrix_spec, microscape_store, primed_cache, run_matrix_cell, run_spec,
        CellSpec, ProtocolSetup, RunOutput, Scenario,
    };
    pub use crate::result::{CellResult, Table};
    pub use httpclient::{
        ClientCache, ClientConfig, HttpClient, ProtocolMode, RequestStyle, RevalidationStyle,
        Workload,
    };
    pub use httpserver::{Entity, HttpServer, ServerConfig, ServerKind, SiteStore};
    pub use netsim::{LinkConfig, SimDuration, Simulator, SockAddr};
}
