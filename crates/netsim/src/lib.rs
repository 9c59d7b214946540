//! # netsim — a deterministic discrete-event TCP/IP network simulator
//!
//! This crate is the measurement substrate for the reproduction of
//! *"Network Performance Effects of HTTP/1.1, CSS1, and PNG"* (Nielsen,
//! Gettys, et al., SIGCOMM '97). The paper's results are protocol-mechanics
//! results — packet counts and elapsed times governed by TCP connection
//! setup/teardown, slow start, delayed acknowledgements, the Nagle
//! algorithm, and application buffering. `netsim` provides:
//!
//! * a virtual clock and event queue ([`time`], [`sim`]);
//! * point-to-point links with bandwidth, propagation delay, FIFO
//!   serialization, optional modem-style link compression, and a
//!   seeded-deterministic impairment pipeline — loss (uniform or bursty),
//!   jitter, reordering, duplication, scheduled outages and queue bounds
//!   ([`link`], [`modem`], [`impair`]);
//! * a TCP state machine implementing the mechanisms above, including
//!   correct half-close and RST-on-data-after-close semantics ([`tcp`]);
//! * an event-driven application model with a BSD-like socket API
//!   ([`sim::App`], [`sim::Ctx`]);
//! * tcpdump-like packet capture and the statistics the paper's tables
//!   report ([`trace`]);
//! * deterministic time-series telemetry (counters, gauges, streaming
//!   histograms on sim-time ticks) and pcapng export so simulated
//!   connections open in Wireshark/tcptrace ([`telemetry`], [`pcapng`]).
//!
//! Everything is deterministic: the same setup yields byte-identical traces
//! on every run, which makes experiments exactly reproducible.
//!
//! ## Example
//!
//! ```
//! use netsim::{LinkConfig, SockAddr, Simulator};
//! use netsim::sim::{App, AppEvent, Ctx};
//!
//! struct Hello { server: SockAddr, got: usize }
//! impl App for Hello {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
//!         match ev {
//!             AppEvent::Start => { ctx.connect(self.server); }
//!             AppEvent::Connected(s) => { ctx.send(s, b"ping"); }
//!             AppEvent::Readable(s) => {
//!                 self.got += ctx.recv(s, usize::MAX).len();
//!                 ctx.shutdown_write(s);
//!             }
//!             _ => {}
//!         }
//!     }
//! }
//!
//! struct Pong { port: u16 }
//! impl App for Pong {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
//!         match ev {
//!             AppEvent::Start => ctx.listen(self.port),
//!             AppEvent::Readable(s) => {
//!                 let data = ctx.recv(s, usize::MAX);
//!                 ctx.send(s, &data);
//!             }
//!             AppEvent::PeerFin(s) => ctx.shutdown_write(s),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = Simulator::new();
//! let client = sim.add_host("client");
//! let server = sim.add_host("server");
//! sim.add_link(client, server, LinkConfig::lan());
//! sim.install_app(server, Box::new(Pong { port: 80 }));
//! sim.install_app(client, Box::new(Hello { server: SockAddr::new(server, 80), got: 0 }));
//! sim.run_until_idle();
//! assert_eq!(sim.app_mut::<Hello>(client).unwrap().got, 4);
//! let stats = sim.stats(client, server);
//! assert_eq!(stats.syns, 2); // SYN + SYN-ACK
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Sim-time is integer nanoseconds; the float conversions live in
// `time.rs`, and any other lossy `as f64` says why it is there.
#![deny(clippy::cast_precision_loss)]

mod blocks;
pub mod cc;
pub mod fxhash;
pub mod impair;
pub mod json;
pub mod link;
pub mod modem;
pub mod packet;
pub mod pcapng;
pub mod probe;
pub mod queue;
pub mod seq;
pub mod sim;
pub mod tcp;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use cc::{cubic_k_ms, cubic_window, CcVariant, CongestionControl};
pub use impair::{DropReason, ImpairConfig, JitterModel, LossModel, Outage};
pub use link::{Link, LinkCodec, LinkConfig, Transmit};
pub use modem::ModemCompressor;
pub use packet::{HostId, SackBlocks, Segment, SockAddr, TcpFlags, TCP_IP_HEADER_BYTES};
pub use pcapng::{PcapError, PcapPacket};
pub use probe::{
    Diagnosis, FlushCause, ProbeAnalysis, ProbeEventKind, ProbeRecord, ProbeReport, ProbeSink,
    SpanEvent, StallBuckets,
};
pub use sim::{App, AppEvent, Ctx, Simulator, SocketId, SocketStats};
pub use tcp::TcpConfig;
pub use telemetry::{Metric, Scope, TelemetrySink, TelemetrySummary};
pub use time::{SimDuration, SimTime};
pub use trace::{DropRecord, Records, Trace, TraceMode, TraceModeError, TraceRecord, TraceStats};
