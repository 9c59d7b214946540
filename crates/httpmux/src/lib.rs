//! `httpmux` — a deterministic, binary-framed stream-multiplexing layer
//! carried over one TCP connection, in the spirit of HTTP/2 but pared
//! down to what the experiments need:
//!
//! * length-prefixed frames: HEADERS / DATA / SETTINGS / WINDOW_UPDATE /
//!   RST_STREAM / PUSH_PROMISE (no HPACK — header blocks are plain
//!   length-prefixed name/value lists so traces stay inspectable),
//! * odd client / even server stream-ID allocation,
//! * per-stream **and** connection-level flow-control windows with
//!   WINDOW_UPDATE accounting,
//! * a round-robin DATA scheduler that interleaves concurrent streams
//!   fairly in `MAX_FRAME_PAYLOAD` chunks,
//! * server push: PUSH_PROMISE reserves an even stream referencing the
//!   client stream whose response the pushed resource was discovered in.
//!
//! Everything is deterministic: frame layout is fixed big-endian, header
//! fields keep their insertion order, and the scheduler state is plain
//! counters — two runs over identical inputs produce identical byte
//! streams.
//!
//! The connection preface [`PREFACE`] is sent by the client before any
//! frame. It is deliberately not parseable as an HTTP/1.x request line so
//! servers (and the conformance checker) can sniff which protocol family
//! a connection speaks from its first bytes.

// Sim-time is integer nanoseconds; as in `netsim`, a lossy `as f64`
// says why it is there.
#![deny(clippy::cast_precision_loss)]

mod conn;
mod frame;

pub use conn::{MuxConn, MuxError, MuxEvent, Role};
pub use frame::{
    Frame, FrameError, FrameParser, FramePayload, FrameType, DEFAULT_WINDOW, ERR_CANCEL,
    ERR_FLOW_CONTROL, ERR_PROTOCOL, FLAG_ACK, FLAG_END_STREAM, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
    PREFACE, SETTING_ENABLE_PUSH, SETTING_INITIAL_WINDOW,
};

/// True if `bytes` could still turn out to be (or already is) the mux
/// connection preface. `starts_with` for the undecided server case.
pub fn preface_candidate(bytes: &[u8]) -> bool {
    let n = bytes.len().min(PREFACE.len());
    bytes[..n] == PREFACE[..n]
}
