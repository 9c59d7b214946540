//! Frame-level invariants over a multiplexed (`httpmux`) connection's
//! reassembled byte streams: frame well-formedness, per-initiator
//! stream-ID monotonicity, flow-control window accounting, END_STREAM
//! discipline and push legality.
//!
//! The checker is causal in the same sense as the TCP layer: frames are
//! replayed in merged wall-clock order — a DATA frame is judged against
//! the window credit whose WINDOW_UPDATE had *arrived* at its sender by
//! the time the frame departed, never against credit still in flight.

use crate::check::HttpSide;
use crate::{InvariantKind, Report, Violation};
use httpmux::{Frame, FrameParser, FramePayload, DEFAULT_WINDOW, SETTING_INITIAL_WINDOW};
use netsim::{SimTime, SockAddr};
use std::collections::{BTreeMap, BTreeSet};

/// One parsed frame with the times its bytes left the sender and became
/// contiguous at the receiver (`None` when the trace never delivered
/// them, e.g. past a reset).
struct TimedFrame {
    frame: Frame,
    sent: Option<SimTime>,
    recvd: Option<SimTime>,
}

/// Direction index: 0 = client→server, 1 = server→client.
const CLIENT: usize = 0;

pub(crate) fn check_mux(
    key: (SockAddr, SockAddr),
    req_side: HttpSide<'_>,
    resp_side: HttpSide<'_>,
    first_rst: Option<SimTime>,
    report: &mut Report,
) {
    let reset = first_rst.is_some();
    let t_end = req_side
        .deliveries
        .iter()
        .chain(resp_side.deliveries.iter())
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let v = |report: &mut Report, kind, at, detail: String| {
        report.violations.push(Violation {
            kind,
            conn: key,
            at,
            detail,
        });
    };

    let sides = [&req_side, &resp_side];
    let mut frames: [Vec<TimedFrame>; 2] = [Vec::new(), Vec::new()];
    for (dir, side) in sides.iter().enumerate() {
        let mut parser = if dir == CLIENT {
            FrameParser::with_preface()
        } else {
            FrameParser::new()
        };
        let mut feed = side.feed();
        loop {
            let before = parser.buffered() as u64;
            match parser.next_frame() {
                Ok(Some(frame)) => {
                    let after = parser.buffered() as u64;
                    let start = feed.fed - before;
                    let end = feed.fed - after;
                    frames[dir].push(TimedFrame {
                        frame,
                        sent: side.first_sent_at(start),
                        recvd: side.covered_at(end.saturating_sub(1)),
                    });
                }
                Ok(None) => {
                    if feed.more(|chunk| parser.push(chunk)) {
                        continue;
                    }
                    if parser.buffered() > 0 && side.fin_seen && !reset {
                        v(
                            report,
                            InvariantKind::MuxFrameParse,
                            t_end,
                            format!(
                                "{} trailing bytes at clean close of the {} stream",
                                parser.buffered(),
                                dir_name(dir)
                            ),
                        );
                    }
                    break;
                }
                Err(e) => {
                    v(
                        report,
                        InvariantKind::MuxFrameParse,
                        t_end,
                        format!("{} stream does not parse: {e}", dir_name(dir)),
                    );
                    break;
                }
            }
        }
    }

    report.http_requests += frames[CLIENT]
        .iter()
        .filter(|t| matches!(t.frame.payload, FramePayload::Headers(_)))
        .count();

    // --- Merged causal replay. Arrivals credit before same-instant
    // departures spend, mirroring an engine that drains its input before
    // producing output.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Kind {
        Arrive,
        Depart,
    }
    let mut events: Vec<(SimTime, Kind, usize, usize)> = Vec::new();
    for (dir, list) in frames.iter().enumerate() {
        for (i, tf) in list.iter().enumerate() {
            if let Some(at) = tf.sent {
                events.push((at, Kind::Depart, dir, i));
            }
            if let Some(at) = tf.recvd {
                events.push((at, Kind::Arrive, dir, i));
            }
        }
    }
    events.sort();

    // Sender-side flow-control state per direction.
    let mut conn_win = [i64::from(DEFAULT_WINDOW); 2];
    let mut initial_win = [i64::from(DEFAULT_WINDOW); 2];
    let mut stream_win: [BTreeMap<u32, i64>; 2] = [BTreeMap::new(), BTreeMap::new()];
    // Stream bookkeeping.
    let mut highest_odd = 0u32; // client-opened
    let mut highest_even = 0u32; // server-promised
    let mut open_at_server: BTreeSet<u32> = BTreeSet::new();
    let mut done: [BTreeSet<u32>; 2] = [BTreeSet::new(), BTreeSet::new()];
    let mut reset_streams: BTreeSet<u32> = BTreeSet::new();

    for (at, kind, dir, i) in events {
        let tf = &frames[dir][i];
        match kind {
            Kind::Arrive => match &tf.frame.payload {
                FramePayload::WindowUpdate(inc) => {
                    let peer = 1 - dir;
                    if tf.frame.stream == 0 {
                        conn_win[peer] += i64::from(*inc);
                    } else {
                        *stream_win[peer]
                            .entry(tf.frame.stream)
                            .or_insert(initial_win[peer]) += i64::from(*inc);
                    }
                }
                FramePayload::Settings(settings) if tf.frame.flags == 0 => {
                    let peer = 1 - dir;
                    for &(id, value) in settings {
                        if id == SETTING_INITIAL_WINDOW {
                            let delta = i64::from(value) - initial_win[peer];
                            initial_win[peer] = i64::from(value);
                            for w in stream_win[peer].values_mut() {
                                *w += delta;
                            }
                        }
                    }
                }
                FramePayload::Headers(_) if dir == CLIENT => {
                    open_at_server.insert(tf.frame.stream);
                }
                _ => {}
            },
            Kind::Depart => {
                let stream = tf.frame.stream;
                match &tf.frame.payload {
                    FramePayload::Headers(_) => {
                        if dir == CLIENT {
                            if stream % 2 == 0 || stream <= highest_odd {
                                v(
                                    report,
                                    InvariantKind::MuxStreamIdMonotonic,
                                    at,
                                    format!(
                                        "client opened stream {stream} (highest so far \
                                         {highest_odd}; client streams must be odd and \
                                         increasing)"
                                    ),
                                );
                            } else {
                                highest_odd = stream;
                            }
                        }
                        check_not_done(
                            &done[dir],
                            &reset_streams,
                            stream,
                            dir,
                            at,
                            "HEADERS",
                            report,
                            key,
                        );
                        if tf.frame.end_stream() {
                            done[dir].insert(stream);
                        }
                    }
                    FramePayload::Data(payload) => {
                        check_not_done(
                            &done[dir],
                            &reset_streams,
                            stream,
                            dir,
                            at,
                            "DATA",
                            report,
                            key,
                        );
                        if !payload.is_empty() && !reset_streams.contains(&stream) {
                            let w = stream_win[dir].entry(stream).or_insert(initial_win[dir]);
                            *w -= payload.len() as i64;
                            conn_win[dir] -= payload.len() as i64;
                            if *w < 0 {
                                v(
                                    report,
                                    InvariantKind::MuxWindowNonNegative,
                                    at,
                                    format!(
                                        "stream {stream} window driven to {w} by a \
                                         {}-byte DATA frame from the {}",
                                        payload.len(),
                                        dir_name(dir)
                                    ),
                                );
                            }
                            if conn_win[dir] < 0 {
                                v(
                                    report,
                                    InvariantKind::MuxWindowNonNegative,
                                    at,
                                    format!(
                                        "connection window driven to {} by a {}-byte \
                                         DATA frame from the {}",
                                        conn_win[dir],
                                        payload.len(),
                                        dir_name(dir)
                                    ),
                                );
                            }
                        }
                        if tf.frame.end_stream() {
                            done[dir].insert(stream);
                        }
                    }
                    FramePayload::PushPromise { promised, .. } => {
                        if dir == CLIENT {
                            v(
                                report,
                                InvariantKind::MuxPushPromiseInvalid,
                                at,
                                format!("client sent PUSH_PROMISE for stream {promised}"),
                            );
                        } else {
                            if stream % 2 == 0 || !open_at_server.contains(&stream) {
                                v(
                                    report,
                                    InvariantKind::MuxPushPromiseInvalid,
                                    at,
                                    format!(
                                        "PUSH_PROMISE on stream {stream}, which is not an \
                                         open client-initiated stream"
                                    ),
                                );
                            }
                            if promised % 2 != 0 || *promised <= highest_even {
                                v(
                                    report,
                                    InvariantKind::MuxStreamIdMonotonic,
                                    at,
                                    format!(
                                        "server promised stream {promised} (highest so far \
                                         {highest_even}; promised streams must be even and \
                                         increasing)"
                                    ),
                                );
                            } else {
                                highest_even = *promised;
                            }
                        }
                    }
                    FramePayload::RstStream(_) => {
                        reset_streams.insert(stream);
                    }
                    FramePayload::Settings(_) | FramePayload::WindowUpdate(_) => {}
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_not_done(
    done: &BTreeSet<u32>,
    reset_streams: &BTreeSet<u32>,
    stream: u32,
    dir: usize,
    at: SimTime,
    what: &str,
    report: &mut Report,
    key: (SockAddr, SockAddr),
) {
    if done.contains(&stream) && !reset_streams.contains(&stream) {
        report.violations.push(Violation {
            kind: InvariantKind::MuxDataAfterEndStream,
            conn: key,
            at,
            detail: format!(
                "{what} on stream {stream} after the {} signalled END_STREAM",
                dir_name(dir)
            ),
        });
    }
}

fn dir_name(dir: usize) -> &'static str {
    if dir == CLIENT {
        "client"
    } else {
        "server"
    }
}
