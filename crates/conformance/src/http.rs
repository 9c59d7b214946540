//! HTTP-level invariants over the reassembled byte streams of one
//! connection: message framing, pipelining order, response/request
//! causality and persistent-connection rules.

use crate::check::HttpSide;
use crate::{InvariantKind, Report, Violation};
use httpwire::{RequestParser, ResponseParser};
use netsim::{SimTime, SockAddr};

/// Byte offsets one parsed message occupies in its stream.
struct Span {
    start: u64,
    end: u64,
}

pub(crate) fn check_http(
    key: (SockAddr, SockAddr),
    req_side: HttpSide<'_>,
    resp_side: HttpSide<'_>,
    first_rst: Option<SimTime>,
    report: &mut Report,
) {
    if req_side.stream.is_empty() && resp_side.stream.is_empty() {
        return; // e.g. a SYN answered by a kernel RST: nothing to parse
    }
    let reset = first_rst.is_some();
    let v = |report: &mut Report, kind, at, detail: String| {
        report.violations.push(Violation {
            kind,
            conn: key,
            at,
            detail,
        });
    };
    let t_end = req_side
        .deliveries
        .iter()
        .chain(resp_side.deliveries.iter())
        .map(|&(t, _)| t)
        .max()
        .unwrap_or(SimTime::ZERO);

    // --- Requests: the client→server stream must parse cleanly. ---
    let mut reqs: Vec<(httpwire::Request, Span)> = Vec::new();
    let mut rp = RequestParser::new();
    let mut feed = req_side.feed();
    loop {
        let before = rp.buffered() as u64;
        match rp.next() {
            Ok(Some(req)) => {
                let after = rp.buffered() as u64;
                reqs.push((
                    req,
                    Span {
                        start: feed.fed - before,
                        end: feed.fed - after,
                    },
                ));
            }
            Ok(None) => {
                if !feed.more(|chunk| rp.push(chunk)) {
                    break;
                }
            }
            Err(e) => {
                v(
                    report,
                    InvariantKind::HttpRequestParse,
                    t_end,
                    format!("request stream does not parse: {e:?}"),
                );
                return; // offsets are meaningless past a parse error
            }
        }
    }
    if rp.buffered() > 0 && req_side.fin_seen && !reset {
        v(
            report,
            InvariantKind::StreamLeftover,
            t_end,
            format!("{} unparsed request bytes at clean close", rp.buffered()),
        );
    }
    report.http_requests += reqs.len();

    // --- Responses: parse with each request's method expectation so
    // HEAD/304 bodyless framing is honoured. ---
    let mut resps: Vec<(httpwire::Response, Span)> = Vec::new();
    let mut pp = ResponseParser::new();
    for (req, _) in &reqs {
        pp.expect(req.method);
    }
    let mut feed = resp_side.feed();
    let mut parse_err = false;
    loop {
        let before = pp.buffered() as u64;
        match pp.next() {
            Ok(Some(resp)) => {
                let after = pp.buffered() as u64;
                resps.push((
                    resp,
                    Span {
                        start: feed.fed - before,
                        end: feed.fed - after,
                    },
                ));
            }
            Ok(None) => {
                if feed.more(|chunk| pp.push(chunk)) {
                    continue;
                }
                if pp.buffered() == 0 {
                    break;
                }
                // Trailing bytes that are not a complete response. On a
                // cleanly closed stream, try close-delimited framing;
                // whatever still remains is a violation.
                if resp_side.fin_seen && !reset {
                    let before = pp.buffered() as u64;
                    match pp.finish() {
                        Ok(Some(resp)) => {
                            let after = pp.buffered() as u64;
                            resps.push((
                                resp,
                                Span {
                                    start: feed.fed - before,
                                    end: feed.fed - after,
                                },
                            ));
                            if pp.buffered() == 0 {
                                break;
                            }
                        }
                        Ok(None) => {}
                        Err(e) => {
                            v(
                                report,
                                InvariantKind::HttpResponseParse,
                                t_end,
                                format!("response stream does not parse at close: {e:?}"),
                            );
                            parse_err = true;
                        }
                    }
                    if !parse_err && pp.buffered() > 0 {
                        v(
                            report,
                            InvariantKind::StreamLeftover,
                            t_end,
                            format!("{} unparsed response bytes at clean close", pp.buffered()),
                        );
                    }
                }
                break;
            }
            Err(e) => {
                v(
                    report,
                    InvariantKind::HttpResponseParse,
                    t_end,
                    format!("response stream does not parse: {e:?}"),
                );
                break;
            }
        }
    }

    if resps.len() > reqs.len() {
        v(
            report,
            InvariantKind::PipelineOrder,
            t_end,
            format!(
                "{} responses for {} requests on one connection",
                resps.len(),
                reqs.len()
            ),
        );
    }

    // --- Causality: response i departs only after request i arrived. ---
    for (i, (_, rspan)) in resps.iter().enumerate() {
        let Some((_, qspan)) = reqs.get(i) else { break };
        let sent = resp_side.first_sent_at(rspan.start);
        let req_done = req_side.covered_at(qspan.end.saturating_sub(1));
        if let (Some(sent), Some(req_done)) = (sent, req_done) {
            if sent < req_done {
                v(
                    report,
                    InvariantKind::ResponseBeforeRequest,
                    sent,
                    format!(
                        "response {i} first byte departed {sent}, before its request \
                         completed at {req_done}"
                    ),
                );
            }
        }
    }

    // --- Persistent connections: after a `Connection: close` response
    // has arrived, the client may not start another request. ---
    let mut close_at: Option<SimTime> = None;
    for (resp, rspan) in &resps {
        if resp.headers.has_token("connection", "close") {
            if let Some(t) = resp_side.covered_at(rspan.end.saturating_sub(1)) {
                close_at = Some(close_at.map_or(t, |c: SimTime| c.min(t)));
            }
        }
    }
    if let Some(close_at) = close_at {
        for (i, (_, qspan)) in reqs.iter().enumerate() {
            if let Some(sent) = req_side.first_sent_at(qspan.start) {
                if sent > close_at {
                    v(
                        report,
                        InvariantKind::ConnectionCloseRespected,
                        sent,
                        format!(
                            "request {i} departed {sent}, after a Connection: close \
                             response arrived at {close_at}"
                        ),
                    );
                }
            }
        }
    }
}
