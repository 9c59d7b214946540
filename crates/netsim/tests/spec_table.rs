//! The real TCB against an RFC 793 table written out here, apart from the
//! one `Tcb` enforces on itself. A walk drives client/server pairs through
//! the public API one call at a time and records the state change each
//! call makes, so every recorded edge is one the TCB really took, from its
//! real state. The walk must match the table exactly in both directions,
//! and perturbing the table either way must make the check fire on the
//! real walk: the check would catch a regression in either direction.

use netsim::tcp::{Effects, State, Tcb, TcpConfig, TimerKind};
use netsim::{HostId, Segment, SimTime, SockAddr};
use State::*;

const CLIENT: SockAddr = SockAddr::new(HostId(0), 40_000);
const SERVER: SockAddr = SockAddr::new(HostId(1), 80);
const NOW: SimTime = SimTime::ZERO;

/// A transition (from, to); from `None` is from any state.
type Row = (Option<State>, State);

/// RFC 793 §3.2 as this simulator models it: no LISTEN TCB and no
/// simultaneous open.
const RFC793: [Row; 13] = [
    (Some(SynSent), Established),
    (Some(SynRcvd), Established),
    (Some(Established), FinWait1),
    (Some(Established), CloseWait),
    (Some(CloseWait), LastAck),
    (Some(FinWait1), FinWait2),
    (Some(FinWait1), Closing),
    (Some(FinWait1), TimeWait),
    (Some(FinWait2), TimeWait),
    (Some(Closing), TimeWait),
    (Some(LastAck), Closed),
    (Some(TimeWait), Closed),
    (None, Closed),
];

/// What the walk saw: the state each TCB was born in, each distinct edge
/// a call took, and every segment a call into a Closed TCB sent.
#[derive(Default)]
struct Walk {
    starts: Vec<State>,
    edges: Vec<(State, State)>,
    closed_sends: Vec<Segment>,
}

impl Walk {
    /// Apply `call` to `tcb`, which must leave it in `expect`; returns the
    /// call's effects.
    fn step(
        &mut self,
        tcb: &mut Tcb,
        expect: State,
        call: impl FnOnce(&mut Tcb, &mut Effects),
    ) -> Effects {
        let from = tcb.state();
        let mut fx = Effects::default();
        call(tcb, &mut fx);
        assert_eq!(tcb.state(), expect, "a call from {from:?}");
        if from != expect && !self.edges.contains(&(from, expect)) {
            self.edges.push((from, expect));
        }
        if from == Closed {
            self.closed_sends.extend(fx.segments.iter().cloned());
        }
        fx
    }

    fn deliver(&mut self, tcb: &mut Tcb, expect: State, seg: &Segment) -> Effects {
        self.step(tcb, expect, |t, fx| t.on_segment(NOW, seg, fx))
    }

    fn close(&mut self, tcb: &mut Tcb, expect: State) -> Effects {
        self.step(tcb, expect, |t, fx| t.app_shutdown_write(NOW, fx))
    }

    /// A client and a server TCB through the three-way handshake.
    fn established(&mut self) -> (Tcb, Tcb) {
        let mut cfx = Effects::default();
        let mut c = Tcb::open_active(CLIENT, SERVER, TcpConfig::default(), NOW, &mut cfx);
        let syn = last(&mut cfx);
        let mut sfx = Effects::default();
        let mut s = Tcb::open_passive(SERVER, CLIENT, TcpConfig::default(), &syn, NOW, &mut sfx);
        self.starts.extend([c.state(), s.state()]);
        let ack = last(&mut self.deliver(&mut c, Established, &last(&mut sfx)));
        self.deliver(&mut s, Established, &ack);
        (c, s)
    }
}

fn last(fx: &mut Effects) -> Segment {
    fx.segments.pop().expect("the call sent a segment")
}

/// The deadline and epoch of the latest `kind` timer armed in `fx`.
fn timer(fx: &Effects, kind: TimerKind) -> (SimTime, u64) {
    let &(_, at, epoch) = fx.timers.iter().rev().find(|t| t.0 == kind).unwrap();
    (at, epoch)
}

/// Every scenario, in which each call takes at most one edge.
fn walk() -> Walk {
    let mut w = Walk::default();

    // Graceful close, the client first; TIME_WAIT ends on its timer.
    let (mut c, mut s) = w.established();
    let fin_c = last(&mut w.close(&mut c, FinWait1));
    let ack_s = last(&mut w.deliver(&mut s, CloseWait, &fin_c));
    w.deliver(&mut c, FinWait2, &ack_s);
    let fin_s = last(&mut w.close(&mut s, LastAck));
    let mut cfx = w.deliver(&mut c, TimeWait, &fin_s);
    w.deliver(&mut s, Closed, &last(&mut cfx));
    let (at, epoch) = timer(&cfx, TimerKind::TimeWait);
    w.step(&mut c, Closed, |t, fx| {
        t.on_timer(at, TimerKind::TimeWait, epoch, fx)
    });

    // Simultaneous close: the FINs cross, each side passes through CLOSING.
    let (mut c, mut s) = w.established();
    let fin_c = last(&mut w.close(&mut c, FinWait1));
    let fin_s = last(&mut w.close(&mut s, FinWait1));
    let ack_c = last(&mut w.deliver(&mut c, Closing, &fin_s));
    let ack_s = last(&mut w.deliver(&mut s, Closing, &fin_c));
    w.deliver(&mut c, TimeWait, &ack_s);
    w.deliver(&mut s, TimeWait, &ack_c);

    // The server's data is lost and its FIN arrives out of order; the
    // resent data also acks the client's FIN, so the client goes from
    // FIN_WAIT_1 straight to TIME_WAIT.
    let (mut c, mut s) = w.established();
    let mut sfx = w.step(&mut s, Established, |t, fx| {
        t.app_send(NOW, b"abc", fx);
    });
    let mut finfx = w.close(&mut s, FinWait1);
    let fin_s = last(&mut finfx);
    assert!(
        fin_s.flags.fin && !fin_s.has_payload(),
        "a bare FIN follows the data"
    );
    sfx.timers.append(&mut finfx.timers);
    let fin_c = last(&mut w.close(&mut c, FinWait1));
    w.deliver(&mut c, FinWait1, &fin_s);
    sfx.timers
        .append(&mut w.deliver(&mut s, Closing, &fin_c).timers);
    let (_, epoch) = timer(&sfx, TimerKind::Rto);
    let resent = last(&mut w.step(&mut s, Closing, |t, fx| {
        t.on_timer(NOW, TimerKind::Rto, epoch, fx)
    }));
    w.deliver(&mut c, TimeWait, &resent);

    // Teardown by abort from CLOSE_WAIT and by the RST from FIN_WAIT_1;
    // then a segment, a write, a close and the stale retransmission timer
    // reach the Closed TCBs.
    let (mut c, mut s) = w.established();
    let mut cfx = w.close(&mut c, FinWait1);
    let fin_c = last(&mut cfx);
    w.deliver(&mut s, CloseWait, &fin_c);
    let rst = last(&mut w.step(&mut s, Closed, |t, fx| t.app_abort(fx)));
    assert!(rst.flags.rst);
    w.deliver(&mut c, Closed, &rst);
    w.deliver(&mut s, Closed, &fin_c);
    w.step(&mut s, Closed, |t, fx| {
        t.app_send(NOW, b"late", fx);
    });
    w.step(&mut s, Closed, |t, fx| t.app_close(NOW, fx));
    let (at, epoch) = timer(&cfx, TimerKind::Rto);
    w.step(&mut c, Closed, |t, fx| {
        t.on_timer(at, TimerKind::Rto, epoch, fx)
    });
    w
}

/// Where the walk and `table` disagree: an edge no row allows, or a row
/// no edge takes. An edge takes its own state's row if there is one, and
/// the from-any row otherwise.
fn check(w: &Walk, table: &[Row]) -> Vec<String> {
    let row = |r: Row| table.iter().position(|&t| t == r);
    let mut taken = vec![false; table.len()];
    let mut diags = Vec::new();
    for &(from, to) in &w.edges {
        match row((Some(from), to)).or_else(|| row((None, to))) {
            Some(i) => taken[i] = true,
            None => diags.push(format!("undeclared transition {from:?} -> {to:?}")),
        }
    }
    for (&(from, to), _) in table.iter().zip(taken).filter(|(_, t)| !t) {
        let from = from.map_or("Any".to_string(), |f| format!("{f:?}"));
        diags.push(format!(
            "required transition {from} -> {to:?} is never taken"
        ));
    }
    diags
}

#[test]
fn real_tcb_matches_the_spec_table() {
    let diags = check(&walk(), &RFC793);
    assert!(diags.is_empty(), "the TCB diverges from RFC 793: {diags:?}");
}

#[test]
fn real_tcb_implements_every_exact_transition() {
    // Spot-check the walk itself, not just the diff: every transition
    // with a from-state of its own, teardown from two states that have
    // none, both birth states, and a silent Closed TCB.
    let w = walk();
    for (from, to) in RFC793.iter().filter_map(|&(f, t)| Some((f?, t))) {
        assert!(
            w.edges.contains(&(from, to)),
            "missing edge {from:?} -> {to:?}"
        );
    }
    for from in [CloseWait, FinWait1] {
        assert!(
            w.edges.contains(&(from, Closed)),
            "missing teardown from {from:?}"
        );
    }
    assert!(w.starts.contains(&SynSent) && w.starts.contains(&SynRcvd));
    assert!(w.starts.iter().all(|s| matches!(s, SynSent | SynRcvd)));
    assert!(
        w.closed_sends.is_empty(),
        "a Closed TCB sent {:?}",
        w.closed_sends
    );
}

#[test]
fn removing_a_transition_from_the_table_fires_on_real_tcp() {
    // Teeth: with FinWait2 -> TimeWait dropped from the table, the edge
    // the real TCB takes is undeclared, and it is the only complaint.
    let pruned: Vec<Row> = RFC793
        .into_iter()
        .filter(|&r| r != (Some(FinWait2), TimeWait))
        .collect();
    assert_eq!(
        check(&walk(), &pruned),
        ["undeclared transition FinWait2 -> TimeWait"]
    );
}

#[test]
fn requiring_an_unimplemented_transition_fires_on_real_tcp() {
    // Teeth the other way: close from SYN-RECEIVED is not modelled, so a
    // table that requires it names that row and nothing else.
    let mut extended = RFC793.to_vec();
    extended.push((Some(SynRcvd), FinWait1));
    assert_eq!(
        check(&walk(), &extended),
        ["required transition SynRcvd -> FinWait1 is never taken"]
    );
}
