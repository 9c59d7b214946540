//! Pluggable congestion control for the TCP state machine.
//!
//! The TCB in [`crate::tcp`] owns transmission, retransmission and RTT
//! estimation; *when* the window opens or collapses is delegated to a
//! [`CongestionControl`] implementation selected by
//! [`crate::TcpConfig::cc`]. Four variants are provided:
//!
//! * [`Reno`] — slow start, congestion avoidance and fast retransmit on
//!   the third duplicate ACK (RFC 5681/2001), operation-for-operation
//!   identical to the behavior previously hard-coded in the TCB (gated
//!   by digest-equality tests);
//! * [`NewReno`] — Reno plus partial-ACK recovery (RFC 6582): a partial
//!   ACK during fast recovery retransmits the next hole instead of
//!   waiting for an RTO, and recovery ends only once the `recover`
//!   point is cumulatively acknowledged;
//! * [`Sack`] — NewReno's recovery driven by a scoreboard of
//!   selectively-acknowledged ranges (RFC 2018/6675): the receiver
//!   reports out-of-order spans in [`SackBlocks`] and the sender never
//!   retransmits an octet the peer already holds;
//! * [`Cubic`] — a CUBIC-style window growth function on integer
//!   sim-time (RFC 8312 shape: β = 0.7, C = 0.4), ack-clocked so growth
//!   per ACK never exceeds one MSS.
//!
//! NewReno and SACK perform RFC 6582 window inflation: entering fast
//! recovery sets `cwnd = ssthresh + 3·MSS`, each further duplicate ACK
//! inflates by one MSS (a segment has left the network), and a partial
//! ACK deflates by the newly-acknowledged amount before adding one MSS
//! back, so new data keeps flowing while holes are filled.
//!
//! Deliberate simplifications, documented here once: SACK recovery uses
//! NewReno-style inflation rather than RFC 6675 pipe accounting; SACK
//! blocks are reported in ascending order rather than most-recent-first;
//! CUBIC omits the TCP-friendly (Reno-tracking) region. None of these
//! affect the invariants the conformance checker enforces, and all keep
//! the machine fully deterministic.

use crate::packet::SackBlocks;
use crate::seq::Seq;
use crate::time::SimTime;

/// Which congestion-control algorithm an endpoint runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum CcVariant {
    /// Slow start + fast retransmit, the seed behavior (RFC 5681).
    #[default]
    Reno,
    /// Reno with partial-ACK hole recovery (RFC 6582).
    NewReno,
    /// Scoreboard-driven selective retransmission (RFC 2018/6675).
    Sack,
    /// Cubic window growth on sim-time (RFC 8312 shape).
    Cubic,
}

impl CcVariant {
    /// Every variant, in presentation order.
    pub const ALL: [CcVariant; 4] = [
        CcVariant::Reno,
        CcVariant::NewReno,
        CcVariant::Sack,
        CcVariant::Cubic,
    ];

    /// Stable lowercase label used in experiment labels and seeds.
    pub fn label(self) -> &'static str {
        match self {
            CcVariant::Reno => "reno",
            CcVariant::NewReno => "newreno",
            CcVariant::Sack => "sack",
            CcVariant::Cubic => "cubic",
        }
    }
}

/// What the TCB should do after a congestion-control callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CcSignal {
    /// Nothing beyond normal processing.
    None,
    /// Loss detected: the TCB must call [`CongestionControl::on_loss`]
    /// and fast-retransmit the first unacknowledged segment.
    Loss,
    /// Retransmit the next hole (recovery already in progress — the
    /// variant has adjusted its own windows).
    Retransmit,
}

/// Read-only snapshot of the TCB state a callback may consult. Sequence
/// fields reflect the state *after* the triggering event was applied
/// (`snd_una` equals the arriving cumulative ACK on an advancing ACK).
pub struct CcContext<'a> {
    /// Sender maximum segment size in bytes.
    pub mss: usize,
    /// Current simulation time.
    pub now: SimTime,
    /// First unacknowledged sequence number.
    pub snd_una: Seq,
    /// Next sequence number to be sent.
    pub snd_nxt: Seq,
    /// SACK option blocks on the triggering segment (empty when the
    /// event has no segment, e.g. an RTO).
    pub sack: &'a SackBlocks,
}

impl CcContext<'_> {
    fn flight(&self) -> usize {
        self.snd_nxt.since(self.snd_una) as usize
    }
}

/// A congestion-control algorithm driven by the TCB.
///
/// The TCB invokes exactly one callback per event and obeys the
/// returned [`CcSignal`]; implementations own `cwnd`/`ssthresh` and all
/// recovery bookkeeping. [`CongestionControl::in_recovery`] is the
/// probe hook: it is exported alongside the window accessors so flight
/// recorder samples and diagnostics stay comparable across variants.
pub trait CongestionControl {
    /// Current congestion window in bytes.
    fn cwnd(&self) -> usize;
    /// Current slow-start threshold in bytes.
    fn ssthresh(&self) -> usize;
    /// An ACK advanced `snd_una` by `newly_acked` bytes.
    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal;
    /// A duplicate ACK arrived while data is outstanding.
    fn on_dup_ack(&mut self, ctx: &CcContext<'_>) -> CcSignal;
    /// Loss detected by duplicate ACKs (the TCB calls this when a
    /// callback returned [`CcSignal::Loss`], before retransmitting).
    fn on_loss(&mut self, ctx: &CcContext<'_>);
    /// The retransmission timer fired.
    fn on_rto(&mut self, ctx: &CcContext<'_>);
    /// Probe hook: whether the variant is inside fast recovery.
    fn in_recovery(&self) -> bool {
        false
    }
    /// Upper bound for a retransmission starting at `from`: the start
    /// of the first selectively-acknowledged range above it, so the
    /// retransmit path never resends data the peer already holds.
    fn rexmit_cap(&self, from: Seq) -> Option<Seq> {
        let _ = from;
        None
    }
}

// ---------------------------------------------------------------------
// Reno
// ---------------------------------------------------------------------

/// RFC 5681 slow start / congestion avoidance / fast retransmit —
/// the seed TCB behavior, extracted verbatim.
#[derive(Debug, Clone)]
pub struct Reno {
    cwnd: usize,
    ssthresh: usize,
    dup_acks: u32,
}

impl Reno {
    fn new(cwnd: usize, ssthresh: usize) -> Reno {
        Reno {
            cwnd,
            ssthresh,
            dup_acks: 0,
        }
    }

    /// Shared slow-start / congestion-avoidance growth.
    fn grow(&mut self, mss: usize, newly_acked: usize) {
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per ACKed MSS (exponential per RTT).
            self.cwnd += newly_acked.min(mss);
        } else {
            // Congestion avoidance: ~one MSS per RTT.
            let inc = (mss * mss / self.cwnd).max(1);
            self.cwnd += inc;
        }
    }

    /// Multiplicative decrease shared by the dup-ack and RTO paths.
    fn halve(&mut self, ctx: &CcContext<'_>) {
        self.ssthresh = (ctx.flight() / 2).max(2 * ctx.mss);
    }
}

impl CongestionControl for Reno {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal {
        self.dup_acks = 0;
        self.grow(ctx.mss, newly_acked);
        CcSignal::None
    }

    fn on_dup_ack(&mut self, _ctx: &CcContext<'_>) -> CcSignal {
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            CcSignal::Loss
        } else {
            CcSignal::None
        }
    }

    fn on_loss(&mut self, ctx: &CcContext<'_>) {
        // Fast retransmit (Reno without full recovery bookkeeping).
        self.halve(ctx);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, ctx: &CcContext<'_>) {
        // Timeout: collapse cwnd, go back into slow start (RFC 2001).
        self.halve(ctx);
        self.cwnd = ctx.mss;
    }
}

// ---------------------------------------------------------------------
// NewReno
// ---------------------------------------------------------------------

/// RFC 6582: Reno whose fast recovery survives partial ACKs — each
/// partial ACK retransmits the next hole instead of waiting for an RTO,
/// and slow start is not re-entered until `recover` is acknowledged.
#[derive(Debug, Clone)]
pub struct NewReno {
    reno: Reno,
    in_recovery: bool,
    recover: Seq,
}

impl NewReno {
    fn new(cwnd: usize, ssthresh: usize) -> NewReno {
        NewReno {
            reno: Reno::new(cwnd, ssthresh),
            in_recovery: false,
            recover: Seq::new(0),
        }
    }
}

impl CongestionControl for NewReno {
    fn cwnd(&self) -> usize {
        self.reno.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.reno.ssthresh
    }

    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal {
        self.reno.dup_acks = 0;
        if self.in_recovery {
            if ctx.snd_una.at_or_after(self.recover) {
                // Full ACK: recovery complete, deflate to ssthresh.
                self.in_recovery = false;
                self.reno.cwnd = self.reno.ssthresh;
                CcSignal::None
            } else {
                // Partial ACK: stay in recovery, fill the next hole.
                // Deflate by the amount newly acknowledged, then add
                // one MSS back (RFC 6582 step 5) so transmission of
                // new data stays ack-clocked through recovery.
                self.reno.cwnd = self.reno.cwnd.saturating_sub(newly_acked) + ctx.mss;
                CcSignal::Retransmit
            }
        } else {
            self.reno.grow(ctx.mss, newly_acked);
            CcSignal::None
        }
    }

    fn on_dup_ack(&mut self, ctx: &CcContext<'_>) -> CcSignal {
        self.reno.dup_acks += 1;
        if self.in_recovery {
            // RFC 6582 step 3: every further duplicate ACK means one
            // more segment has left the network — inflate so new data
            // can be transmitted while the hole is repaired.
            self.reno.cwnd += ctx.mss;
            CcSignal::None
        } else if self.reno.dup_acks == 3 {
            CcSignal::Loss
        } else {
            CcSignal::None
        }
    }

    fn on_loss(&mut self, ctx: &CcContext<'_>) {
        self.reno.on_loss(ctx);
        // RFC 6582 step 2: inflate past ssthresh by the three duplicate
        // ACKs that triggered fast retransmit.
        self.reno.cwnd = self.reno.ssthresh + 3 * ctx.mss;
        self.in_recovery = true;
        self.recover = ctx.snd_nxt;
    }

    fn on_rto(&mut self, ctx: &CcContext<'_>) {
        self.reno.on_rto(ctx);
        // A timeout ends fast recovery; remember the send high-water
        // mark so stale duplicate ACKs cannot immediately re-enter it.
        self.in_recovery = false;
        self.recover = ctx.snd_nxt;
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }
}

// ---------------------------------------------------------------------
// SACK
// ---------------------------------------------------------------------

/// RFC 2018/6675: NewReno-style recovery driven by a scoreboard of
/// ranges the peer has selectively acknowledged. Retransmissions are
/// capped at the next SACKed block, so an octet the peer already holds
/// is never resent (the sim receiver never reneges, so the scoreboard
/// survives RTOs).
#[derive(Debug, Clone)]
pub struct Sack {
    reno: Reno,
    in_recovery: bool,
    recover: Seq,
    /// SACKed `[start, end)` ranges, ascending and disjoint, strictly
    /// above `snd_una`. Allocated once per connection; elements are
    /// reused across events, not per segment.
    scoreboard: Vec<(Seq, Seq)>,
}

impl Sack {
    fn new(cwnd: usize, ssthresh: usize) -> Sack {
        Sack {
            reno: Reno::new(cwnd, ssthresh),
            in_recovery: false,
            recover: Seq::new(0),
            scoreboard: Vec::new(),
        }
    }

    /// Merge the arriving option's blocks into the scoreboard and drop
    /// everything at or below the cumulative ACK.
    fn integrate(&mut self, ctx: &CcContext<'_>) {
        for (start, end) in ctx.sack.iter() {
            let (start, end) = (Seq::new(start), Seq::new(end));
            if !start.before(end) || end.at_or_before(ctx.snd_una) {
                continue;
            }
            self.insert(start.later(ctx.snd_una), end);
        }
        self.scoreboard.retain(|&(_, end)| end.after(ctx.snd_una));
        if let Some(first) = self.scoreboard.first_mut() {
            first.0 = first.0.later(ctx.snd_una);
        }
    }

    fn insert(&mut self, start: Seq, end: Seq) {
        // Find the insertion point, then coalesce every overlapping or
        // adjacent neighbor into one range.
        let mut i = 0;
        while i < self.scoreboard.len() && self.scoreboard[i].0.before(start) {
            i += 1;
        }
        self.scoreboard.insert(i, (start, end));
        // Merge with the predecessor and any followers it now touches.
        let mut j = i.saturating_sub(1);
        while j + 1 < self.scoreboard.len() {
            let (_, a_end) = self.scoreboard[j];
            let (b_start, b_end) = self.scoreboard[j + 1];
            if b_start.at_or_before(a_end) {
                self.scoreboard[j].1 = a_end.later(b_end);
                self.scoreboard.remove(j + 1);
            } else {
                j += 1;
            }
        }
    }
}

impl CongestionControl for Sack {
    fn cwnd(&self) -> usize {
        self.reno.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.reno.ssthresh
    }

    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal {
        self.reno.dup_acks = 0;
        self.integrate(ctx);
        if self.in_recovery {
            if ctx.snd_una.at_or_after(self.recover) {
                self.in_recovery = false;
                self.reno.cwnd = self.reno.ssthresh;
                CcSignal::None
            } else {
                // Partial ACK: deflate-and-add-back (RFC 6582 step 5),
                // then retransmit the next hole, skipping scoreboard
                // ranges via `rexmit_cap`.
                self.reno.cwnd = self.reno.cwnd.saturating_sub(newly_acked) + ctx.mss;
                CcSignal::Retransmit
            }
        } else {
            self.reno.grow(ctx.mss, newly_acked);
            CcSignal::None
        }
    }

    fn on_dup_ack(&mut self, ctx: &CcContext<'_>) -> CcSignal {
        self.integrate(ctx);
        self.reno.dup_acks += 1;
        if self.in_recovery {
            // RFC 6582 step-3 inflation, as in NewReno.
            self.reno.cwnd += ctx.mss;
            CcSignal::None
        } else if self.reno.dup_acks == 3 {
            CcSignal::Loss
        } else {
            CcSignal::None
        }
    }

    fn on_loss(&mut self, ctx: &CcContext<'_>) {
        self.reno.on_loss(ctx);
        // RFC 6582 step-2 inflation, as in NewReno.
        self.reno.cwnd = self.reno.ssthresh + 3 * ctx.mss;
        self.in_recovery = true;
        self.recover = ctx.snd_nxt;
    }

    fn on_rto(&mut self, ctx: &CcContext<'_>) {
        self.reno.on_rto(ctx);
        self.in_recovery = false;
        self.recover = ctx.snd_nxt;
    }

    fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    fn rexmit_cap(&self, from: Seq) -> Option<Seq> {
        self.scoreboard
            .iter()
            .map(|&(start, _)| start)
            .find(|&start| start.after(from))
    }
}

// ---------------------------------------------------------------------
// CUBIC
// ---------------------------------------------------------------------

/// RFC 8312-shaped window growth on integer sim-time: after a loss the
/// window follows `W(t) = C·(t − K)³ + W_max` (β = 0.7, C = 0.4
/// segments/s³), clamped so growth per ACK never exceeds one MSS — the
/// window stays ack-clocked and inside the checker's cwnd envelope.
#[derive(Debug, Clone)]
pub struct Cubic {
    cwnd: usize,
    ssthresh: usize,
    dup_acks: u32,
    /// Window size when the last loss was detected, in bytes.
    wmax: usize,
    /// Start of the current cubic epoch (None until the first loss or
    /// until congestion avoidance resumes).
    epoch: Option<SimTime>,
    /// The cubic function's inflection offset K, in milliseconds.
    k_ms: u64,
}

impl Cubic {
    fn new(cwnd: usize, ssthresh: usize) -> Cubic {
        Cubic {
            cwnd,
            ssthresh,
            dup_acks: 0,
            wmax: 0,
            epoch: None,
            k_ms: 0,
        }
    }

    fn enter_epoch(&mut self, ctx: &CcContext<'_>) {
        let flight = ctx.flight();
        self.wmax = flight.max(2 * ctx.mss);
        self.ssthresh = (self.wmax * 7 / 10).max(2 * ctx.mss);
        self.epoch = Some(ctx.now);
        self.k_ms = cubic_k_ms(self.wmax, ctx.mss);
    }
}

impl CongestionControl for Cubic {
    fn cwnd(&self) -> usize {
        self.cwnd
    }

    fn ssthresh(&self) -> usize {
        self.ssthresh
    }

    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal {
        self.dup_acks = 0;
        if self.cwnd < self.ssthresh {
            // Slow start, exactly as Reno.
            self.cwnd += newly_acked.min(ctx.mss);
        } else {
            let epoch = match self.epoch {
                Some(e) => e,
                None => {
                    // First congestion-avoidance ACK with no loss
                    // history: convex probing from the current window.
                    self.wmax = self.cwnd;
                    self.k_ms = 0;
                    self.epoch = Some(ctx.now);
                    ctx.now
                }
            };
            let elapsed_ms = ctx.now.since(epoch).as_nanos() / 1_000_000;
            let target = cubic_window(self.wmax, ctx.mss, elapsed_ms, self.k_ms);
            // Ack-clocked: never shrink, never grow faster than one MSS
            // per advancing ACK.
            self.cwnd = self
                .cwnd
                .max(target.min(self.cwnd + newly_acked.min(ctx.mss)));
        }
        CcSignal::None
    }

    fn on_dup_ack(&mut self, _ctx: &CcContext<'_>) -> CcSignal {
        self.dup_acks += 1;
        if self.dup_acks == 3 {
            CcSignal::Loss
        } else {
            CcSignal::None
        }
    }

    fn on_loss(&mut self, ctx: &CcContext<'_>) {
        self.enter_epoch(ctx);
        self.cwnd = self.ssthresh;
    }

    fn on_rto(&mut self, ctx: &CcContext<'_>) {
        self.enter_epoch(ctx);
        self.cwnd = ctx.mss;
    }
}

/// The cubic window `W(t) = C·(t − K)³ + W_max` in bytes, on integer
/// millisecond time (C = 0.4 segments/s³ = 2·mss/5·10⁹ bytes/ms³),
/// clamped below at one MSS. Public so the conformance checker bounds
/// CUBIC senders with the sender's own arithmetic.
pub fn cubic_window(wmax: usize, mss: usize, elapsed_ms: u64, k_ms: u64) -> usize {
    let d = elapsed_ms as i128 - k_ms as i128;
    let delta = d * d * d * mss as i128 * 2 / 5_000_000_000i128;
    let w = wmax as i128 + delta;
    w.clamp(mss as i128, 1i128 << 40) as usize
}

/// The cubic inflection offset `K = ∛(W_max·β_defl/C)` in milliseconds,
/// where the multiplicative-decrease step is `0.3·W_max`:
/// `K_ms³ = W_max/mss · 7.5·10⁸`. Integer cube root, exact floor.
pub fn cubic_k_ms(wmax: usize, mss: usize) -> u64 {
    let target = wmax as u128 * 750_000_000 / mss.max(1) as u128;
    // Binary-search the floor cube root.
    let mut lo = 0u128;
    let mut hi = 1u128 << 43; // (2^43)^3 > any reachable target
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if mid * mid * mid <= target {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo as u64
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

/// Enum dispatch over the four variants — no boxing on the hot path.
#[derive(Debug, Clone)]
pub enum CcCtl {
    /// RFC 5681 Reno.
    Reno(Reno),
    /// RFC 6582 NewReno.
    NewReno(NewReno),
    /// RFC 2018/6675 SACK.
    Sack(Sack),
    /// RFC 8312-shaped CUBIC.
    Cubic(Cubic),
}

impl CcCtl {
    /// Instantiate `variant` with the configured initial windows.
    pub fn new(variant: CcVariant, cwnd: usize, ssthresh: usize) -> CcCtl {
        match variant {
            CcVariant::Reno => CcCtl::Reno(Reno::new(cwnd, ssthresh)),
            CcVariant::NewReno => CcCtl::NewReno(NewReno::new(cwnd, ssthresh)),
            CcVariant::Sack => CcCtl::Sack(Sack::new(cwnd, ssthresh)),
            CcVariant::Cubic => CcCtl::Cubic(Cubic::new(cwnd, ssthresh)),
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $c:ident => $body:expr) => {
        match $self {
            CcCtl::Reno($c) => $body,
            CcCtl::NewReno($c) => $body,
            CcCtl::Sack($c) => $body,
            CcCtl::Cubic($c) => $body,
        }
    };
}

impl CongestionControl for CcCtl {
    fn cwnd(&self) -> usize {
        dispatch!(self, c => c.cwnd())
    }

    fn ssthresh(&self) -> usize {
        dispatch!(self, c => c.ssthresh())
    }

    fn on_ack(&mut self, ctx: &CcContext<'_>, newly_acked: usize) -> CcSignal {
        dispatch!(self, c => c.on_ack(ctx, newly_acked))
    }

    fn on_dup_ack(&mut self, ctx: &CcContext<'_>) -> CcSignal {
        dispatch!(self, c => c.on_dup_ack(ctx))
    }

    fn on_loss(&mut self, ctx: &CcContext<'_>) {
        dispatch!(self, c => c.on_loss(ctx))
    }

    fn on_rto(&mut self, ctx: &CcContext<'_>) {
        dispatch!(self, c => c.on_rto(ctx))
    }

    fn in_recovery(&self) -> bool {
        dispatch!(self, c => c.in_recovery())
    }

    fn rexmit_cap(&self, from: Seq) -> Option<Seq> {
        dispatch!(self, c => c.rexmit_cap(from))
    }
}

// ---------------------------------------------------------------------
// Receiver-side SACK block generation
// ---------------------------------------------------------------------

/// Build the wire option from the receiver's out-of-order spans:
/// merge overlapping/adjacent `[start, end)` spans (which must arrive in
/// sequence order, as the TCB's reassembly queue yields them) and keep
/// the first four merged blocks in that order. Allocation-free.
pub fn wire_sack_blocks<I>(spans: I, rcv_nxt: Seq) -> SackBlocks
where
    I: Iterator<Item = (Seq, Seq)>,
{
    let mut out = SackBlocks::NONE;
    let mut cur: Option<(Seq, Seq)> = None;
    for (start, end) in spans {
        if !start.before(end) || end.at_or_before(rcv_nxt) {
            continue;
        }
        match cur {
            Some((cs, ce)) if start.at_or_before(ce) => cur = Some((cs, ce.later(end))),
            Some((cs, ce)) => {
                if !out.push(cs.raw(), ce.raw()) {
                    return out;
                }
                cur = Some((start, end));
            }
            None => cur = Some((start, end)),
        }
    }
    if let Some((cs, ce)) = cur {
        out.push(cs.raw(), ce.raw());
    }
    out
}

/// Uncapped variant of [`wire_sack_blocks`] for tests and diagnostics:
/// every merged span, not just the four that fit the option.
// Diagnostic/test helper, not on the per-segment path.
pub fn merged_spans<I>(spans: I, rcv_nxt: Seq) -> Vec<(Seq, Seq)>
where
    I: Iterator<Item = (Seq, Seq)>,
{
    let mut out: Vec<(Seq, Seq)> = Vec::new();
    for (start, end) in spans {
        if !start.before(end) || end.at_or_before(rcv_nxt) {
            continue;
        }
        match out.last_mut() {
            Some(last) if start.at_or_before(last.1) => last.1 = last.1.later(end),
            _ => out.push((start, end)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(now_ms: u64, snd_una: u32, snd_nxt: u32, sack: &'a SackBlocks) -> CcContext<'a> {
        CcContext {
            mss: 1460,
            now: SimTime::from_nanos(now_ms * 1_000_000),
            snd_una: Seq::new(snd_una),
            snd_nxt: Seq::new(snd_nxt),
            sack,
        }
    }

    fn seqs(spans: &[(u32, u32)]) -> Vec<(Seq, Seq)> {
        spans
            .iter()
            .map(|&(s, e)| (Seq::new(s), Seq::new(e)))
            .collect()
    }

    #[test]
    fn reno_matches_seed_arithmetic() {
        let mut r = Reno::new(2920, 65_535);
        let none = SackBlocks::NONE;
        // Slow start: +min(newly_acked, mss).
        assert_eq!(r.on_ack(&ctx(0, 1460, 5840, &none), 1460), CcSignal::None);
        assert_eq!(r.cwnd(), 4380);
        // Third dup ack halves to flight/2 and signals loss.
        let c = ctx(1, 1460, 10_000, &none);
        assert_eq!(r.on_dup_ack(&c), CcSignal::None);
        assert_eq!(r.on_dup_ack(&c), CcSignal::None);
        assert_eq!(r.on_dup_ack(&c), CcSignal::Loss);
        r.on_loss(&c);
        assert_eq!(r.ssthresh(), (10_000 - 1460) / 2);
        assert_eq!(r.cwnd(), r.ssthresh());
        // Congestion avoidance: +mss²/cwnd.
        let w = r.cwnd();
        r.on_ack(&ctx(2, 2920, 10_000, &none), 1460);
        assert_eq!(r.cwnd(), w + (1460 * 1460 / w).max(1));
        // RTO collapses to one MSS.
        r.on_rto(&ctx(3, 2920, 10_000, &none));
        assert_eq!(r.cwnd(), 1460);
    }

    #[test]
    fn newreno_partial_ack_stays_in_recovery() {
        let mut n = NewReno::new(8760, 65_535);
        let none = SackBlocks::NONE;
        let c = ctx(0, 1, 10_001, &none);
        for _ in 0..2 {
            assert_eq!(n.on_dup_ack(&c), CcSignal::None);
        }
        assert_eq!(n.on_dup_ack(&c), CcSignal::Loss);
        n.on_loss(&c);
        assert!(n.in_recovery());
        assert_eq!(n.recover, Seq::new(10_001));
        // Partial ACK (below recover): hole retransmit, still recovering.
        let partial = ctx(1, 5_001, 10_001, &none);
        assert_eq!(n.on_ack(&partial, 5_000), CcSignal::Retransmit);
        assert!(n.in_recovery());
        // Further dup acks during recovery do not re-trigger loss.
        assert_eq!(n.on_dup_ack(&partial), CcSignal::None);
        assert_eq!(n.on_dup_ack(&partial), CcSignal::None);
        assert_eq!(n.on_dup_ack(&partial), CcSignal::None);
        // Full ACK exits recovery at ssthresh.
        let full = ctx(2, 10_001, 10_001, &none);
        assert_eq!(n.on_ack(&full, 5_000), CcSignal::None);
        assert!(!n.in_recovery());
        assert_eq!(n.cwnd(), n.ssthresh());
    }

    #[test]
    fn sack_scoreboard_merges_and_caps_retransmits() {
        let mut s = Sack::new(8760, 65_535);
        let mut blocks = SackBlocks::NONE;
        blocks.push(2921, 4381);
        blocks.push(5841, 7301);
        let c = ctx(0, 1461, 10_221, &blocks);
        s.on_dup_ack(&c);
        assert_eq!(s.scoreboard, seqs(&[(2921, 4381), (5841, 7301)]));
        // The first retransmission must stop at the first SACKed block.
        assert_eq!(s.rexmit_cap(Seq::new(1461)), Some(Seq::new(2921)));
        // An overlapping block coalesces.
        let mut more = SackBlocks::NONE;
        more.push(4381, 5841);
        s.on_dup_ack(&ctx(1, 1461, 10_221, &more));
        assert_eq!(
            s.on_dup_ack(&ctx(1, 1461, 10_221, &SackBlocks::NONE)),
            CcSignal::Loss
        );
        assert_eq!(s.scoreboard, seqs(&[(2921, 7301)]));
        assert_eq!(s.rexmit_cap(Seq::new(1461)), Some(Seq::new(2921)));
        // Cumulative ACK past a block prunes it.
        s.on_loss(&ctx(1, 1461, 10_221, &SackBlocks::NONE));
        let advanced = ctx(2, 7301, 10_221, &SackBlocks::NONE);
        assert_eq!(s.on_ack(&advanced, 5840), CcSignal::Retransmit);
        assert!(s.scoreboard.is_empty());
        assert_eq!(s.rexmit_cap(Seq::new(7301)), None);
    }

    #[test]
    fn cubic_window_shape() {
        let mss = 1460;
        let wmax = 65_535;
        let k = cubic_k_ms(wmax, mss);
        // K ≈ ∛(0.75 · wmax/mss) seconds ≈ 3.2 s for these parameters.
        assert!((3_000..3_500).contains(&k), "k_ms = {k}");
        // At t = 0 the window is the post-loss plateau: 0.7·wmax.
        let w0 = cubic_window(wmax, mss, 0, k);
        assert!(w0.abs_diff(wmax * 7 / 10) < mss, "w0 = {w0}");
        // At t = K it recovers wmax, then grows convexly past it.
        let wk = cubic_window(wmax, mss, k, k);
        assert!(wk.abs_diff(wmax) < mss, "wk = {wk}");
        assert!(cubic_window(wmax, mss, 2 * k, k) > wmax);
        // Monotone non-decreasing in t.
        let mut prev = 0;
        for t in (0..10_000).step_by(250) {
            let w = cubic_window(wmax, mss, t, k);
            assert!(w >= prev, "cubic window decreased at t={t}");
            prev = w;
        }
    }

    #[test]
    fn cubic_growth_is_ack_clocked() {
        let mut c = Cubic::new(65_535, 1_000);
        // In congestion avoidance with a long-elapsed epoch, a single
        // ACK still grows at most one MSS.
        c.epoch = Some(SimTime::ZERO);
        c.wmax = 65_535;
        c.k_ms = 0;
        let none = SackBlocks::NONE;
        let before = c.cwnd();
        c.on_ack(&ctx(60_000, 1, 1, &none), 8 * 1460);
        assert!(c.cwnd() <= before + 1460);
        assert!(c.cwnd() >= before);
    }

    #[test]
    fn wire_blocks_merge_sort_and_cap() {
        let spans = seqs(&[
            (100, 200),
            (200, 300),
            (400, 500),
            (600, 700),
            (800, 900),
            (1000, 1100),
        ]);
        let b = wire_sack_blocks(spans.iter().copied(), Seq::new(50));
        let got: Vec<_> = b.iter().collect();
        // Adjacent first two merge; only four blocks fit the option.
        assert_eq!(got, vec![(100, 300), (400, 500), (600, 700), (800, 900)]);
        let all = merged_spans(spans.iter().copied(), Seq::new(50));
        assert_eq!(
            all,
            seqs(&[(100, 300), (400, 500), (600, 700), (800, 900), (1000, 1100)])
        );
        // Spans at or below rcv_nxt are cumulative, not selective.
        assert!(wire_sack_blocks(spans.iter().copied(), Seq::new(1200)).is_empty());
    }

    #[test]
    fn a_block_straddling_the_wrap_survives() {
        // The block runs from 16 below 2³² to 16 past it; the receiver
        // still waits 16 below the block. Ordered on the circle, the
        // block is well-formed and above `rcv_nxt`, so it goes on the
        // wire whole; an integer `start >= end` test drops it.
        let rcv_nxt = Seq::new(u32::MAX - 31);
        let block = (Seq::new(u32::MAX - 15), Seq::new(16));
        let wire = wire_sack_blocks([block].into_iter(), rcv_nxt);
        assert_eq!(wire.iter().collect::<Vec<_>>(), vec![(u32::MAX - 15, 16)]);
        assert_eq!(merged_spans([block].into_iter(), rcv_nxt), vec![block]);
        // A neighbour just past the wrap coalesces with it.
        let next = (Seq::new(16), Seq::new(40));
        assert_eq!(
            merged_spans([block, next].into_iter(), rcv_nxt),
            vec![(block.0, next.1)]
        );
    }
}
