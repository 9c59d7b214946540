//! Spans recorded by the ledger around every call it makes into the
//! repository: name, start, end, parent and an operation count. They
//! stay in memory until the run ends. A span's self time is its
//! duration minus the part of it that its direct children cover.

use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in [`Tracer::spans`].
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// Layer-boundary name, e.g. `harness.run_spec`.
    pub name: &'static str,
    /// What was run, e.g. `LAN/Apache/Http10/first/seed=0` (may be empty).
    pub label: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Operations inside the span, in the unit its name implies
    /// (packets for a run, records for an attribution, ...).
    pub count: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; give it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Records spans when on; costs one branch per call when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing (end-to-end metrics are taken with it).
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span under the innermost open one. `label` is only
    /// evaluated when recording.
    pub fn enter(&mut self, name: &'static str, label: impl FnOnce() -> String) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let label = label();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            label,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close the innermost open span, which must be `open`.
    pub fn exit(&mut self, open: Open, count: u64) {
        let Some(id) = open.0 else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, indexed like `spans`: duration minus the
/// union of its direct children's intervals, each clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time and total count per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        match out.iter_mut().find(|(name, ..)| *name == s.name) {
            Some(row) => {
                row.1 += self_ns;
                row.2 += s.count;
                row.3 += 1;
            }
            None => out.push((s.name, self_ns, s.count, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "root" },
            label: String::new(),
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn nested_children_count_once_against_their_own_parent() {
        // root 0..100; child 10..60 holding grandchild 20..30; child 70..90.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 70, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        assert_eq!(
            self_times(&spans).iter().sum::<u64>(),
            100,
            "self times partition the root"
        );
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        // Children 10..50 and 30..70 overlap on 30..50; 65..68 is inside
        // the second; 90..120 sticks out of the parent and is clipped.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
            span(3, Some(0), 65, 68),
            span(4, Some(0), 90, 120),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_parents_and_records_counts() {
        let mut t = Tracer::on();
        let pass = t.enter("pass", String::new);
        let cell = t.enter("cell", || "LAN".into());
        t.exit(cell, 7);
        let other = t.enter("cell", || "WAN".into());
        t.exit(other, 5);
        t.exit(pass, 12);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].label, "WAN");
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let by_name = self_time_by_name(spans);
        assert_eq!(by_name[1].0, "cell");
        assert_eq!((by_name[1].2, by_name[1].3), (12, 2));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        let s = t.enter("pass", || unreachable!("label not evaluated when off"));
        t.exit(s, 1);
        assert!(t.spans().is_empty());
    }
}
