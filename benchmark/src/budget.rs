//! The budget table: a workload's measured pass time set against what
//! the per-layer unit costs predict for the operation counts visible
//! from outside the program — packets, requests, connections, body KiB.
//! What the layers do not explain is the residual: client, server and
//! event dispatch, which cannot be timed separately from outside. A
//! first, rough split of a packet's cost; in-program spans are to
//! replace it.

use crate::pass::PassFacts;
use crate::plan::{Cell, Content, Item, Setup};
use std::collections::BTreeMap;

/// Operation counts of one pass, grouped the way the unit costs apply.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ops {
    pub sims: f64,
    pub specs_firsttime: f64,
    pub specs_revalidate: f64,
    /// Packets of single-client cells on a clean link, on an impaired
    /// link, and of fleets.
    pub packets_clean: f64,
    pub packets_impaired: f64,
    pub packets_fleet: f64,
    pub conns: f64,
    /// Requests and body KiB over HTTP/1.x, and over the mux transport.
    pub requests_h1: f64,
    pub body_kib_h1: f64,
    pub requests_mux: f64,
    pub body_kib_mux: f64,
    /// Packets and probe records of observed cells; packets of observed fleets.
    pub observed_cell_packets: f64,
    pub observed_probe_records: f64,
    pub observed_fleet_packets: f64,
}

impl Ops {
    pub fn packets(&self) -> f64 {
        self.packets_clean + self.packets_impaired + self.packets_fleet
    }
}

/// Count the operations of `pass` over `items`.
pub fn ops(items: &[Item], pass: &PassFacts) -> Ops {
    let mut o = Ops::default();
    for (item, facts) in items.iter().zip(&pass.items) {
        let packets = facts.packets() as f64;
        let requests: f64 = facts
            .clients
            .iter()
            .map(|c| (c.fetched + c.retries) as f64)
            .sum();
        let body_kib: f64 = facts
            .clients
            .iter()
            .map(|c| c.body_bytes as f64)
            .sum::<f64>()
            / 1024.0;
        o.sims += 1.0;
        o.conns += facts
            .clients
            .iter()
            .map(|c| c.sockets_used as f64)
            .sum::<f64>();
        let setup = match item {
            Item::Cell(Cell {
                setup,
                content,
                loss,
                observed,
                ..
            }) => {
                match content {
                    Content::Revalidate => o.specs_revalidate += 1.0,
                    Content::FirstTime | Content::Bulk => o.specs_firsttime += 1.0,
                }
                if loss.is_some() {
                    o.packets_impaired += packets;
                } else {
                    o.packets_clean += packets;
                }
                if *observed {
                    o.observed_cell_packets += packets;
                    o.observed_probe_records += facts.probe_records as f64;
                }
                *setup
            }
            Item::Fleet(f) => {
                o.packets_fleet += packets;
                if f.observed {
                    o.observed_fleet_packets += packets;
                }
                f.setup
            }
        };
        if setup == Setup::Mux {
            o.requests_mux += requests;
            o.body_kib_mux += body_kib;
        } else {
            o.requests_h1 += requests;
            o.body_kib_h1 += body_kib;
        }
    }
    o
}

/// One line of the table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub layer: &'static str,
    /// How the figure was formed, e.g. `8870 packets x 1639 ns`.
    pub formula: String,
    pub secs: f64,
    /// Informational break-down of the row above; not added to the sum.
    pub inside: bool,
}

/// The table for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Budget {
    pub pass_secs: f64,
    pub rows: Vec<Row>,
}

impl Budget {
    /// Seconds the rows explain (break-down rows excluded).
    pub fn explained_secs(&self) -> f64 {
        self.rows.iter().filter(|r| !r.inside).map(|r| r.secs).sum()
    }

    /// Client + server + dispatch: what is left, as a share of the pass.
    pub fn residual_pct(&self) -> f64 {
        (self.pass_secs - self.explained_secs()) / self.pass_secs * 100.0
    }
}

/// Predict `ops` from the per-layer metrics `m` (by name, in the unit
/// each is reported in) and set the sum against `pass_secs`.
pub fn budget(o: &Ops, m: &BTreeMap<&str, f64>, pass_secs: f64) -> Budget {
    let get = |name: &str| -> f64 {
        *m.get(name)
            .unwrap_or_else(|| panic!("layer metric {name} was measured"))
    };
    let (ns, us) = (1e-9, 1e-6);
    let mut rows = Vec::new();
    let mut row = |layer, formula: String, secs: f64, inside| {
        if secs != 0.0 {
            rows.push(Row {
                layer,
                formula,
                secs,
                inside,
            });
        }
    };

    let spec = o.specs_firsttime * get("harness.matrix_spec_us.firsttime") * us
        + o.specs_revalidate * get("harness.matrix_spec_us.revalidate") * us;
    row(
        "core::harness matrix_spec",
        format!(
            "{} first-time + {} revalidate specs",
            o.specs_firsttime, o.specs_revalidate
        ),
        spec,
        false,
    );
    row(
        "netsim::sim build",
        format!("{} simulators x {:.1} us", o.sims, get("sim.build_us")),
        o.sims * get("sim.build_us") * us,
        false,
    );

    let per_packet = get("sim.bulk_ns_per_packet");
    let fanin = get("sim.fanin_ns_per_packet");
    let kernel =
        (o.packets_clean + o.packets_impaired) * per_packet * ns + o.packets_fleet * fanin * ns;
    row(
        "netsim kernel, per packet",
        format!(
            "{} cell packets x {per_packet:.0} ns + {} fleet packets x {fanin:.0} ns",
            o.packets_clean + o.packets_impaired,
            o.packets_fleet
        ),
        kernel,
        false,
    );
    let events = o.packets() * get("sim.bulk_events_per_packet");
    let queue = (o.packets_clean * get("queue.near_ns_per_op")
        + (o.packets_impaired + o.packets_fleet) * get("queue.timer_ns_per_op"))
        * get("sim.bulk_events_per_packet")
        * ns;
    row(
        "  of which netsim::queue",
        format!("{events:.0} events, near or timer cost"),
        queue,
        true,
    );
    let link = ((o.packets_clean + o.packets_fleet) * get("link.transmit_ns")
        + o.packets_impaired * get("link.impaired_ns"))
        * ns;
    row(
        "  of which netsim::link+impair",
        format!("{} packets, clean or impaired cost", o.packets()),
        link,
        true,
    );
    row(
        "  of which netsim::tcp+cc",
        format!(
            "{} segments x {:.0} ns",
            o.packets(),
            get("tcp.bulk_ns_per_segment.reno")
        ),
        o.packets() * get("tcp.bulk_ns_per_segment.reno") * ns,
        true,
    );
    // A connection's own packets are already in the per-packet row.
    let per_conn = (get("sim.churn_us_per_conn") * us
        - get("sim.churn_packets_per_conn") * per_packet * ns)
        .max(0.0);
    row(
        "netsim kernel, per connection",
        format!(
            "{} connections x {:.2} us beyond their packets",
            o.conns,
            per_conn / us
        ),
        o.conns * per_conn,
        false,
    );

    let heads = get("httpwire.request_build_ns")
        + get("httpwire.request_parse_ns")
        + get("httpwire.response_head_ns")
        + get("httpwire.response_parse_ns");
    row(
        "httpwire heads",
        format!("{} requests x {heads:.0} ns", o.requests_h1),
        o.requests_h1 * heads * ns,
        false,
    );
    row(
        "httpwire bodies",
        format!(
            "{:.0} KiB x {:.0} ns",
            o.body_kib_h1,
            get("httpwire.body_ns_per_kib")
        ),
        o.body_kib_h1 * get("httpwire.body_ns_per_kib") * ns,
        false,
    );
    // The exchange probe moves 8 KiB a stream; take those out of the
    // per-stream figure so bodies are charged once.
    let per_stream =
        (get("httpmux.exchange_ns_per_stream") - 8.0 * get("httpmux.data_ns_per_kib")).max(0.0);
    row(
        "httpmux",
        format!(
            "{} streams x {per_stream:.0} ns + {:.0} KiB x {:.0} ns",
            o.requests_mux,
            o.body_kib_mux,
            get("httpmux.data_ns_per_kib")
        ),
        (o.requests_mux * per_stream + o.body_kib_mux * get("httpmux.data_ns_per_kib")) * ns,
        false,
    );

    let cell_observers = get("trace.full_overhead_pct").max(0.0)
        + get("probe.overhead_pct").max(0.0)
        + get("telemetry.overhead_pct").max(0.0);
    row(
        "observers in the kernel",
        format!(
            "{cell_observers:.1} % of the cells' kernel time + {:.0} % of the fleet's",
            get("telemetry.fleet_overhead_pct.n128")
        ),
        o.observed_cell_packets * per_packet * ns * cell_observers / 100.0
            + o.observed_fleet_packets * fanin * ns * get("telemetry.fleet_overhead_pct.n128")
                / 100.0,
        false,
    );
    let observed = o.observed_cell_packets + o.observed_fleet_packets;
    row(
        "conformance",
        format!(
            "{observed} segments x {:.0} ns",
            get("conformance.check_ns_per_segment")
        ),
        observed * get("conformance.check_ns_per_segment") * ns,
        false,
    );
    row(
        "probe::attribute + pcapng",
        format!(
            "{} records x {:.0} ns + {} packets x ({:.0} + {:.0}) ns",
            o.observed_probe_records,
            get("probe.attribute_ns_per_record"),
            o.observed_cell_packets,
            get("pcapng.export_ns_per_packet"),
            get("pcapng.parse_ns_per_packet")
        ),
        (o.observed_probe_records * get("probe.attribute_ns_per_record")
            + o.observed_cell_packets
                * (get("pcapng.export_ns_per_packet") + get("pcapng.parse_ns_per_packet")))
            * ns,
        false,
    );
    Budget { pass_secs, rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PROBE_METRICS;
    use crate::pass::{ClientFacts, ItemFacts};
    use crate::plan;

    fn flat_metrics(value: f64) -> BTreeMap<&'static str, f64> {
        PROBE_METRICS.iter().map(|(n, ..)| (*n, value)).collect()
    }

    fn pass_for(items: &[Item]) -> PassFacts {
        PassFacts {
            items: items
                .iter()
                .map(|item| ItemFacts {
                    clients: vec![
                        ClientFacts {
                            packets: 100,
                            fetched: 43,
                            body_bytes: 10 * 1024,
                            sockets_used: 2,
                            ..Default::default()
                        };
                        match item {
                            Item::Cell(_) => 1,
                            Item::Fleet(f) => f.clients as usize,
                        }
                    ],
                    probe_records: 50,
                    ..Default::default()
                })
                .collect(),
        }
    }

    #[test]
    fn ops_split_by_transport_link_and_observation() {
        let items = plan::observed();
        let o = ops(&items, &pass_for(&items));
        assert_eq!(o.sims, 45.0);
        assert_eq!((o.specs_firsttime, o.specs_revalidate), (22.0, 22.0));
        assert_eq!(o.packets_clean, 4400.0);
        assert_eq!(o.packets_fleet, 12_800.0);
        assert_eq!(o.packets_impaired, 0.0);
        assert_eq!(o.observed_cell_packets, 4400.0);
        assert_eq!(o.observed_probe_records, 44.0 * 50.0);
        assert_eq!(o.requests_mux, 0.0);
        assert_eq!(o.requests_h1, (44.0 + 128.0) * 43.0);
        assert_eq!(o.conns, (44.0 + 128.0) * 2.0);

        let items = plan::lossgrid(1);
        let o = ops(&items, &pass_for(&items));
        assert_eq!(o.packets_impaired, 13_200.0);
        assert_eq!(o.requests_mux, 36.0 * 43.0, "3 envs x 6 losses x 2 cc");
        assert_eq!(o.body_kib_mux, 360.0);
    }

    #[test]
    fn the_residual_is_what_the_rows_leave() {
        let items = plan::matrix(false);
        let o = ops(&items, &pass_for(&items));
        let b = budget(&o, &flat_metrics(100.0), 0.1);
        let inside: f64 = b.rows.iter().filter(|r| r.inside).map(|r| r.secs).sum();
        let all: f64 = b.rows.iter().map(|r| r.secs).sum();
        assert!(inside > 0.0);
        assert!((b.explained_secs() - (all - inside)).abs() < 1e-12);
        let expected = (0.1 - b.explained_secs()) / 0.1 * 100.0;
        assert!((b.residual_pct() - expected).abs() < 1e-9);
        assert!(
            !b.rows.iter().any(|r| r.layer == "conformance"),
            "rows that explain nothing are left out"
        );
    }
}
