//! Server behaviour profiles.
//!
//! The paper compares two real servers — W3C's Jigsaw 1.06 (interpreted
//! Java) and Apache 1.2b10 (C) — and tunes both during the study. A
//! profile captures the behavioural knobs that mattered:
//!
//! * response output buffering ("the server maintains a response buffer
//!   that it flushes either when full, or when there are no more requests
//!   coming in on that connection, or before it goes idle");
//! * per-request service time (Jigsaw "ran interpreted in our tests" and
//!   lost its early lead over the optimized Apache);
//! * the Nagle algorithm (`TCP_NODELAY`, "the first change to the server");
//! * a maximum number of requests per connection (Apache 1.2b2 "processes
//!   at most five requests before terminating a TCP connection");
//! * naive versus independent-half close (the RST hazard).

use netsim::SimDuration;

/// Which product the profile models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServerKind {
    /// W3C Jigsaw 1.06 (Java, interpreted): slower service, more verbose
    /// response headers.
    Jigsaw,
    /// Apache 1.2b10 (C): fast service, lean headers.
    Apache,
}

impl ServerKind {
    /// The `Server` header value.
    pub fn server_header(self) -> &'static str {
        match self {
            ServerKind::Jigsaw => "Jigsaw/1.06",
            ServerKind::Apache => "Apache/1.2b10",
        }
    }
}

/// What happens to a connection accepted beyond `max_connections`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Refuse it immediately with a RST (the client sees a hard failure
    /// and must reconnect).
    Rst,
    /// Park it unserviced until a slot frees; TCP receive-window
    /// backpressure holds the client's request bytes in the meantime.
    Queue,
}

/// Full server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Which product this profile models.
    pub kind: ServerKind,
    /// Listening port.
    pub port: u16,
    /// Set TCP_NODELAY on accepted connections (the paper's recommended
    /// setting for buffered implementations).
    pub nodelay: bool,
    /// Close the connection after this many requests (the early-Apache
    /// behaviour that exposed the RST hazard). `None` = unlimited.
    pub max_requests_per_connection: Option<u32>,
    /// When closing, naively close both halves at once (true) instead of
    /// half-closing and draining the read side (false).
    pub naive_close: bool,
    /// CPU time to serve a full GET.
    pub service_time_get: SimDuration,
    /// CPU time to serve a cache validation (304) or HEAD.
    pub service_time_validate: SimDuration,
    /// CPU time consumed accepting each connection (process fork /
    /// thread spawn) — the per-connection tax that HTTP/1.0's
    /// connection-per-request behaviour pays 43 times.
    pub per_connection_cost: SimDuration,
    /// Serve pre-computed deflated bodies for `text/html` when the client
    /// accepts the deflate coding.
    pub serve_deflate: bool,
    /// Kernel SYN-queue depth for the listening socket; overflowing SYNs
    /// are silently dropped and must be retransmitted. `None` = unbounded
    /// (the historical behaviour).
    pub listen_backlog: Option<u32>,
    /// Application-level cap on concurrently serviced connections; `None`
    /// = unlimited.
    pub max_connections: Option<u32>,
    /// What to do with connections accepted past `max_connections`.
    pub admission_policy: AdmissionPolicy,
    /// On multiplexed connections from push-enabled clients, push inline
    /// images and stylesheets discovered in served HTML.
    pub mux_push: bool,
}

impl ServerConfig {
    /// The Jigsaw profile as tuned in the paper's final test rounds.
    pub fn jigsaw(port: u16) -> ServerConfig {
        ServerConfig {
            kind: ServerKind::Jigsaw,
            port,
            nodelay: true,
            max_requests_per_connection: None,
            naive_close: false,
            // Interpreted Java on a 1997 SPARC: a few ms of CPU per
            // operation.
            service_time_get: SimDuration::from_millis(8),
            service_time_validate: SimDuration::from_millis(5),
            per_connection_cost: SimDuration::from_millis(7),
            serve_deflate: false,
            listen_backlog: None,
            max_connections: None,
            admission_policy: AdmissionPolicy::Rst,
            mux_push: false,
        }
    }

    /// Jigsaw as it behaved in the paper's *initial* investigations
    /// (Table 3): interpreted, unoptimized buffers, notably slower per
    /// request than the tuned version the final tables use.
    pub fn jigsaw_initial(port: u16) -> ServerConfig {
        ServerConfig {
            service_time_get: SimDuration::from_millis(20),
            service_time_validate: SimDuration::from_millis(30),
            per_connection_cost: SimDuration::from_millis(10),
            ..ServerConfig::jigsaw(port)
        }
    }

    /// The Apache profile (1.2b10, after the Apache group's fixes).
    pub fn apache(port: u16) -> ServerConfig {
        ServerConfig {
            kind: ServerKind::Apache,
            port,
            nodelay: true,
            max_requests_per_connection: None,
            naive_close: false,
            service_time_get: SimDuration::from_millis(4),
            service_time_validate: SimDuration::from_millis(2),
            per_connection_cost: SimDuration::from_millis(5),
            serve_deflate: false,
            listen_backlog: None,
            max_connections: None,
            admission_policy: AdmissionPolicy::Rst,
            mux_push: false,
        }
    }

    /// Builder-style toggles.
    pub fn with_deflate(mut self, on: bool) -> Self {
        self.serve_deflate = on;
        self
    }

    /// Builder-style TCP_NODELAY toggle.
    pub fn with_nodelay(mut self, on: bool) -> Self {
        self.nodelay = on;
        self
    }

    /// Builder-style per-connection request limit.
    pub fn with_max_requests(mut self, n: u32) -> Self {
        self.max_requests_per_connection = Some(n);
        self
    }

    /// Builder-style naive-close toggle (the RST hazard).
    pub fn with_naive_close(mut self, on: bool) -> Self {
        self.naive_close = on;
        self
    }

    /// Builder-style listen-backlog bound (SYN-queue depth).
    pub fn with_listen_backlog(mut self, backlog: u32) -> Self {
        self.listen_backlog = Some(backlog);
        self
    }

    /// Builder-style concurrent-connection cap with its overflow policy.
    pub fn with_max_connections(mut self, cap: u32, policy: AdmissionPolicy) -> Self {
        self.max_connections = Some(cap);
        self.admission_policy = policy;
        self
    }

    /// Builder-style server-push toggle for multiplexed connections.
    pub fn with_mux_push(mut self, on: bool) -> Self {
        self.mux_push = on;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_differ_in_speed() {
        let j = ServerConfig::jigsaw(80);
        let a = ServerConfig::apache(80);
        assert!(j.service_time_get > a.service_time_get);
        assert_eq!(j.kind.server_header(), "Jigsaw/1.06");
        assert_eq!(a.kind.server_header(), "Apache/1.2b10");
    }

    #[test]
    fn builders_compose() {
        let c = ServerConfig::apache(8080)
            .with_deflate(true)
            .with_max_requests(5)
            .with_naive_close(true)
            .with_nodelay(false);
        assert!(c.serve_deflate);
        assert_eq!(c.max_requests_per_connection, Some(5));
        assert!(c.naive_close);
        assert!(!c.nodelay);
        assert_eq!(c.port, 8080);
    }
}
