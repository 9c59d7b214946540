//! Client configuration: protocol modes, product header profiles, and
//! workloads.

use httpwire::{Method, Request, Version};
use netsim::{SimDuration, SockAddr};

/// How the client uses TCP connections — the paper's central variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolMode {
    /// HTTP/1.0: one request per connection, up to `max_connections`
    /// simultaneously (Navigator's default and hard-wired maximum is 4).
    Http10Parallel {
        /// Maximum simultaneous connections.
        max_connections: usize,
    },
    /// HTTP/1.1 with persistent connections but strictly serialized
    /// requests on a single connection.
    Http11Persistent,
    /// HTTP/1.1 with buffered pipelining on a single connection.
    Http11Pipelined,
    /// Binary-framed stream multiplexing over one connection
    /// (`crates/httpmux`): every request is a concurrent stream. With
    /// `push` the client advertises ENABLE_PUSH and accepts pushed
    /// subresources into the cache instead of requesting them.
    Multiplexed {
        /// Accept server push.
        push: bool,
    },
}

impl ProtocolMode {
    /// The HTTP version requests carry.
    pub fn version(self) -> Version {
        match self {
            ProtocolMode::Http10Parallel { .. } => Version::Http10,
            _ => Version::Http11,
        }
    }

    /// Whether this mode pipelines requests.
    pub fn is_pipelined(self) -> bool {
        matches!(self, ProtocolMode::Http11Pipelined)
    }

    /// Whether the client accepts server push.
    pub fn push_enabled(self) -> bool {
        matches!(self, ProtocolMode::Multiplexed { push: true })
    }
}

/// Which product's request headers to emit — this drives the bytes-per-
/// request differences in Tables 10 and 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStyle {
    /// The libwww robot: carefully minimal, ~190 bytes per request.
    Robot,
    /// Netscape Navigator 4.0b5: verbose Accept lists.
    Navigator,
    /// Microsoft Internet Explorer 4.0b1: the most verbose of the three.
    Explorer,
}

impl RequestStyle {
    /// Construct a request for `path` in this product's style.
    pub fn request(self, method: Method, path: &str, version: Version, host: &str) -> Request {
        let mut req = Request::new(method, path, version);
        match self {
            RequestStyle::Robot => {
                req.headers.append("Host", host);
                req.headers.append("User-Agent", "libwww-robot/5.1");
                req.headers
                    .append("Accept", "image/gif, image/jpeg, text/html, */*");
            }
            RequestStyle::Navigator => {
                req.headers.append("Host", host);
                req.headers
                    .append("User-Agent", "Mozilla/4.04 [en] (WinNT; I)");
                req.headers.append(
                    "Accept",
                    "image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, */*",
                );
                req.headers.append("Accept-Language", "en");
                req.headers.append("Accept-Charset", "iso-8859-1,*,utf-8");
                if version == Version::Http10 {
                    req.headers.append("Connection", "Keep-Alive");
                }
            }
            RequestStyle::Explorer => {
                req.headers.append("Accept", "image/gif, image/x-xbitmap, image/jpeg, image/pjpeg, application/vnd.ms-excel, application/msword, application/vnd.ms-powerpoint, */*");
                req.headers.append("Accept-Language", "en-us");
                req.headers.append(
                    "User-Agent",
                    "Mozilla/4.0 (compatible; MSIE 4.0b1; Windows NT)",
                );
                req.headers.append("Host", host);
                if version == Version::Http10 {
                    req.headers.append("Connection", "Keep-Alive");
                }
            }
        }
        req
    }
}

/// How a cached entity is revalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RevalidationStyle {
    /// HTTP/1.1 conditional GET with `If-None-Match` (entity tags).
    ConditionalGetEtag,
    /// Conditional GET with `If-Modified-Since` (all HTTP/1.0 can do).
    ConditionalGetDate,
    /// MSIE 4.0b1's observed behaviour: an *unconditional* GET for the
    /// page itself plus `If-Modified-Since` GETs for the images — the
    /// page body is always re-transferred.
    ConditionalGetDateFullHtml,
    /// The old libwww 4.1D profile: a plain GET for the HTML plus `HEAD`
    /// for every image.
    HeadRequests,
}

/// What the client is asked to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Workload {
    /// First-time visit: fetch `start`, parse it, fetch every embedded
    /// image (requests issued as the HTML arrives when pipelining).
    Browse {
        /// The page to fetch first.
        start: String,
    },
    /// Revisit: every object (the page and its embedded images, from the
    /// primed cache) is revalidated.
    Revalidate {
        /// The page whose cache entry seeds the object list.
        start: String,
        /// How the cached copies are revalidated.
        style: RevalidationStyle,
    },
    /// Fetch an explicit list of paths unconditionally.
    FetchList {
        /// Paths to fetch, in order.
        paths: Vec<String>,
    },
}

/// Full client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Connection strategy.
    pub mode: ProtocolMode,
    /// The style.
    pub style: RequestStyle,
    /// Where the origin server lives.
    pub server: SockAddr,
    /// `Host` header value.
    pub host: String,
    /// Set TCP_NODELAY (the paper's recommendation for buffered
    /// pipelining).
    pub nodelay: bool,
    /// Advertise `Accept-Encoding: deflate`.
    pub accept_deflate: bool,
    /// Pipeline output buffer threshold ("we experimented ... and found
    /// that 1024 bytes is a good compromise").
    pub pipeline_buffer: usize,
    /// Flush timer backstop (1 s in the paper's initial tests, 50 ms in
    /// all later ones).
    pub flush_timeout: SimDuration,
    /// Whether the application forces a flush after the first (HTML)
    /// request and after the last known request — the paper's key tuning.
    pub app_flush: bool,
    /// CPU time to construct one request (reading the persistent cache to
    /// build validators). The paper's initial *disk* cache made this
    /// painfully large; the final runs used a memory file system.
    pub request_gen_time: SimDuration,
    /// CPU time to handle one response (parsing, cache writes).
    pub response_proc_time: SimDuration,
    /// Pause before reconnecting after a connection reset. Zero (the
    /// default, matching libwww) retries immediately; fleet experiments
    /// set it non-zero so refused clients do not hammer a loaded server.
    pub reset_backoff: SimDuration,
    /// Fixed extra headers appended to every generated request (experiment
    /// hook, e.g. the leading-range revisit idiom).
    pub extra_headers: Vec<(String, String)>,
}

impl ClientConfig {
    /// The tuned robot the paper's final measurements use.
    pub fn robot(mode: ProtocolMode, server: SockAddr) -> ClientConfig {
        ClientConfig {
            mode,
            style: RequestStyle::Robot,
            server,
            host: "www.microscape.example".to_string(),
            nodelay: true,
            accept_deflate: false,
            pipeline_buffer: 1024,
            flush_timeout: SimDuration::from_millis(50),
            app_flush: true,
            request_gen_time: SimDuration::from_millis(2),
            response_proc_time: SimDuration::from_millis(4),
            reset_backoff: SimDuration::ZERO,
            extra_headers: Vec::new(),
        }
    }

    /// The paper's *initial* client: the persistent cache lives on disk
    /// as two files per object, making request construction and response
    /// handling expensive ("the overhead in our implementation became a
    /// performance bottleneck"). Used by the Table 3 reproduction.
    pub fn with_disk_cache(mut self) -> Self {
        self.request_gen_time = SimDuration::from_millis(65);
        self.response_proc_time = SimDuration::from_millis(15);
        self
    }

    /// Builder-style toggles.
    pub fn with_deflate(mut self, on: bool) -> Self {
        self.accept_deflate = on;
        self
    }

    /// Builder-style request-style override.
    pub fn with_style(mut self, style: RequestStyle) -> Self {
        self.style = style;
        self
    }

    /// Builder-style application-flush toggle.
    pub fn with_app_flush(mut self, on: bool) -> Self {
        self.app_flush = on;
        self
    }

    /// Builder-style flush-timer override.
    pub fn with_flush_timeout(mut self, t: SimDuration) -> Self {
        self.flush_timeout = t;
        self
    }

    /// Builder-style TCP_NODELAY toggle.
    pub fn with_nodelay(mut self, on: bool) -> Self {
        self.nodelay = on;
        self
    }

    /// Builder-style reset-backoff override.
    pub fn with_reset_backoff(mut self, t: SimDuration) -> Self {
        self.reset_backoff = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::HostId;

    #[test]
    fn robot_requests_are_compact() {
        let req = RequestStyle::Robot.request(
            Method::Get,
            "/images/solutions.gif",
            Version::Http11,
            "www.microscape.example",
        );
        let n = req.wire_len();
        assert!(
            (100..=250).contains(&n),
            "robot request is compact, got {n}"
        );
        // With revalidation headers it reaches the paper's ~190 B average.
        let conditional = req
            .with_header("If-None-Match", "\"2ca3-1a7b-33a1c7f2\"")
            .wire_len();
        assert!((160..=250).contains(&conditional), "got {conditional}");
    }

    #[test]
    fn browser_requests_are_verbose() {
        let robot = RequestStyle::Robot
            .request(Method::Get, "/x.gif", Version::Http10, "h.example")
            .wire_len();
        let nav = RequestStyle::Navigator
            .request(Method::Get, "/x.gif", Version::Http10, "h.example")
            .wire_len();
        let ie = RequestStyle::Explorer
            .request(Method::Get, "/x.gif", Version::Http10, "h.example")
            .wire_len();
        assert!(nav > robot);
        assert!(ie > nav, "IE ({ie}) should out-blather Navigator ({nav})");
    }

    #[test]
    fn wire_len_is_the_serialized_length_in_every_style() {
        for style in [
            RequestStyle::Robot,
            RequestStyle::Navigator,
            RequestStyle::Explorer,
        ] {
            for version in [Version::Http10, Version::Http11] {
                let req = style.request(Method::Get, "/images/x.gif", version, "h.example");
                assert_eq!(req.wire_len(), req.to_bytes().len(), "{style:?}");
                let mut bodied = req.clone();
                bodied.body = vec![0u8; 1234].into();
                assert_eq!(bodied.wire_len(), bodied.to_bytes().len(), "{style:?}");
                assert_eq!(
                    bodied.wire_len(),
                    req.wire_len() + "Content-Length: 1234\r\n".len() + 1234
                );
            }
        }
    }

    #[test]
    fn mode_properties() {
        assert_eq!(
            ProtocolMode::Http10Parallel { max_connections: 4 }.version(),
            Version::Http10
        );
        assert_eq!(ProtocolMode::Http11Pipelined.version(), Version::Http11);
        assert!(ProtocolMode::Http11Pipelined.is_pipelined());
        assert!(!ProtocolMode::Http11Persistent.is_pipelined());
    }

    #[test]
    fn config_builders() {
        let c = ClientConfig::robot(ProtocolMode::Http11Pipelined, SockAddr::new(HostId(1), 80))
            .with_deflate(true)
            .with_app_flush(false)
            .with_nodelay(false);
        assert!(c.accept_deflate);
        assert!(!c.app_flush);
        assert!(!c.nodelay);
        assert_eq!(c.pipeline_buffer, 1024);
    }
}
