//! # httpwire — the HTTP/1.0 and HTTP/1.1 message layer
//!
//! Everything about HTTP *messages* — independent of sockets — for the
//! SIGCOMM '97 reproduction: request/response types with exact wire
//! serialization (byte counts matter: the paper's request profiles differ
//! by product), incremental pipelining-safe parsers, chunked transfer
//! coding, content codings (deflate), validators and conditional requests,
//! byte ranges, and RFC 1123 date handling.
//!
//! ```
//! use httpwire::{Method, Request, Version, ResponseParser};
//!
//! // A compact robot request, ~190 bytes like the paper's libwww client.
//! let req = Request::new(Method::Get, "/", Version::Http11)
//!     .with_header("Host", "microscape.example");
//! let wire = req.to_bytes();
//! assert!(wire.starts_with(b"GET / HTTP/1.1\r\n"));
//!
//! // The response side parses pipelined streams incrementally.
//! let mut parser = ResponseParser::new();
//! parser.expect(Method::Get);
//! parser.feed(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi");
//! let resp = parser.next().unwrap().unwrap();
//! assert_eq!(resp.body, b"hi"[..]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunked;
pub mod coding;
pub mod date;
pub mod headers;
pub mod message;
pub mod parser;
pub mod range;
pub mod types;
pub mod validators;

pub use coding::ContentCoding;
pub use date::{parse_http_date, HttpDate};
pub use headers::{Fields, HeaderMap};
pub use message::{Request, Response};
pub use parser::{ParseError, RequestParser, ResponseParser};
pub use range::{parse_range_header, ByteRange};
pub use types::{Method, StatusCode, Version};
pub use validators::{evaluate_conditional, CondResult, ETag, Validators};
