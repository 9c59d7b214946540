//! # flate — a from-scratch DEFLATE / zlib implementation
//!
//! The paper's transport-compression experiments use zlib 1.04 with default
//! settings ("Content-Encoding: deflate", which per RFC 2068 is the zlib
//! container around a DEFLATE stream). This crate implements both formats
//! from scratch:
//!
//! * [`deflate()`] / [`inflate()`] — raw RFC 1951 streams (stored, fixed
//!   and dynamic Huffman blocks, LZ77 with lazy matching), and
//!   [`Inflater`], the same decoder resumable over a stream still
//!   arriving, which keeps only DEFLATE's 32 KiB window and hands its
//!   caller each run it decodes;
//! * [`zlib::compress`] / [`zlib::decompress`] — the RFC 1950 container
//!   with Adler-32 integrity checking;
//! * [`checksum`] — Adler-32 and CRC-32 (the latter shared with the PNG
//!   codec in `webcontent`).
//!
//! The paper's observations this crate reproduces directly:
//! * HTML compresses "more than a factor of three" at the default level;
//! * all-lowercase HTML tags compress noticeably better than mixed-case
//!   tags (ratio ≈ 0.27 vs ≈ 0.35) because the dictionary can reuse common
//!   English words.
//!
//! ```
//! use flate::{deflate, inflate, Level};
//! let html = "<p class=banner> solutions</p>".repeat(100);
//! let small = deflate(html.as_bytes(), Level::Default);
//! assert!(small.len() < html.len() / 3);
//! assert_eq!(inflate(&small).unwrap(), html.as_bytes());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitio;
pub mod checksum;
pub mod deflate;
pub mod huffman;
pub mod inflate;
pub mod lz77;
pub mod tables;
pub mod zlib;

pub use checksum::{adler32, crc32, Adler32, Crc32};
pub use deflate::{deflate, Level};
pub use inflate::{inflate, InflateError, Inflater};
pub use zlib::ZlibError;
