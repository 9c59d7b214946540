//! Head soup: seeded header blocks of every shape a peer might send —
//! CRLF and bare LF, OWS runs and other whitespace, empty values, known
//! names in mixed case and twice, non-token names, colon-less lines,
//! non-ASCII bytes — with, in about a third of them, blocks in the
//! canonical form the engines write. Test-only: `HeaderMap`'s unit tests
//! parse them against the reference parser, `tests/head_soup.rs` feeds
//! them to the message parsers.

use rand::rngs::SmallRng;
use rand::Rng;

/// The names the map indexes, as the engines spell them.
const KNOWN: [&str; 12] = [
    "ETag",
    "Range",
    "If-Range",
    "Connection",
    "Content-Type",
    "If-None-Match",
    "Last-Modified",
    "Content-Length",
    "Accept-Encoding",
    "Content-Encoding",
    "If-Modified-Since",
    "Transfer-Encoding",
];

/// One of `from`, uniformly.
pub fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A name: mostly a known one in some casing, else another token, now
/// and then one that is not a token.
fn name(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..10u32) {
        0..=5 => {
            let known = pick(rng, &KNOWN);
            known
                .chars()
                .map(|c| match rng.gen_range(0..4u32) {
                    0 => c.to_ascii_lowercase(),
                    1 => c.to_ascii_uppercase(),
                    _ => c,
                })
                .collect()
        }
        6..=8 => pick(
            rng,
            &[
                "Host",
                "X-Cache",
                "Server",
                "Date",
                "a",
                "x!#$%&'*+-.^_`|~9",
            ],
        )
        .into(),
        _ => pick(
            rng,
            &[
                "", "Bad Name", "Ho\tst", "(x)", "N\u{e9}", "X\r", "X ", " X",
            ],
        )
        .into(),
    }
}

/// A value, OWS runs and other whitespace at its edges included.
fn value(rng: &mut SmallRng) -> String {
    let core = pick(
        rng,
        &[
            "",
            "42",
            "\"abc\"",
            "close, Keep-Alive",
            "a:b",
            "v\u{a0}",
            "\u{e9}t\u{e9}",
            "a\rb",
            "chunked",
        ],
    );
    let edge = |rng: &mut SmallRng| {
        pick(
            rng,
            &["", "", "", " ", "\t", "  \t ", "\u{b}", "\u{c}", "\r"],
        )
    };
    let (lead, tail) = (edge(rng), edge(rng));
    format!("{lead}{core}{tail}")
}

/// A block: lines in canonical form or off it, then (mostly) the blank
/// line that ends a head.
pub fn block(rng: &mut SmallRng) -> String {
    let mut out = String::new();
    let canonical = rng.gen_bool(0.3);
    for _ in 0..rng.gen_range(0..8u32) {
        let (name, value) = if canonical {
            (
                pick(rng, &KNOWN).to_string(),
                pick(rng, &["1", "\"e\"", "x y"]).to_string(),
            )
        } else {
            (name(rng), value(rng))
        };
        let sep = if canonical {
            ": "
        } else {
            pick(rng, &[": ", ":", ":  ", ": ", " : "])
        };
        match rng.gen_range(0..20u32) {
            0 => out.push_str(&name),
            1 => out.push_str(pick(rng, &["", "\r", "\r\r"])),
            _ => out.push_str(&format!("{name}{sep}{value}")),
        }
        let end = if canonical {
            "\r\n"
        } else {
            pick(rng, &["\r\n", "\r\n", "\n", "\r\r\n"])
        };
        out.push_str(end);
    }
    out.push_str(pick(rng, &["\r\n", "\r\n", "\n", ""]));
    out
}
