//! Head soup (`reference/soup.rs`) through the message parsers: every
//! request and response head reads alike fed in one piece, where it is
//! parsed where it lies, and cut in two, where it is gathered first.

use httpwire::{Method, ParseError, Request, RequestParser, Response, ResponseParser};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use soup::{block, pick};

#[path = "reference/soup.rs"]
mod soup;

/// What the parsers make of `wire` fed in the pieces `cuts` makes of it:
/// each one's polls up to the first that is not a message.
type Polls = (Vec<ParsePoll<Request>>, Vec<ParsePoll<Response>>);
type ParsePoll<M> = Result<Option<M>, ParseError>;

fn parsed(wire: &[u8], cuts: &[usize]) -> Polls {
    let (mut rp, mut sp) = (RequestParser::new(), ResponseParser::new());
    sp.expect(Method::Get);
    let mut from = 0;
    for &cut in cuts.iter().chain([&wire.len()]) {
        rp.feed(&wire[from..cut]);
        sp.feed(&wire[from..cut]);
        from = cut;
    }
    fn polls<M>(mut next: impl FnMut() -> ParsePoll<M>) -> Vec<ParsePoll<M>> {
        let mut out = vec![next()];
        while matches!(out.last(), Some(Ok(Some(_)))) {
            out.push(next());
        }
        out
    }
    (polls(|| rp.next()), polls(|| sp.next()))
}

#[test]
fn a_head_parses_alike_in_one_piece_and_in_two() {
    let mut rng = SmallRng::seed_from_u64(0x0e_a1d5);
    for i in 0..3_000 {
        let block = block(&mut rng);
        let first = pick(
            &mut rng,
            &[
                "GET /a HTTP/1.1\r\n",
                "HEAD /b HTTP/1.0\r\r\n",
                "HTTP/1.1 200 OK\r\n",
                "HTTP/1.0 304\r\n",
                "HTTP/1.1 200\r\r\n",
            ],
        );
        let wire = format!("{first}{block}\r\nContent-Length: 0\r\n\r\n");
        let cut = rng.gen_range(1..wire.len());
        let whole = parsed(wire.as_bytes(), &[]);
        assert!(
            whole == parsed(wire.as_bytes(), &[cut]),
            "{i}: {wire:?} at {cut}"
        );
    }
}
