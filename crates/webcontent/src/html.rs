//! A small HTML tokenizer: enough to find inline images (what an HTTP
//! client needs to drive the 43-request workload), rewrite tag case (the
//! paper's compression observation), and strip images for the CSS
//! experiment.

use bytes::find_byte;
use std::borrow::Cow;
use std::ops::Range;

/// A token of an HTML byte stream: owned as [`tokenize`] returns it,
/// borrowed from the stream (`HtmlToken<&[u8]>`) as [`walk`] yields it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HtmlToken<S = String> {
    /// Raw text between tags.
    Text(S),
    /// A tag with its name and raw attribute string, e.g.
    /// `Tag { name: "img", attrs: " src=\"a.gif\" width=10", closing: false }`.
    Tag {
        /// Tag name as written.
        name: S,
        /// Raw attribute text (leading space included).
        attrs: S,
        /// True for `</...>` end tags.
        closing: bool,
    },
    /// `<!-- ... -->` comments and `<!DOCTYPE ...>` declarations.
    Decl(S),
}

/// The one walk over HTML: hand each complete token of `html` to `f` in
/// document order and return the offset of the first byte not consumed,
/// where a caller whose document is still arriving resumes.
///
/// Mid-stream (`at_end` false) the walk stops before the first `<` whose
/// terminator has not arrived — a comment's `-->`, anything else's `>` —
/// since what it opens cannot be known yet; text is handed over as it
/// comes. At the end of the document the forgiving mid-90s reading
/// applies instead: a comment never closed is a declaration ending at
/// the first `>`, and a `<` with no `>` after it is text. Every decision
/// rests on ASCII bytes alone, so the page need not be valid UTF-8.
pub fn walk<'a>(html: &'a [u8], at_end: bool, mut f: impl FnMut(HtmlToken<&'a [u8]>)) -> usize {
    let mut i = 0;
    let mut text_start = 0;
    while let Some(lt) = find_byte(&html[i..], b'<') {
        i += lt;
        if text_start < i {
            f(HtmlToken::Text(&html[text_start..i]));
        }
        text_start = i;
        let rest = &html[i..];
        let comment = rest.starts_with(b"<!--");
        let closed = comment.then(|| comment_end(rest));
        let end = match closed.flatten() {
            Some(end) => end,
            None if comment && !at_end => return i,
            None => match find_byte(rest, b'>') {
                Some(gt) => gt + 1,
                None if at_end => break,
                None => return i,
            },
        };
        if rest.starts_with(b"<!") {
            f(HtmlToken::Decl(&rest[..end]));
        } else {
            let inner = &rest[1..end - 1];
            let closing = inner.first() == Some(&b'/');
            let inner = &inner[usize::from(closing)..];
            let name_end = inner
                .iter()
                .position(u8::is_ascii_whitespace)
                .unwrap_or(inner.len());
            if name_end == 0 {
                // "<>" or "< " — treat as text.
                i += 1;
                continue;
            }
            let (name, attrs) = inner.split_at(name_end);
            f(HtmlToken::Tag {
                name,
                attrs,
                closing,
            });
        }
        i += end;
        text_start = i;
    }
    if text_start < html.len() {
        f(HtmlToken::Text(&html[text_start..]));
    }
    html.len()
}

/// Where the comment that opens `rest` (`<!--`) ends: just past the
/// first `-->`, which may share its dashes with the opening (`<!-->`).
fn comment_end(rest: &[u8]) -> Option<usize> {
    let mut from = b"<!--".len();
    loop {
        let gt = from + find_byte(&rest[from..], b'>')?;
        if rest[gt - 2..gt] == *b"--" {
            return Some(gt + 1);
        }
        from = gt + 1;
    }
}

/// Tokenize HTML. Unterminated trailing constructs are emitted as text,
/// which is what forgiving mid-90s parsers did.
pub fn tokenize(html: &str) -> Vec<HtmlToken> {
    // The walk cuts only at ASCII bytes, so every slice of a `str` is one.
    let own = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    let mut tokens = Vec::new();
    walk(html.as_bytes(), true, |token| {
        tokens.push(match token {
            HtmlToken::Text(text) => HtmlToken::Text(own(text)),
            HtmlToken::Decl(decl) => HtmlToken::Decl(own(decl)),
            HtmlToken::Tag {
                name,
                attrs,
                closing,
            } => HtmlToken::Tag {
                name: own(name),
                attrs: own(attrs),
                closing,
            },
        })
    });
    tokens
}

/// Serialize tokens back to HTML.
pub fn serialize(tokens: &[HtmlToken]) -> String {
    let mut out = String::new();
    for t in tokens {
        match t {
            HtmlToken::Text(s) => out.push_str(s),
            HtmlToken::Decl(s) => out.push_str(s),
            HtmlToken::Tag {
                name,
                attrs,
                closing,
            } => {
                out.push('<');
                if *closing {
                    out.push('/');
                }
                out.push_str(name);
                out.push_str(attrs);
                out.push('>');
            }
        }
    }
    out
}

/// Where one attribute's value sits in a raw attribute string. Handles
/// quoted and unquoted values, case-insensitive names (ASCII folding
/// only). Both ends fall on ASCII bytes, so the range indexes a `str` too.
fn attr_range(attrs: &[u8], name: &str) -> Option<Range<usize>> {
    let needle = name.as_bytes();
    let last = attrs.len().checked_sub(needle.len() + 1)?;
    let idx = (0..=last).find(|&i| {
        attrs[i + needle.len()] == b'='
            && attrs[i..i + needle.len()].eq_ignore_ascii_case(needle)
            // Must be preceded by whitespace (or start).
            && (i == 0 || attrs[i - 1].is_ascii_whitespace())
    })?;
    let after = idx + needle.len() + 1;
    let (start, closes): (usize, fn(&u8) -> bool) = match attrs.get(after) {
        Some(b'"') => (after + 1, |b| *b == b'"'),
        Some(b'\'') => (after + 1, |b| *b == b'\''),
        _ => (after, u8::is_ascii_whitespace),
    };
    let len = attrs[start..].iter().position(closes);
    Some(start..len.map_or(attrs.len(), |len| start + len))
}

/// Extract one attribute's value from a raw attribute string. Handles
/// quoted and unquoted values, case-insensitive names. Allocation-free:
/// the returned slice borrows from `attrs`.
pub fn attr_value<'a>(attrs: &'a str, name: &str) -> Option<&'a str> {
    attr_range(attrs.as_bytes(), name).map(|at| &attrs[at])
}

/// The value of `attr` on an opening `<tag>`, if `token` is one; borrowed
/// unless the page is not UTF-8 there.
fn tag_attr<'a>(token: &HtmlToken<&'a [u8]>, tag: &str, attr: &str) -> Option<Cow<'a, str>> {
    match *token {
        HtmlToken::Tag {
            name,
            attrs,
            closing: false,
        } if name.eq_ignore_ascii_case(tag.as_bytes()) => {
            attr_range(attrs, attr).map(|at| String::from_utf8_lossy(&attrs[at]))
        }
        _ => None,
    }
}

/// The `src` of an `<img>` tag: what a browser fetches on seeing `token`.
pub fn image_source<'a>(token: &HtmlToken<&'a [u8]>) -> Option<Cow<'a, str>> {
    tag_attr(token, "img", "src")
}

/// What a server may push on seeing `token`: an image source, or the
/// `href` of a `<link rel=stylesheet>`.
pub fn subresource<'a>(token: &HtmlToken<&'a [u8]>) -> Option<Cow<'a, str>> {
    match tag_attr(token, "link", "rel") {
        Some(rel) if rel.eq_ignore_ascii_case("stylesheet") => tag_attr(token, "link", "href"),
        _ => image_source(token),
    }
}

/// The `src` of every `<img>` tag, in document order — exactly what a
/// browser fetches after parsing the base document.
pub fn inline_image_sources(html: &str) -> Vec<String> {
    let mut out = Vec::new();
    walk(html.as_bytes(), true, |token| {
        out.extend(image_source(&token).map(Cow::into_owned))
    });
    out
}

/// Rewrite every tag and attribute name to the given case. Attribute
/// *values* are untouched. The paper found all-lowercase tags compress
/// noticeably better (ratio ≈ .27 vs ≈ .35).
pub fn rewrite_tag_case(html: &str, upper: bool) -> String {
    let mut tokens = tokenize(html);
    for t in &mut tokens {
        if let HtmlToken::Tag { name, attrs, .. } = t {
            *name = if upper {
                name.to_ascii_uppercase()
            } else {
                name.to_ascii_lowercase()
            };
            *attrs = rewrite_attr_names(attrs, upper);
        }
    }
    serialize(&tokens)
}

/// Case-rewrite attribute names, leaving values (especially quoted ones)
/// intact.
fn rewrite_attr_names(attrs: &str, upper: bool) -> String {
    let mut out = String::with_capacity(attrs.len());
    let mut chars = attrs.chars().peekable();
    let mut in_name = false;
    while let Some(c) = chars.next() {
        match c {
            '"' | '\'' => {
                // Copy the quoted value verbatim.
                out.push(c);
                for c2 in chars.by_ref() {
                    out.push(c2);
                    if c2 == c {
                        break;
                    }
                }
                in_name = false;
            }
            '=' => {
                out.push(c);
                in_name = false;
                // Unquoted value: copy until whitespace.
                if let Some(&next) = chars.peek() {
                    if next != '"' && next != '\'' {
                        while let Some(&c2) = chars.peek() {
                            if c2.is_ascii_whitespace() {
                                break;
                            }
                            out.push(c2);
                            chars.next();
                        }
                    }
                }
            }
            c if c.is_ascii_whitespace() => {
                out.push(c);
                in_name = true;
            }
            _ => {
                if in_name || out.is_empty() {
                    out.push(if upper {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    });
                    in_name = true;
                } else {
                    out.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_roundtrip() {
        let html = r##"<HTML><Body bgcolor="#ffffff">Hello <B>world</B><!-- note --><IMG SRC="a.gif"></Body></HTML>"##;
        assert_eq!(serialize(&tokenize(html)), html);
    }

    #[test]
    fn finds_images_in_order() {
        let html = r#"<img src="one.gif"><p><IMG  Src='two.gif' width=3><img src=three.gif >"#;
        assert_eq!(
            inline_image_sources(html),
            vec!["one.gif", "two.gif", "three.gif"]
        );
    }

    #[test]
    fn closing_img_not_counted() {
        assert!(inline_image_sources("</img><imgx src=a.gif>").is_empty());
    }

    #[test]
    fn subresources_include_stylesheets_in_order() {
        let html = r#"<LINK REL="stylesheet" HREF="/site.css"><img src=a.gif>
            <link rel=icon href=/fav.ico><link rel=StyleSheet href='/p.css'><img src=b.gif>"#;
        let mut found = Vec::new();
        walk(html.as_bytes(), true, |token| {
            found.extend(subresource(&token))
        });
        assert_eq!(found, vec!["/site.css", "a.gif", "/p.css", "b.gif"]);
    }

    #[test]
    fn resuming_at_any_offset_finds_the_whole_documents_sources() {
        // A `>` inside a comment whose `-->` has not arrived must not end
        // it: the commented-out image is never a fetch.
        let commented = "<p>x</p><!-- old banner > <img src=/old.gif> --><img src=/new.gif>";
        assert_eq!(inline_image_sources(commented), vec!["/new.gif"]);
        let site = crate::microscape::site();
        for html in [commented, site.html.as_str()] {
            let bytes = html.as_bytes();
            let whole = inline_image_sources(html);
            // The page arrives a byte at a time: every offset is resumed
            // at once mid-stream, and from wherever that left the cursor
            // the rest is read as the end of the document.
            let (mut cursor, mut found, mut finished_from) = (0, Vec::new(), None);
            for cut in 0..=bytes.len() {
                cursor += walk(&bytes[cursor..cut], false, |token| {
                    found.extend(image_source(&token).map(Cow::into_owned))
                });
                assert!(cursor <= cut);
                if finished_from == Some(cursor) {
                    continue; // same cursor, same rest: already checked
                }
                finished_from = Some(cursor);
                let mut all = found.clone();
                let rest = walk(&bytes[cursor..], true, |token| {
                    all.extend(image_source(&token).map(Cow::into_owned))
                });
                assert_eq!(cursor + rest, bytes.len());
                assert_eq!(all, whole, "cut at {cut}, resumed at {cursor}");
            }
        }
    }

    /// The walk with every search a byte at a time: the reference the
    /// walk must agree with token for token.
    fn byte_loop_walk<'a>(
        html: &'a [u8],
        at_end: bool,
        mut f: impl FnMut(HtmlToken<&'a [u8]>),
    ) -> usize {
        let mut i = 0;
        let mut text_start = 0;
        while let Some(lt) = html[i..].iter().position(|&b| b == b'<') {
            i += lt;
            if text_start < i {
                f(HtmlToken::Text(&html[text_start..i]));
            }
            text_start = i;
            let rest = &html[i..];
            let comment = rest.starts_with(b"<!--");
            let closed = comment.then(|| rest.windows(3).position(|w| w == b"-->"));
            let end = match closed.flatten() {
                Some(dashes) => dashes + 3,
                None if comment && !at_end => return i,
                None => match rest.iter().position(|&b| b == b'>') {
                    Some(gt) => gt + 1,
                    None if at_end => break,
                    None => return i,
                },
            };
            if rest.starts_with(b"<!") {
                f(HtmlToken::Decl(&rest[..end]));
            } else {
                let inner = &rest[1..end - 1];
                let closing = inner.first() == Some(&b'/');
                let inner = &inner[usize::from(closing)..];
                let name_end = inner
                    .iter()
                    .position(u8::is_ascii_whitespace)
                    .unwrap_or(inner.len());
                if name_end == 0 {
                    i += 1;
                    continue;
                }
                let (name, attrs) = inner.split_at(name_end);
                f(HtmlToken::Tag {
                    name,
                    attrs,
                    closing,
                });
            }
            i += end;
            text_start = i;
        }
        if text_start < html.len() {
            f(HtmlToken::Text(&html[text_start..]));
        }
        html.len()
    }

    /// Both walks agree on `html` read mid-stream and as a whole
    /// document: the same tokens, the same offset returned.
    fn assert_walks_agree(html: &[u8], context: &dyn std::fmt::Display) {
        for at_end in [false, true] {
            let (mut new, mut old) = (Vec::new(), Vec::new());
            let new_at = walk(html, at_end, |token| new.push(token));
            let old_at = byte_loop_walk(html, at_end, |token| old.push(token));
            assert_eq!((new_at, &new), (old_at, &old), "{context}, at_end {at_end}");
        }
    }

    #[test]
    fn the_walk_agrees_with_the_byte_loop_at_every_split_of_the_page() {
        // The page arrives cut at every byte: each piece from where the
        // walk stopped to the cut is walked both ways.
        let page = crate::microscape::site().html.as_bytes();
        let mut cursor = 0;
        for cut in 0..=page.len() {
            assert_walks_agree(&page[cursor..cut], &format_args!("{cursor}..{cut}"));
            cursor += walk(&page[cursor..cut], false, |_| {});
        }
        assert_walks_agree(page, &"the whole page");
    }

    #[test]
    fn the_walk_agrees_with_the_byte_loop_on_seeded_soup() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // Comments open and closed (with dashes shared or not), `<>`,
        // `< `, a `<` inside a tag, declarations, and bytes that are not
        // ASCII, or not UTF-8 at all.
        const PIECES: [&[u8]; 24] = [
            b"<",
            b">",
            b"<!--",
            b"-->",
            b"--",
            b"-",
            b"<!",
            b"<>",
            b"< ",
            b"<img src=a.gif>",
            b"<IMG SRC='b.gif' ",
            b"</p>",
            b"<b",
            b"text",
            b" ",
            b"\t",
            b"\n",
            b"=",
            b"\"",
            "\u{e9}".as_bytes(),
            b"\xff",
            b"\x80<",
            b"<!DOCTYPE html>",
            b"<a <b>",
        ];
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for soup in 0..400 {
            let mut html = Vec::new();
            for _ in 0..rng.gen_range(0..60) {
                html.extend_from_slice(PIECES[rng.gen_range(0..PIECES.len())]);
            }
            for cut in 0..=html.len() {
                assert_walks_agree(&html[..cut], &format_args!("soup {soup} ..{cut}"));
                assert_walks_agree(&html[cut..], &format_args!("soup {soup} {cut}.."));
            }
        }
    }

    #[test]
    fn mid_stream_walk_waits_at_an_open_comment() {
        let arriving = b"<p>x</p><!-- old banner > <img src=/old.gif> ";
        let mut tokens = Vec::new();
        let resume = walk(arriving, false, |token| tokens.push(token));
        assert_eq!(resume, 8, "stops before the `<!--`");
        assert_eq!(tokens.len(), 3, "<p>, x, </p>: {tokens:?}");
    }

    #[test]
    fn never_closed_comment_is_a_declaration_at_end_of_document() {
        // End of document keeps the forgiving reading: the comment ends
        // at the first `>`, and the tag after it counts.
        let html = "<!-- never closed > <img src=a.gif> <b";
        assert_eq!(
            tokenize(html),
            vec![
                HtmlToken::Decl("<!-- never closed >".into()),
                HtmlToken::Text(" ".into()),
                HtmlToken::Tag {
                    name: "img".into(),
                    attrs: " src=a.gif".into(),
                    closing: false
                },
                HtmlToken::Text(" ".into()),
                HtmlToken::Text("<b".into()),
            ]
        );
        assert_eq!(serialize(&tokenize(html)), html);
    }

    #[test]
    fn attr_value_forms() {
        assert_eq!(attr_value(r#" src="a.gif" w=3"#, "src"), Some("a.gif"));
        assert_eq!(attr_value(r#" SRC='b.gif'"#, "src"), Some("b.gif"));
        assert_eq!(attr_value(" src=c.gif next", "src"), Some("c.gif"));
        assert_eq!(attr_value(" width=10", "src"), None);
        // Must not match inside another attribute name.
        assert_eq!(attr_value(" data-src=x.gif", "src"), None);
    }

    #[test]
    fn case_rewrite_lowers_tags_and_attrs_only() {
        let html = r#"<TABLE BORDER=0 WIDTH=600><TD ALIGN=LEFT><IMG SRC="Mixed/Case.GIF" ALT="Keep Me"></TD></TABLE>"#;
        let lower = rewrite_tag_case(html, false);
        // Attribute *values* (LEFT, the src path, the alt text) survive.
        assert_eq!(
            lower,
            r#"<table border=0 width=600><td align=LEFT><img src="Mixed/Case.GIF" alt="Keep Me"></td></table>"#
        );
        let upper = rewrite_tag_case(&lower, true);
        assert!(upper.contains("<TABLE BORDER=0"));
        assert!(upper.contains(r#"SRC="Mixed/Case.GIF""#), "{upper}");
    }

    #[test]
    fn unquoted_values_preserved_through_case_rewrite() {
        let html = "<a href=Index.HTML>x</a>";
        let lower = rewrite_tag_case(html, false);
        assert_eq!(lower, "<a href=Index.HTML>x</a>");
    }

    #[test]
    fn comments_and_doctype_preserved() {
        let html = "<!DOCTYPE HTML><!-- Keep CASE --><p>hi</p>";
        assert_eq!(rewrite_tag_case(html, false), html);
    }

    #[test]
    fn text_preserved_exactly() {
        let html = "Text with < unterminated";
        let tokens = tokenize(html);
        assert_eq!(serialize(&tokens), html);
    }

    #[test]
    fn lowercase_html_compresses_better() {
        // The paper's observation, checked against our own deflate.
        let mut html = String::new();
        for i in 0..400 {
            html.push_str(&format!(
                "<TABLE BORDER=0><TR><TD ALIGN=LEFT VALIGN=TOP>item {i} with some body text</TD></TR></TABLE>\n"
            ));
        }
        let lower = rewrite_tag_case(&html, false);
        let mixed_len = flate::deflate(html.as_bytes(), flate::Level::Default).len();
        let lower_len = flate::deflate(lower.as_bytes(), flate::Level::Default).len();
        assert!(
            lower_len < mixed_len,
            "lowercase ({lower_len}) must compress better than mixed ({mixed_len})"
        );
    }
}
