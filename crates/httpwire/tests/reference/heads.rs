//! The header-block parser as it was before the canonical-block copy:
//! split on LF, drop the trailing CRs, skip the empty lines, and split
//! each line at its first colon, trimming OWS off the value. Test-only: it
//! is what `HeaderMap`'s unit tests compare `HeaderMap::parse` with, so it
//! names the map as its includer sees it.

use super::HeaderMap;

/// Is `name` an RFC 9110 `token` (one or more `tchar`s)?
fn is_token(name: &str) -> bool {
    let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    !name.is_empty() && name.bytes().all(tchar)
}

/// The map `block` parses to, or `None` when a line has no colon or its
/// name is not a token.
pub fn parse(block: &str) -> Option<HeaderMap> {
    let lines = || {
        block
            .split('\n')
            .map(|line| line.trim_end_matches('\r'))
            .filter(|line| !line.is_empty())
            .map(|line| {
                line.split_once(':')
                    .map(|(n, v)| (n, v.trim_matches([' ', '\t'])))
            })
    };
    let mut bytes = 0;
    for line in lines() {
        let (name, value) = line.filter(|(name, _)| is_token(name))?;
        bytes += name.len() + value.len() + 4;
    }
    let mut map = HeaderMap::with_capacity(bytes);
    for (name, value) in lines().flatten() {
        map.append(name, value);
    }
    Some(map)
}
