//! The client's persistent cache.
//!
//! Stores entity metadata (validators, size) and optionally bodies.
//! The revalidation experiments prime this cache — as if a first visit
//! already happened — and the client then issues the appropriate
//! conditional requests. The paper notes libwww's two-files-per-object
//! persistent cache became a bottleneck and was moved to a memory file
//! system; ours models the memory-backed variant (no I/O cost).

use httpwire::validators::{ETag, Validators};
use std::sync::Arc;

/// One cached entity.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheEntry {
    /// Validators learned from the response.
    pub validators: Validators,
    /// Size of the cached body in bytes.
    pub body_len: usize,
    /// Image paths discovered when this entity was HTML (used to schedule
    /// revalidation of embedded objects without re-parsing).
    pub embedded: Vec<Arc<str>>,
}

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup only (get/insert by path); never iterated, so map order cannot leak into a run"
)]
type Entries = std::collections::HashMap<Arc<str>, CacheEntry>;

/// Path-keyed client cache. A primed cache is cloned into every run that
/// revalidates: a clone shares the entries written before it (`base`),
/// and a write goes into `base` while nothing else shares it and beside
/// it (`own`) otherwise, so a clone costs a pointer and its writes copy
/// nothing.
#[derive(Debug, Clone, Default)]
pub struct ClientCache {
    /// The entries written while no other clone shared them.
    base: Arc<Entries>,
    /// The entries written since, each in place of its path's `base` one.
    own: Entries,
    /// How many paths `own` holds that `base` lacks.
    added: usize,
}

impl ClientCache {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        ClientCache::default()
    }

    /// Store or replace an entry. The path is stored as given, so a
    /// caller holding it shares it with the cache.
    pub fn insert(&mut self, path: Arc<str>, entry: CacheEntry) {
        match Arc::get_mut(&mut self.base) {
            Some(base) if !self.own.contains_key(&path) => {
                base.insert(path, entry);
            }
            _ => {
                let added = !self.base.contains_key(&path);
                if self.own.insert(path, entry).is_none() && added {
                    self.added += 1;
                }
            }
        }
    }

    /// Look up a cached entry by path.
    pub fn get(&self, path: &str) -> Option<&CacheEntry> {
        self.own.get(path).or_else(|| self.base.get(path))
    }

    /// The cache's own copy of `path`, if it holds an entry for it.
    pub fn key(&self, path: &str) -> Option<&Arc<str>> {
        let stored = self.own.get_key_value(path);
        stored
            .or_else(|| self.base.get_key_value(path))
            .map(|(key, _)| key)
    }

    /// Whether an entry with this name exists.
    pub fn contains(&self, path: &str) -> bool {
        self.get(path).is_some()
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.base.len() + self.added
    }

    /// True when nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Convenience for priming from known content: derive the validators
    /// a server built with the same body/mtime would produce. The content
    /// type is not kept: nothing reads it.
    pub fn prime(
        &mut self,
        path: &str,
        body: &[u8],
        _content_type: &str,
        mtime: u64,
        embedded: Vec<String>,
    ) {
        self.insert(
            path.into(),
            CacheEntry {
                validators: Validators {
                    etag: Some(ETag::derive(body, mtime)),
                    last_modified: Some(mtime),
                },
                body_len: body.len(),
                embedded: embedded.into_iter().map(Arc::from).collect(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_and_lookup() {
        let mut c = ClientCache::new();
        c.prime("/x.gif", b"GIFDATA", "image/gif", 100, vec![]);
        assert!(c.contains("/x.gif"));
        let e = c.get("/x.gif").unwrap();
        assert_eq!(e.body_len, 7);
        assert!(e.validators.etag.is_some());
        assert!(!c.contains("/y.gif"));
        assert_eq!(c.key("/x.gif").map(|k| &**k), Some("/x.gif"));
    }

    #[test]
    fn primed_etag_matches_server_derivation() {
        let mut c = ClientCache::new();
        c.prime("/a", b"same bytes", "image/gif", 42, vec![]);
        let server_side = ETag::derive(b"same bytes", 42);
        assert_eq!(c.get("/a").unwrap().validators.etag, Some(server_side));
    }

    #[test]
    fn a_clone_shares_its_entries_and_keeps_its_writes() {
        let mut primed = ClientCache::new();
        primed.prime("/a.gif", b"a", "image/gif", 1, vec![]);
        let mut run = primed.clone();
        run.prime("/b.gif", b"b", "image/gif", 1, vec![]);
        run.prime("/a.gif", b"aa", "image/gif", 1, vec![]);
        run.prime("/a.gif", b"aaa", "image/gif", 1, vec![]);
        // The clone wrote beside the shared entries, never into them.
        assert!(Arc::ptr_eq(&run.base, &primed.base));
        assert_eq!((primed.len(), run.len()), (1, 2));
        assert_eq!(primed.get("/a.gif").unwrap().body_len, 1);
        assert_eq!(run.get("/a.gif").unwrap().body_len, 3);
        assert!(!primed.contains("/b.gif") && run.contains("/b.gif"));
        // Once it is the only holder it writes in place again, and an
        // entry of its own still wins.
        drop(primed);
        run.prime("/c.gif", b"c", "image/gif", 1, vec![]);
        run.prime("/a.gif", b"aaaa", "image/gif", 1, vec![]);
        assert_eq!(run.len(), 3);
        assert_eq!(run.get("/a.gif").unwrap().body_len, 4);
    }

    #[test]
    fn embedded_list_preserved() {
        let mut c = ClientCache::new();
        c.prime(
            "/index.html",
            b"<html>",
            "text/html",
            1,
            vec!["/a.gif".into(), "/b.gif".into()],
        );
        assert_eq!(c.get("/index.html").unwrap().embedded.len(), 2);
    }
}
