//! The server's content store: entities with validators and optional
//! pre-deflated variants.
//!
//! The paper's compression test serves a *pre-computed* deflated copy of
//! the Microscape HTML ("the server does not perform on-the-fly
//! compression") — the store models exactly that: each entity may carry a
//! deflate-encoded alternate body prepared at store-build time.

use bytes::Bytes;
use httpwire::validators::{ETag, Validators};
use netsim::fxhash::FxHashMap;
use std::sync::Arc;

/// One servable entity.
#[derive(Debug, Clone)]
pub struct Entity {
    /// The identity (uncompressed) representation.
    pub body: Bytes,
    /// MIME type served in `Content-Type`.
    pub content_type: String,
    /// Cache validators (ETag / Last-Modified).
    pub validators: Validators,
    /// Pre-computed `Content-Encoding: deflate` body, if enabled for this
    /// content type.
    pub deflated: Option<Bytes>,
}

impl Entity {
    /// Build an entity with derived validators (strong ETag + the given
    /// modification time).
    pub fn new(body: impl Into<Bytes>, content_type: &str, mtime: u64) -> Entity {
        let body = body.into();
        Entity {
            validators: Validators {
                etag: Some(ETag::derive(&body, mtime)),
                last_modified: Some(mtime),
            },
            body,
            content_type: content_type.to_string(),
            deflated: None,
        }
    }

    /// Attach a pre-computed deflated variant.
    pub fn with_deflate(mut self) -> Entity {
        self.deflated = Some(Bytes::from(httpwire::coding::deflate_entity(&self.body)));
        self
    }
}

/// A path → entity map shared by server instances.
#[derive(Debug, Default)]
pub struct SiteStore {
    /// Keyed lookup only (get/insert by path); `total_bytes` is the one
    /// walk, a sum, so map order cannot leak into a run.
    entities: FxHashMap<String, Entity>,
}

impl SiteStore {
    /// Create a new, empty instance.
    pub fn new() -> Self {
        SiteStore::default()
    }

    /// Insert an entity at a path.
    pub fn insert(&mut self, path: &str, entity: Entity) {
        self.entities.insert(path.to_string(), entity);
    }

    /// Look up an entity by request path.
    pub fn get(&self, path: &str) -> Option<&Entity> {
        self.entities.get(path)
    }

    /// Number of contained elements.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True when nothing is contained.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }

    /// Total body bytes stored (identity representations).
    pub fn total_bytes(&self) -> usize {
        self.entities.values().map(|e| e.body.len()).sum()
    }

    /// Wrap in an `Arc` for sharing across server instances.
    pub fn into_shared(self) -> Arc<SiteStore> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entity_gets_validators() {
        let e = Entity::new(&b"hello"[..], "text/plain", 1000);
        assert!(e.validators.etag.is_some());
        assert_eq!(e.validators.last_modified, Some(1000));
    }

    #[test]
    fn deflate_variant_smaller_for_html() {
        let html = "<p>compressible compressible compressible</p>".repeat(50);
        let e = Entity::new(html.clone().into_bytes(), "text/html", 1000).with_deflate();
        let d = e.deflated.as_ref().unwrap();
        assert!(d.len() < html.len() / 3);
        // And it round-trips.
        let back = httpwire::coding::decode(httpwire::ContentCoding::Deflate, d).unwrap();
        assert_eq!(back, html.as_bytes());
    }

    #[test]
    fn store_lookup() {
        let mut s = SiteStore::new();
        s.insert("/a", Entity::new(&b"A"[..], "text/plain", 1));
        s.insert("/b", Entity::new(&b"BB"[..], "text/plain", 1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bytes(), 3);
        assert!(s.get("/a").is_some());
        assert!(s.get("/c").is_none());
    }
}
