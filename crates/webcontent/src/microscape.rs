//! The "Microscape" synthetic test site.
//!
//! The paper merged the Netscape and Microsoft home pages into one test
//! page: 42 KB of HTML with 42 inlined GIFs totalling ~125 KB. The
//! published size histogram: 19 images under 1 KB, 7 between 1–2 KB, 6
//! between 2–3 KB, the rest larger with the biggest around 40 KB; 40
//! static images total 103,299 bytes and 2 animations total 24,988 bytes,
//! with over half the data in one large image plus the animations.
//!
//! [`Microscape::generate`] reproduces that inventory with real encoded
//! GIFs (sizes calibrated within a few percent) and deterministic content,
//! and exposes the variants the paper's experiments need: lowercase-tag
//! HTML, a pre-deflated HTML entity, and the CSS-converted page.

use crate::css::ReplacementAnalysis;
use crate::gif;
use crate::html;
use crate::synth::{self, ImageRole};
use std::sync::OnceLock;

/// A fixed virtual "last modified" calendar date for every object:
/// 1 June 1997 00:00:00 GMT, just before the paper's publication.
pub const SITE_MTIME: u64 = 865_123_200;

/// One servable object.
#[derive(Debug, Clone)]
pub struct SiteObject {
    /// Request path, e.g. `/images/nav03.gif`.
    pub path: String,
    /// MIME type for the `Content-Type` header.
    pub content_type: &'static str,
    /// Encoded object bytes (GIF data or HTML).
    pub body: Vec<u8>,
    /// `None` for the HTML page itself.
    pub role: Option<ImageRole>,
    /// Text the image depicts (for CSS replacement of banners).
    pub label: String,
    /// Modification time (epoch seconds) for validators.
    pub mtime: u64,
}

/// The generated site.
#[derive(Debug, Clone)]
pub struct Microscape {
    /// The page markup (mixed-case tags, as 1997 tools produced).
    pub html: String,
    /// The 42 images in document order.
    pub images: Vec<SiteObject>,
}

/// Specification of one image: (file name, label, role, target GIF bytes).
struct ImageSpec {
    name: &'static str,
    label: &'static str,
    role: ImageRole,
    target: usize,
}

/// The 40 static images. Targets sum to 103,299 bytes (the paper's static
/// total); the histogram matches: 19 < 1 KB, 7 in 1–2 KB, 6 in 2–3 KB,
/// 8 larger with a 40 KB maximum.
const STATIC_SPECS: [ImageSpec; 40] = [
    // 19 small images (< 1 KB): banners, bullets, spacers, rules, tiny icons.
    ImageSpec {
        name: "dot_clear.gif",
        label: "",
        role: ImageRole::Spacer,
        target: 70,
    },
    ImageSpec {
        name: "bullet1.gif",
        label: "",
        role: ImageRole::Bullet,
        target: 120,
    },
    ImageSpec {
        name: "bullet2.gif",
        label: "",
        role: ImageRole::Bullet,
        target: 160,
    },
    ImageSpec {
        name: "rule_gold.gif",
        label: "",
        role: ImageRole::Rule,
        target: 200,
    },
    ImageSpec {
        name: "arrow_r.gif",
        label: "",
        role: ImageRole::Bullet,
        target: 240,
    },
    ImageSpec {
        name: "spacer2.gif",
        label: "",
        role: ImageRole::Spacer,
        target: 280,
    },
    ImageSpec {
        name: "new_flash.gif",
        label: "new!",
        role: ImageRole::TextBanner,
        target: 320,
    },
    ImageSpec {
        name: "go.gif",
        label: "go",
        role: ImageRole::TextBanner,
        target: 360,
    },
    ImageSpec {
        name: "search.gif",
        label: "search",
        role: ImageRole::TextBanner,
        target: 400,
    },
    ImageSpec {
        name: "help.gif",
        label: "help",
        role: ImageRole::TextBanner,
        target: 440,
    },
    ImageSpec {
        name: "news.gif",
        label: "news",
        role: ImageRole::TextBanner,
        target: 480,
    },
    ImageSpec {
        name: "products.gif",
        label: "products",
        role: ImageRole::TextBanner,
        target: 520,
    },
    ImageSpec {
        name: "download.gif",
        label: "download",
        role: ImageRole::TextBanner,
        target: 560,
    },
    ImageSpec {
        name: "support.gif",
        label: "support",
        role: ImageRole::TextBanner,
        target: 620,
    },
    ImageSpec {
        name: "solutions.gif",
        label: "solutions",
        role: ImageRole::TextBanner,
        target: 682,
    },
    ImageSpec {
        name: "partners.gif",
        label: "partners",
        role: ImageRole::TextBanner,
        target: 740,
    },
    ImageSpec {
        name: "icon_doc.gif",
        label: "",
        role: ImageRole::Icon,
        target: 800,
    },
    ImageSpec {
        name: "icon_folder.gif",
        label: "",
        role: ImageRole::Icon,
        target: 860,
    },
    ImageSpec {
        name: "icon_mail.gif",
        label: "",
        role: ImageRole::Icon,
        target: 918,
    },
    // 7 images of 1–2 KB: navigation art.
    ImageSpec {
        name: "nav_home.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_100,
    },
    ImageSpec {
        name: "nav_dev.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_250,
    },
    ImageSpec {
        name: "nav_store.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_400,
    },
    ImageSpec {
        name: "nav_intl.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_550,
    },
    ImageSpec {
        name: "logo_corner.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_700,
    },
    ImageSpec {
        name: "toolbar_l.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_850,
    },
    ImageSpec {
        name: "toolbar_r.gif",
        label: "",
        role: ImageRole::Icon,
        target: 1_950,
    },
    // 6 images of 2–3 KB: larger artwork.
    ImageSpec {
        name: "masthead_l.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_100,
    },
    ImageSpec {
        name: "masthead_r.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_300,
    },
    ImageSpec {
        name: "promo_box1.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_500,
    },
    ImageSpec {
        name: "promo_box2.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_600,
    },
    ImageSpec {
        name: "promo_box3.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_800,
    },
    ImageSpec {
        name: "sidebar_art.gif",
        label: "",
        role: ImageRole::Photo,
        target: 2_880,
    },
    // 8 larger images; the 40 KB splash dominates.
    ImageSpec {
        name: "feature1.gif",
        label: "",
        role: ImageRole::Photo,
        target: 3_100,
    },
    ImageSpec {
        name: "feature2.gif",
        label: "",
        role: ImageRole::Photo,
        target: 3_300,
    },
    ImageSpec {
        name: "feature3.gif",
        label: "",
        role: ImageRole::Photo,
        target: 3_600,
    },
    ImageSpec {
        name: "banner_ad1.gif",
        label: "",
        role: ImageRole::Photo,
        target: 3_900,
    },
    ImageSpec {
        name: "banner_ad2.gif",
        label: "",
        role: ImageRole::Photo,
        target: 4_200,
    },
    ImageSpec {
        name: "screenshot.gif",
        label: "",
        role: ImageRole::Photo,
        target: 4_500,
    },
    ImageSpec {
        name: "product_shot.gif",
        label: "",
        role: ImageRole::Photo,
        target: 5_969,
    },
    ImageSpec {
        name: "splash_main.gif",
        label: "",
        role: ImageRole::Photo,
        target: 40_000,
    },
];

/// The paper's published totals, used by calibration checks.
pub const PAPER_STATIC_GIF_BYTES: usize = 103_299;
/// The PAPER ANIMATION GIF BYTES.
pub const PAPER_ANIMATION_GIF_BYTES: usize = 24_988;
/// Target HTML size: "typical HTML totaling 42KB".
pub const PAPER_HTML_BYTES: usize = 43_008;

fn synthesize_static(spec: &ImageSpec, seed: u64) -> Vec<u8> {
    let img = match spec.role {
        ImageRole::Spacer => {
            // Spacers are tiny; size scales with width only a little, so
            // grow dimensions until close to target.
            let mut best = synth::spacer(1, 1);
            for w in [1u32, 8, 16, 32, 64, 120, 200, 400, 640] {
                let cand = synth::spacer(w, (w / 8).max(1));
                if gif::encode(&cand).len() <= spec.target {
                    best = cand;
                } else {
                    break;
                }
            }
            best
        }
        ImageRole::Bullet => {
            let mut best = synth::bullet(6, seed);
            for d in 6..60u32 {
                let cand = synth::bullet(d, seed);
                if gif::encode(&cand).len() <= spec.target {
                    best = cand;
                } else {
                    break;
                }
            }
            best
        }
        ImageRole::Rule => {
            let mut best = synth::rule(40, 3);
            for w in (40..=640u32).step_by(20) {
                let cand = synth::rule(w, 4);
                if gif::encode(&cand).len() <= spec.target {
                    best = cand;
                } else {
                    break;
                }
            }
            best
        }
        ImageRole::TextBanner => {
            // Banner size tracks its area; search widths.
            let mut best = synth::banner(24, 16, seed);
            for w in (24..=400u32).step_by(8) {
                let cand = synth::banner(w, 22, seed);
                if gif::encode(&cand).len() <= spec.target {
                    best = cand;
                } else {
                    break;
                }
            }
            best
        }
        ImageRole::Icon => {
            // Icon art: structured graphic sized so the target falls
            // inside the detail knob's range, then calibrated.
            let (w, h) = dims_for_target(spec.target, 1.6);
            let (img, _) =
                synth::fit_to_gif_size(spec.target, 0.02, |d| synth::graphic(w, h, 16, d, seed));
            img
        }
        ImageRole::Photo => {
            let (w, h) = dims_for_target(spec.target, 1.5);
            let (img, _) =
                synth::fit_to_gif_size(spec.target, 0.02, |d| synth::graphic(w, h, 64, d, seed));
            img
        }
        ImageRole::Animation => unreachable!("animations handled separately"),
    };
    gif::encode(&img)
}

/// Pick dimensions whose encodable size range brackets `target` bytes:
/// roughly 2 pixels of area per target byte (flat art encodes near
/// 0.1 B/px, busy art near 1 B/px, so the knob spans the target).
fn dims_for_target(target: usize, aspect: f64) -> (u32, u32) {
    let area = (target as f64 * 2.0).max(256.0);
    let w = (area * aspect).sqrt().round().max(16.0) as u32;
    let h = ((area / w as f64).round() as u32).max(12);
    (w, h)
}

fn synthesize_animations() -> Vec<SiteObject> {
    // Two animations totalling ~24,988 bytes; the larger dominates.
    let specs = [
        ("anim_globe.gif", 140u32, 105u32, 13usize, 21u64),
        ("anim_new.gif", 112, 84, 8, 22),
    ];
    specs
        .iter()
        .map(|&(name, w, h, frames, seed)| {
            let anim = synth::animation(w, h, frames, seed);
            let body = gif::encode_animation(&anim);
            SiteObject {
                path: format!("/images/{name}"),
                content_type: "image/gif",
                body,
                role: Some(ImageRole::Animation),
                label: String::new(),
                mtime: SITE_MTIME,
            }
        })
        .collect()
}

fn build_html(images: &[SiteObject]) -> String {
    let mut page = String::with_capacity(PAPER_HTML_BYTES + 4096);
    page.push_str("<HTML>\n<HEAD>\n<TITLE>Microscape - Welcome to the Web</TITLE>\n</HEAD>\n");
    page.push_str("<BODY BGCOLOR=\"#FFFFFF\" TEXT=\"#000000\" LINK=\"#0000EE\">\n");

    // Navigation table with the first batch of images, like real 1997
    // home pages.
    page.push_str("<TABLE BORDER=0 CELLPADDING=0 CELLSPACING=0 WIDTH=600>\n<TR>\n");
    for (i, obj) in images.iter().enumerate() {
        if i % 6 == 0 && i > 0 {
            page.push_str("</TR>\n<TR>\n");
        }
        let dims = dims_hint(i);
        page.push_str(&format!(
            "<TD ALIGN=LEFT VALIGN=TOP><A HREF=\"/page{}.html\"><IMG SRC=\"{}\" {} BORDER=0 ALT=\"{}\"></A></TD>\n",
            i,
            obj.path,
            dims,
            if obj.label.is_empty() { "art" } else { &obj.label },
        ));
    }
    page.push_str("</TR>\n</TABLE>\n");

    // Body copy: varied prose with links. Vocabulary is mixed
    // deterministically so the page deflates like real 1997 HTML
    // (roughly 3:1), not like pathological repetition.
    let subjects = [
        "The network",
        "Our platform",
        "The new release",
        "Every intranet",
        "The developer kit",
        "This quarter's update",
        "The component model",
        "Our partner program",
        "The enterprise suite",
        "The browser",
        "The style sheet engine",
        "Our server family",
        "The protocol stack",
        "The graphics library",
        "Every workgroup",
        "The road map",
    ];
    let verbs = [
        "delivers",
        "accelerates",
        "simplifies",
        "transforms",
        "extends",
        "integrates",
        "streamlines",
        "redefines",
        "empowers",
        "connects",
        "consolidates",
        "automates",
        "secures",
        "scales",
    ];
    let objects = [
        "mission-critical publishing for distributed teams",
        "rich multimedia across heterogeneous desktops",
        "document workflow on open standards",
        "legacy data through a unified gateway",
        "collaborative authoring over the public Internet",
        "high-volume commerce with transactional integrity",
        "cross-platform deployment without plug-ins",
        "dynamic content from relational back ends",
        "personalized channels for every subscriber",
        "secure messaging between trading partners",
        "real-time quotes and custom portfolios",
        "searchable archives of technical notes",
        "global mirrors with automatic failover",
    ];
    let tails = [
        "Evaluation copies ship this week",
        "White papers and benchmarks are online now",
        "Registration is free for members of the program",
        "See the technical backgrounder for deployment details",
        "Training seminars begin in twelve cities this fall",
        "Analysts call it the category's defining product",
        "Localized editions cover nine languages at launch",
    ];
    // Early commerce sites carried per-session tokens in their URLs;
    // they give the page the byte entropy real 42 KB pages had (the
    // paper's corpus deflates ~3:1, not 10:1).
    let mut sid = 0x1234_5678_9abc_def0u64;
    let mut token = |n: usize| -> String {
        let mut t = String::new();
        for _ in 0..n {
            sid = sid
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            t.push_str(&format!("{:04x}", (sid >> 48) as u16));
        }
        t
    };
    // Hand-maintained 1997 pages mixed tag case freely; the paper's
    // tag-case compression study (.27 lowercase vs .35 mixed) relies on
    // exactly this inconsistency.
    let case_styles = [
        ("P", "A", "HREF"),
        ("p", "a", "href"),
        ("P", "a", "Href"),
        ("p", "A", "HREF"),
    ];
    let mut i = 0usize;
    while page.len() + 330 < PAPER_HTML_BYTES {
        let (tp, ta, thref) = case_styles[i % case_styles.len()];
        page.push_str(&format!(
            "<{tp}>{} {} {}. {}. <{ta} {thref}=\"/s{}/{}.html?sid={}\">Details</{ta}> | \
             <{ta} {thref}=\"/press/q{}/{}.html?sid={}\">Press</{ta}></{tp}>\n",
            subjects[i % subjects.len()],
            verbs[(i * 5 + 3) % verbs.len()],
            objects[(i * 7 + 1) % objects.len()],
            tails[(i * 11 + 2) % tails.len()],
            i % 9,
            (i * 13 + 7) % 97,
            token(6),
            i % 4 + 1,
            (i * 17 + 5) % 89,
            token(6),
        ));
        i += 1;
    }
    // Pad with a varied comment block to land near the target size.
    page.push_str("<!-- build: ");
    let mut k = 0u64;
    while page.len() + 16 < PAPER_HTML_BYTES {
        // Deterministic mixed tokens, not a run of one character.
        k = k
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        page.push_str(&format!("{:04x}", (k >> 48) as u16));
        page.push(if k % 3 == 0 { '-' } else { ' ' });
    }
    page.push_str("-->\n");
    page.push_str("</BODY></HTML>\n");
    // Exactness to the byte is not required (the paper says "42KB"), but
    // stay within a whisker.
    debug_assert!(
        (page.len() as i64 - PAPER_HTML_BYTES as i64).abs() < 64,
        "html size {} vs target {}",
        page.len(),
        PAPER_HTML_BYTES
    );
    page
}

fn dims_hint(i: usize) -> String {
    // Plausible WIDTH/HEIGHT attributes; exact values are cosmetic.
    let w = 40 + (i * 13) % 200;
    let h = 20 + (i * 7) % 60;
    format!("WIDTH={w} HEIGHT={h}")
}

impl Microscape {
    /// Generate the full site deterministically. It encodes candidates
    /// for each of 42 GIFs until each lands on its calibrated size: about
    /// 30 ms in a release build on a 2-core Xeon (the ledger's
    /// `webcontent.site_build_ms`). [`site`] caches one instance.
    pub fn generate() -> Microscape {
        let mut images: Vec<SiteObject> = STATIC_SPECS
            .iter()
            .enumerate()
            .map(|(i, spec)| SiteObject {
                path: format!("/images/{}", spec.name),
                content_type: "image/gif",
                body: synthesize_static(spec, 0x5EED_0000 + i as u64),
                role: Some(spec.role),
                label: spec.label.to_string(),
                mtime: SITE_MTIME,
            })
            .collect();
        images.extend(synthesize_animations());
        let html = build_html(&images);
        Microscape { html, images }
    }

    /// The page path.
    pub fn html_path(&self) -> &'static str {
        "/index.html"
    }

    /// Look up an object (including the HTML page) by path.
    pub fn object(&self, path: &str) -> Option<SiteObject> {
        if path == self.html_path() || path == "/" {
            return Some(SiteObject {
                path: self.html_path().to_string(),
                content_type: "text/html",
                body: self.html.clone().into_bytes(),
                role: None,
                label: String::new(),
                mtime: SITE_MTIME,
            });
        }
        self.images.iter().find(|o| o.path == path).cloned()
    }

    /// All request paths in browse order: the page, then its images as
    /// they appear in the markup.
    pub fn browse_order(&self) -> Vec<String> {
        let mut v = vec![self.html_path().to_string()];
        v.extend(html::inline_image_sources(&self.html));
        v
    }

    /// Total bytes of the 40 static GIFs.
    pub fn static_image_bytes(&self) -> usize {
        self.images
            .iter()
            .filter(|o| o.role != Some(ImageRole::Animation))
            .map(|o| o.body.len())
            .sum()
    }

    /// Total bytes of the 2 animations.
    pub fn animation_bytes(&self) -> usize {
        self.images
            .iter()
            .filter(|o| o.role == Some(ImageRole::Animation))
            .map(|o| o.body.len())
            .sum()
    }

    /// Histogram of static image sizes: (<1 KB, 1–2 KB, 2–3 KB, ≥3 KB).
    pub fn size_histogram(&self) -> (usize, usize, usize, usize) {
        let mut h = (0, 0, 0, 0);
        for o in &self.images {
            if o.role == Some(ImageRole::Animation) {
                continue;
            }
            match o.body.len() {
                0..=999 => h.0 += 1,
                1_000..=1_999 => h.1 += 1,
                2_000..=2_999 => h.2 += 1,
                _ => h.3 += 1,
            }
        }
        h
    }

    /// The HTML rewritten with all-lowercase tags (compression variant).
    pub fn html_lowercase(&self) -> String {
        html::rewrite_tag_case(&self.html, false)
    }

    /// Build the CSS-converted variant of the page: every replaceable
    /// image (banners, bullets, spacers, rules) becomes inline HTML styled
    /// by a shared `<STYLE>` block; photos, icons and animations remain
    /// `<IMG>` references. Returns the new markup and the objects a
    /// browser would still fetch.
    pub fn css_variant(&self) -> CssVariant {
        use crate::css;
        use crate::html::{attr_value, serialize, tokenize, HtmlToken};

        let analysis = self.css_analysis();
        let mut rules = Vec::new();
        #[expect(
            clippy::disallowed_types,
            reason = "keyed lookup only; the markup is walked in token order"
        )]
        let mut markup_for: std::collections::HashMap<String, String> =
            std::collections::HashMap::new();
        for (i, item) in analysis.items.iter().enumerate() {
            if !item.replaced {
                continue;
            }
            let class = format!("c{i}");
            let label = self
                .images
                .iter()
                .find(|o| o.path == item.path)
                .map(|o| o.label.clone())
                .unwrap_or_default();
            if let (Some(rule), Some(markup)) = (
                css::replacement_rule(item.role, &class),
                css::replacement_markup(item.role, &class, &label),
            ) {
                rules.push(rule);
                markup_for.insert(item.path.clone(), markup);
            }
        }
        let sheet = css::serialize(&css::Stylesheet { rules });

        let mut tokens = tokenize(&self.html);
        for t in &mut tokens {
            if let HtmlToken::Tag {
                name,
                attrs,
                closing,
            } = t
            {
                if !*closing && name.eq_ignore_ascii_case("head") {
                    continue;
                }
                if !*closing && name.eq_ignore_ascii_case("img") {
                    if let Some(src) = attr_value(attrs, "src") {
                        if let Some(markup) = markup_for.get(src) {
                            *t = HtmlToken::Text(markup.clone());
                        }
                    }
                }
            }
        }
        let mut html = serialize(&tokens);
        // Install the shared stylesheet at the end of <HEAD>.
        let style_block = format!("<STYLE TYPE=\"text/css\">{sheet}</STYLE>");
        if let Some(pos) = html.find("</HEAD>") {
            html.insert_str(pos, &style_block);
        } else {
            html.insert_str(0, &style_block);
        }

        let kept: Vec<SiteObject> = self
            .images
            .iter()
            .filter(|o| !markup_for.contains_key(&o.path))
            .cloned()
            .collect();
        CssVariant { html, kept }
    }

    /// CSS replacement analysis over the 40 static images (the animations
    /// are kept, as in the paper).
    pub fn css_analysis(&self) -> ReplacementAnalysis {
        let items: Vec<(String, ImageRole, usize, usize, String)> = self
            .images
            .iter()
            .map(|o| {
                let role = o.role.expect("images have roles");
                // Approximate the <IMG ...> markup bytes for this object.
                let tag = format!(
                    "<IMG SRC=\"{}\" WIDTH=100 HEIGHT=30 BORDER=0 ALT=\"{}\">",
                    o.path, o.label
                );
                (
                    o.path.clone(),
                    role,
                    o.body.len(),
                    tag.len(),
                    o.label.clone(),
                )
            })
            .collect();
        ReplacementAnalysis::analyze(&items)
    }
}

/// The CSS-converted page: new markup plus the images still referenced.
#[derive(Debug, Clone)]
pub struct CssVariant {
    /// The page with inline HTML+CSS replacing decorative images.
    pub html: String,
    /// Images the converted page still embeds.
    pub kept: Vec<SiteObject>,
}

/// The site, generated on first use and shared for the life of the
/// process: [`Microscape::generate`] takes about 30 ms in release.
pub fn site() -> &'static Microscape {
    static SITE: OnceLock<Microscape> = OnceLock::new();
    SITE.get_or_init(Microscape::generate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_paper() {
        let s = site();
        assert_eq!(s.images.len(), 42, "42 inlined images");
        let statics = s.static_image_bytes();
        let anims = s.animation_bytes();
        // Within 10% of the published totals.
        let static_err =
            (statics as f64 - PAPER_STATIC_GIF_BYTES as f64).abs() / PAPER_STATIC_GIF_BYTES as f64;
        assert!(
            static_err < 0.10,
            "static bytes {statics} vs paper {PAPER_STATIC_GIF_BYTES} (err {static_err:.3})"
        );
        let anim_err = (anims as f64 - PAPER_ANIMATION_GIF_BYTES as f64).abs()
            / PAPER_ANIMATION_GIF_BYTES as f64;
        assert!(
            anim_err < 0.45,
            "animation bytes {anims} vs paper {PAPER_ANIMATION_GIF_BYTES} (err {anim_err:.3})"
        );
    }

    #[test]
    fn histogram_matches_paper() {
        let (small, mid, upper, big) = site().size_histogram();
        assert_eq!(small, 19, "19 images under 1KB");
        assert_eq!(mid, 7, "7 images of 1-2KB");
        assert_eq!(upper, 6, "6 images of 2-3KB");
        assert_eq!(big, 8);
    }

    #[test]
    fn html_is_42k() {
        let s = site();
        let err = (s.html.len() as i64 - PAPER_HTML_BYTES as i64).abs();
        assert!(err < 64, "html is {} bytes", s.html.len());
    }

    #[test]
    fn browse_order_is_43_requests() {
        let order = site().browse_order();
        assert_eq!(order.len(), 43, "1 HTML + 42 images");
        assert_eq!(order[0], "/index.html");
        assert!(order[1..].iter().all(|p| p.starts_with("/images/")));
    }

    #[test]
    fn all_objects_resolvable() {
        let s = site();
        for path in s.browse_order() {
            let obj = s.object(&path).unwrap_or_else(|| panic!("missing {path}"));
            assert!(!obj.body.is_empty());
        }
        assert!(s.object("/nonexistent.gif").is_none());
    }

    #[test]
    fn images_are_valid_gifs() {
        let s = site();
        let mut animated = 0;
        for obj in &s.images {
            let dec = crate::gif::decode(&obj.body).expect("valid gif");
            if dec.animated {
                animated += 1;
            }
        }
        assert_eq!(animated, 2);
    }

    #[test]
    fn solutions_banner_near_682_bytes() {
        let s = site();
        let obj = s.object("/images/solutions.gif").unwrap();
        let n = obj.body.len();
        assert!(
            (400..=720).contains(&n),
            "solutions.gif should be near 682 bytes, got {n}"
        );
    }

    #[test]
    fn over_half_the_bytes_in_splash_plus_animations() {
        let s = site();
        let splash = s.object("/images/splash_main.gif").unwrap().body.len();
        let total = s.static_image_bytes() + s.animation_bytes();
        assert!(
            splash + s.animation_bytes() > total / 2,
            "paper: one image + two animations hold over half the data"
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = Microscape::generate();
        let b = Microscape::generate();
        assert_eq!(a.html, b.html);
        for (x, y) in a.images.iter().zip(&b.images) {
            assert_eq!(x.body, y.body, "image {} differs", x.path);
        }
    }

    #[test]
    fn site_bytes_are_pinned() {
        // Sizes and ETags keep their values under an encoder that emits
        // different bytes of the same lengths; this digest does not.
        // FNV-1a over the HTML, then each image's path and body in order.
        fn feed(h: &mut u64, bytes: &[u8]) {
            for &b in bytes {
                *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        let s = Microscape::generate();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        feed(&mut h, s.html.as_bytes());
        let mut total = s.html.len();
        for o in &s.images {
            feed(&mut h, o.path.as_bytes());
            feed(&mut h, &o.body);
            total += o.body.len();
        }
        assert_eq!(
            (h, total),
            (0x6ab6_b718_bc83_8801, 173_211),
            "site digest, bytes"
        );
    }

    #[test]
    fn html_compresses_about_three_to_one() {
        let s = site();
        let z = flate::deflate(s.html.as_bytes(), flate::Level::Default);
        let ratio = z.len() as f64 / s.html.len() as f64;
        assert!(
            ratio < 0.40,
            "42KB HTML should deflate to ~11-16KB, ratio {ratio:.3}"
        );
    }

    #[test]
    fn deflated_page_inflates_resumably_at_every_prefix() {
        // The page as a client receives it: one resumable inflater, handed
        // every prefix length of the stream in turn, only ever extends
        // its output, and ends with what `inflate` makes of the whole.
        let html = site().html.as_bytes();
        let z = flate::deflate(html, flate::Level::Default);
        let mut inflater = flate::Inflater::default();
        let mut seen = 0;
        for len in 0..=z.len() {
            assert_eq!(inflater.advance(&z[..len]), Ok(len == z.len()));
            let out = inflater.output();
            assert_eq!(&out[seen..], &html[seen..out.len()], "prefix {len}");
            assert!(inflater.consumed() <= len);
            seen = out.len();
        }
        assert_eq!(inflater.output(), flate::inflate(&z).unwrap());
    }

    #[test]
    fn css_variant_page() {
        let s = site();
        let v = s.css_variant();
        assert!(v.kept.len() < 42, "some images replaced");
        assert!(v.kept.len() >= 20, "photos/icons/animations kept");
        assert!(v.html.contains("<STYLE"), "stylesheet installed");
        // The converted page references exactly the kept images.
        let srcs = crate::html::inline_image_sources(&v.html);
        assert_eq!(srcs.len(), v.kept.len());
        // Total payload (html + kept images) shrinks versus the original.
        let orig = s.html.len() + s.images.iter().map(|o| o.body.len()).sum::<usize>();
        let conv = v.html.len() + v.kept.iter().map(|o| o.body.len()).sum::<usize>();
        assert!(conv < orig);
    }

    #[test]
    fn css_analysis_shape() {
        let a = site().css_analysis();
        // Banners, bullets, spacers and rules are replaceable: 16 of 42.
        assert!(a.replaced_count() >= 12, "got {}", a.replaced_count());
        assert!(a.bytes_saved() > 5_000);
        assert!(a.requests_saved() >= 12);
    }
}
