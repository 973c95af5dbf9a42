//! First-party site assembly.
//!
//! Builds the landing page each ranked origin serves: failure class,
//! headers, tracker includes, first-party permission behaviours, widget
//! iframes with their delegation attributes, and local-document frames.

use std::fmt::Write;

use netsim::FetchError;

use crate::hashing::{chance, pick, pick_weighted, unit};
use crate::headers;
use crate::scripts;
use crate::trackers;
use crate::widgets::{self, Widget};

/// How a site fails, if it does (calibrated to the §4 crawl funnel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureClass {
    /// Healthy site.
    None,
    /// DNS never resolves (2.77%).
    Dns,
    /// Load exceeds the 60-second budget (2.87%).
    Slow,
    /// Ephemeral content error during collection (6.02%).
    Ephemeral,
    /// Crashes the crawler (0.03%).
    Crash,
    /// So iframe-heavy the 90-second page budget trips (≈6.5%, the
    /// excluded-site share).
    Heavy,
}

/// The failure class of a site.
pub fn failure_class(seed: u64, rank: u64) -> FailureClass {
    let u = unit(seed, rank, "failure");
    // Cumulative thresholds.
    if u < 0.0277 {
        FailureClass::Dns
    } else if u < 0.0277 + 0.0287 {
        FailureClass::Slow
    } else if u < 0.0277 + 0.0287 + 0.0602 {
        FailureClass::Ephemeral
    } else if u < 0.0277 + 0.0287 + 0.0602 + 0.000315 {
        FailureClass::Crash
    } else if u < 0.0277 + 0.0287 + 0.0602 + 0.000315 + 0.065 {
        FailureClass::Heavy
    } else {
        FailureClass::None
    }
}

/// Post-fetch failure injected for a site, if any.
pub fn post_fetch_failure(seed: u64, rank: u64) -> Option<FetchError> {
    match failure_class(seed, rank) {
        FailureClass::Ephemeral => Some(FetchError::EphemeralContext),
        FailureClass::Crash => Some(FetchError::CrawlerCrash),
        _ => None,
    }
}

/// Whether the CrUX origin redirects to its www/apex twin (extra
/// top-level documents in the crawl, like the paper's 1.12M top-level
/// docs for 818k sites).
pub fn redirects(seed: u64, rank: u64) -> bool {
    chance(seed, rank, "redirect", 0.15)
}

/// Page-fetch latency in milliseconds.
pub fn latency_ms(seed: u64, rank: u64) -> u64 {
    match failure_class(seed, rank) {
        FailureClass::Slow => 65_000 + (unit(seed, rank, "slowness") * 120_000.0) as u64,
        _ => 60 + (unit(seed, rank, "latency") * 900.0) as u64,
    }
}

/// The widgets a site embeds, with per-site frame counts, in catalog
/// order.
pub fn embedded_widgets(seed: u64, rank: u64) -> impl Iterator<Item = (&'static Widget, u8)> {
    // Ad networks co-occur: DoubleClick mostly rides along on sites that
    // already run Google Syndication (the paper's union of delegating
    // sites is well below the sum of the per-network counts).
    let has_gsynd = chance(seed, rank, "incl-googlesyndication", 0.0309);
    widgets::CATALOG.iter().filter_map(move |w| {
        let included = match w.key {
            "googlesyndication" => has_gsynd,
            "doubleclick" => {
                if has_gsynd {
                    chance(seed, rank, "incl-doubleclick-co", 0.55)
                } else {
                    chance(seed, rank, "incl-doubleclick-solo", 0.0175)
                }
            }
            _ => chance(seed, rank, ("incl-", w.key), w.inclusion),
        };
        included.then(|| {
            let (lo, hi) = w.count_range;
            let span = (hi - lo + 1) as usize;
            (w, lo + pick(seed, rank, ("count-", w.key), span) as u8)
        })
    })
}

/// Appends one widget iframe tag to `out`, applying the delegation
/// decision and the §4.2.2 directive-mutation tail (`'none'`, explicit
/// `'src'`, specific origins). Delegation is decided per *site* (embed
/// code is a template pasted once), so every frame of a widget on a page
/// agrees.
fn widget_iframe(out: &mut String, seed: u64, rank: u64, w: &Widget, idx: u8) {
    let _ = write!(
        out,
        "<iframe id=\"{key}-{idx}\" src=\"https://{host}/embed?s={rank}&i={idx}\"",
        key = w.key,
        host = w.frame_host
    );
    if chance(seed, rank, ("deleg-", w.key), w.delegation_rate) {
        out.push_str(" allow=\"");
        // Directive tail mutations (rare, matching §4.2.2's 0.40% explicit
        // src / 0.16% specific / 0.15% none).
        let template = w.allow_template;
        match pick_weighted(
            seed,
            rank,
            ("dirmut-iframe-", w.key, "-", usize::from(idx)),
            &[0.9915, 0.0040, 0.0016, 0.0015, 0.0014],
        ) {
            1 => {
                // Explicit 'src' on the first feature.
                for (i, part) in template.split(';').enumerate() {
                    let part = part.trim();
                    if i > 0 {
                        out.push_str("; ");
                    }
                    out.push_str(part);
                    if i == 0 && !part.contains(' ') {
                        out.push_str(" 'src'");
                    }
                }
            }
            2 => {
                // Specific origin instead of the default.
                let _ = write!(
                    out,
                    "{} https://{}",
                    template.trim_end_matches(';'),
                    w.frame_host
                );
            }
            3 => {
                let trimmed = template.trim_end();
                out.push_str(trimmed);
                if !trimmed.ends_with(';') {
                    out.push(';');
                }
                out.push_str(" gamepad 'none';");
            }
            _ => out.push_str(template),
        }
        out.push('"');
    }
    if chance(
        seed,
        rank,
        ("lazy-iframe-", w.key, "-", usize::from(idx)),
        w.lazy_rate,
    ) {
        out.push_str(" loading=\"lazy\"");
    }
    out.push_str("></iframe>\n");
}

/// Appends the first-party inline behaviours to `out`, one `<script>`
/// each (calibrated to Tables 4–6's first-party shares and the
/// static-vs-dynamic gaps).
fn first_party_scripts(out: &mut String, seed: u64, rank: u64) {
    let mut add = |salt: &str, p: f64, make: &dyn Fn() -> String| {
        if chance(seed, rank, salt, p) {
            out.push_str("<script>");
            out.push_str(&make());
            out.push_str("</script>\n");
        }
    };
    // Interaction-gated (static-only under the no-interaction crawl).
    add("fp-share", 0.065, &|| {
        scripts::click_gated(&scripts::clipboard_share_handler())
    });
    add("fp-webshare", 0.018, &|| {
        scripts::click_gated(&scripts::web_share_handler())
    });
    add("fp-geo-btn", 0.07, &|| {
        scripts::click_gated(&scripts::geolocation_handler())
    });
    add("fp-gum-call", 0.02, &|| {
        scripts::click_gated(&scripts::get_user_media(true, true))
    });
    // Dead code shipped in bundles (static-only).
    add("fp-battery-dead", 0.012, &|| {
        scripts::dead_code(&scripts::battery(false))
    });
    add("fp-notif-dead", 0.02, &|| {
        scripts::dead_code(&scripts::notifications_prompt())
    });
    add("fp-topics-dead", 0.006, &|| {
        scripts::dead_code(&scripts::browsing_topics())
    });
    // Live first-party behaviour (dynamic + static).
    add("fp-geo-direct", 0.0045, &|| scripts::geolocation_direct());
    add("fp-battery", 0.007, &|| scripts::battery(false));
    add("fp-notif", 0.005, &|| scripts::notifications_prompt());
    add("fp-pkc", 0.007, &|| scripts::publickey_credentials_get());
    add("fp-emedia", 0.0015, &|| scripts::encrypted_media());
    add("fp-payment", 0.0007, &|| scripts::payment());
    add("fp-kbdmap", 0.0008, &|| scripts::keyboard_map());
    // First-party status checks (Table 5's 1p-heavy rows).
    add("fp-q-geo", 0.0085, &|| {
        scripts::permissions_query("geolocation")
    });
    add("fp-q-micam", 0.012, &|| {
        format!(
            "{}{}",
            scripts::permissions_query("microphone"),
            scripts::permissions_query("camera")
        )
    });
    add("fp-q-notif", 0.010, &|| {
        scripts::permissions_query("notifications")
    });
    add("fp-q-push", 0.005, &|| scripts::permissions_query("push"));
    // Modern bundle shapes (classes, closures, async/await) carrying the
    // same permission probes — richer scenarios both engines must agree on.
    add("fp-sdk-class", 0.004, &|| {
        scripts::permission_helper_class("geolocation")
    });
    add("fp-closure-probe", 0.003, &|| scripts::closure_probe());
    add("fp-async-gum", 0.004, &|| scripts::async_gum_flow());
}

/// Appends the landing page's local-document iframes to `out` (consent
/// frames, blank placeholders) — a large share of the paper's 54.1%
/// local embedded documents. A sliver of sites delegate permissions to
/// them (the 135,341 − 121,043 gap between any-delegation and
/// external-delegation).
fn local_iframes(out: &mut String, seed: u64, rank: u64) {
    if !chance(seed, rank, "locals-any", 0.42) {
        return;
    }
    let count = 1 + pick(seed, rank, "locals-count", 2);
    for i in 0..count {
        let allow = if chance(seed, rank, ("local-allow-", i), 0.022) {
            " allow=\"autoplay; fullscreen\""
        } else {
            ""
        };
        let sandbox = if chance(seed, rank, ("local-sandbox-", i), 0.3) {
            " sandbox=\"allow-scripts allow-same-origin\""
        } else {
            ""
        };
        let _ = match pick(seed, rank, ("local-kind-", i), 3) {
            0 => writeln!(
                out,
                "<iframe id=\"local{i}\" srcdoc=\"<p>consent {i}</p>\"{allow}{sandbox}></iframe>"
            ),
            1 => writeln!(
                out,
                "<iframe id=\"local{i}\" src=\"about:blank\"{allow}></iframe>"
            ),
            _ => writeln!(
                out,
                "<iframe id=\"local{i}\" src=\"javascript:void(0)\"{allow}></iframe>"
            ),
        };
    }
}

/// The top-level Permissions-Policy header for this site, if deployed.
pub fn page_pp_header(seed: u64, rank: u64) -> Option<String> {
    let fp = chance(seed, rank, "hdr-fp", headers::FP_HEADER_RATE);
    let pp = chance(seed, rank, "hdr-pp", headers::PP_HEADER_RATE)
        || (fp && chance(seed, rank, "hdr-overlap", 0.5));
    pp.then(|| headers::permissions_policy_header(seed, rank, "trusted.example"))
}

/// The top-level Feature-Policy header for this site, if deployed.
pub fn page_fp_header(seed: u64, rank: u64) -> Option<String> {
    chance(seed, rank, "hdr-fp", headers::FP_HEADER_RATE)
        .then(|| headers::feature_policy_header(seed, rank))
}

/// The Content-Security-Policy header for this site, if deployed.
///
/// ~16% of sites ship a CSP; only a quarter of those restrict frames —
/// the §6.2 precondition split. Frame-restricting policies allow `https:`
/// sources, so widgets still load; what they block is the `data:`
/// injection vector of the local-scheme attack.
pub fn page_csp_header(seed: u64, rank: u64) -> Option<String> {
    if !chance(seed, rank, "hdr-csp", 0.16) {
        return None;
    }
    Some(
        match pick_weighted(seed, rank, "csp-kind", &[0.72, 0.18, 0.07, 0.03]) {
            0 => "script-src 'self' https:; object-src 'none'".to_string(),
            1 => "default-src 'self' https:; script-src 'self' https:".to_string(),
            2 => "frame-src 'self' https:; script-src 'self' https:".to_string(),
            _ => "frame-src 'self'".to_string(),
        },
    )
}

/// Room for the landing page: 98% of generated pages fit, so most are
/// written without growing the buffer.
const PAGE_CAPACITY: usize = 1024;

/// Builds the landing-page HTML for a site, written into one buffer.
pub fn page_html(seed: u64, rank: u64) -> String {
    let mut page = String::with_capacity(PAGE_CAPACITY);
    let _ = write!(
        page,
        "<!DOCTYPE html>\n<html><head><title>site {rank}</title></head><body>\n"
    );

    // Shared third-party scripts.
    for t in trackers::CATALOG {
        if chance(seed, rank, ("trk-", t.key), t.inclusion) {
            let _ = writeln!(
                page,
                "<script src=\"https://{}{}?s={rank}\"></script>",
                t.host, t.path
            );
        }
    }

    // First-party inline behaviour.
    first_party_scripts(&mut page, seed, rank);

    // Widgets.
    for (w, count) in embedded_widgets(seed, rank) {
        for idx in 0..count {
            widget_iframe(&mut page, seed, rank, w, idx);
        }
    }

    // Local frames.
    local_iframes(&mut page, seed, rank);

    // Heavy sites: first-party frames slow enough to trip the 90 s page
    // budget (the excluded-site mechanism).
    if failure_class(seed, rank) == FailureClass::Heavy {
        for i in 0..12 {
            let _ = writeln!(page, "<iframe src=\"/slow{i}\"></iframe>");
        }
    }

    // Same-origin navigation targets for interaction mode.
    page.push_str("<a href=\"/about\">about</a>\n<a href=\"/contact\">contact</a>\n");
    page.push_str("<button id=\"cta\">start</button>\n");
    page.push_str("</body></html>\n");
    page
}

/// A secondary same-origin page (interaction-mode navigation target):
/// keeps the first-party behaviour, drops the widgets.
pub fn secondary_page_html(seed: u64, rank: u64) -> String {
    let mut page = String::from("<!DOCTYPE html>\n<html><body>\n");
    first_party_scripts(&mut page, seed, rank);
    page.push_str("<a href=\"/\">home</a>\n</body></html>\n");
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_rates_are_calibrated() {
        let n = 40_000u64;
        let mut dns = 0;
        let mut slow = 0;
        let mut ephemeral = 0;
        let mut heavy = 0;
        for r in 0..n {
            match failure_class(5, r) {
                FailureClass::Dns => dns += 1,
                FailureClass::Slow => slow += 1,
                FailureClass::Ephemeral => ephemeral += 1,
                FailureClass::Heavy => heavy += 1,
                _ => {}
            }
        }
        let f = |x: i32| x as f64 / n as f64;
        assert!((f(dns) - 0.0277).abs() < 0.005, "dns {}", f(dns));
        assert!((f(slow) - 0.0287).abs() < 0.005, "slow {}", f(slow));
        assert!(
            (f(ephemeral) - 0.0602).abs() < 0.006,
            "ephemeral {}",
            f(ephemeral)
        );
        assert!((f(heavy) - 0.065).abs() < 0.006, "heavy {}", f(heavy));
    }

    #[test]
    fn page_html_parses_and_is_plausible() {
        for rank in [1u64, 10, 500, 9_999] {
            let html = page_html(7, rank);
            let doc = html::scan(&html);
            for script in &doc.scripts {
                if let Some(inline) = &script.inline {
                    jsland::check_syntax(inline).unwrap();
                }
            }
            assert!(!doc.links.is_empty());
        }
    }

    #[test]
    fn iframe_presence_rate() {
        let n = 4_000u64;
        let with_iframe = (0..n)
            .filter(|&r| {
                failure_class(7, r) == FailureClass::None && {
                    let doc = html::scan(&page_html(7, r));
                    !doc.iframes.is_empty()
                }
            })
            .count();
        let healthy = (0..n)
            .filter(|&r| failure_class(7, r) == FailureClass::None)
            .count();
        let rate = with_iframe as f64 / healthy as f64;
        // Paper: 66.7% of websites contain at least one iframe.
        assert!((0.55..0.78).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn delegation_rate_matches_paper_ballpark() {
        let n = 6_000u64;
        let mut delegating = 0usize;
        let mut healthy = 0usize;
        for r in 0..n {
            if failure_class(7, r) != FailureClass::None {
                continue;
            }
            healthy += 1;
            let doc = html::scan(&page_html(7, r));
            if doc.iframes.iter().any(|f| {
                f.allow
                    .as_deref()
                    .map(|a| policy::parse_allow_attribute(a).delegates_anything())
                    .unwrap_or(false)
            }) {
                delegating += 1;
            }
        }
        let rate = delegating as f64 / healthy as f64;
        // Paper: 12.07% of websites delegate permissions.
        assert!((0.08..0.17).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn pp_header_rate_matches_paper() {
        let n = 40_000u64;
        let with_header = (0..n).filter(|&r| page_pp_header(7, r).is_some()).count();
        let rate = with_header as f64 / n as f64;
        assert!((rate - 0.047).abs() < 0.008, "rate = {rate}");
    }
}
