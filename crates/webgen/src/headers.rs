//! Top-level header generation (§4.3.1 / §4.3.3 calibration).
//!
//! 4.5% of top-level sites deploy a `Permissions-Policy` header. The
//! content mix reproduces the paper's findings:
//!
//! * heavy template reuse — three configurations cover >50% of deployers
//!   (an 18-permission lockdown, the single `interest-cohort=()` FLoC
//!   opt-out, and a 9-permission lockdown),
//! * directive mix per Table 9: ~83.5% disable, ~9.7% self, ~6% `*`,
//!   few explicit origins,
//! * ~5.5% of deployed headers have syntax errors (mostly Feature-Policy
//!   syntax or misplaced commas) and are dropped by the browser,
//! * ~13% of the parsed ones carry semantic misconfigurations
//!   (unrecognized tokens, unquoted URLs, contradictory members, origin
//!   lists without `self`).

use std::fmt::Write;

use crate::hashing::{chance, pick, pick_weighted, unit};

/// P(top-level site sends a Permissions-Policy header).
pub const PP_HEADER_RATE: f64 = 0.045;
/// P(top-level site sends a Feature-Policy header).
pub const FP_HEADER_RATE: f64 = 0.005;

/// The 18-permission lockdown template (26.6% of deployers).
const T18: &str = "accelerometer=(), ambient-light-sensor=(), autoplay=(), battery=(), \
                   camera=(), display-capture=(), document-domain=(), encrypted-media=(), \
                   geolocation=(), gyroscope=(), magnetometer=(), microphone=(), midi=(), \
                   payment=(), picture-in-picture=(), publickey-credentials-get=(), usb=(), \
                   xr-spatial-tracking=()";

/// The single-directive FLoC opt-out (24.3% of deployers).
const T1: &str = "interest-cohort=()";

/// The 9-permission lockdown (8.5% of deployers).
const T9: &str = "camera=(), display-capture=(), geolocation=(), microphone=(), payment=(), \
                  usb=(), midi=(), magnetometer=(), gyroscope=()";

/// Feature pool for the custom-header tail, roughly ordered by how often
/// the paper sees them declared (Table 9).
const POOL: &[&str] = &[
    "geolocation",
    "microphone",
    "camera",
    "gyroscope",
    "payment",
    "magnetometer",
    "accelerometer",
    "usb",
    "sync-xhr",
    "interest-cohort",
    "fullscreen",
    "display-capture",
    "midi",
    "serial",
    "bluetooth",
    "hid",
    "idle-detection",
    "screen-wake-lock",
    "autoplay",
    "encrypted-media",
    "picture-in-picture",
    "clipboard-read",
    "clipboard-write",
    "web-share",
    "battery",
    "gamepad",
    "publickey-credentials-get",
    "document-domain",
    "xr-spatial-tracking",
    "local-fonts",
    "keyboard-map",
    "browsing-topics",
    "attribution-reporting",
    "run-ad-auction",
    "join-ad-interest-group",
    "storage-access",
    "window-management",
    "ambient-light-sensor",
];

/// Generates a syntactically *broken* header (dropped by the browser).
fn broken_header(seed: u64, rank: u64) -> String {
    match pick_weighted(seed, rank, "pp-broken-kind", &[0.6, 0.3, 0.1]) {
        // Feature-Policy syntax inside Permissions-Policy — the most
        // common real-world parse failure.
        0 => "camera 'none'; microphone 'none'; geolocation 'self'".to_string(),
        // Misplaced / trailing comma.
        1 => "camera=(), microphone=(),".to_string(),
        // Other malformed structured field.
        _ => "camera=(self".to_string(),
    }
}

/// Appends the allowlist value for one directive in a custom header to
/// `out`, following the Table 9 least-restrictive mix. May inject a
/// semantic misconfiguration.
fn directive_value(
    out: &mut String,
    seed: u64,
    rank: u64,
    feature: &str,
    misconfigure: bool,
    origin_host: &str,
) {
    if misconfigure {
        match pick(seed, rank, ("pp-miscfg-kind-", feature), 5) {
            0 => out.push_str("(none)"), // unrecognized token
            1 => out.push_str("(0)"),    // numeric junk
            2 => {
                // unquoted URL
                let _ = write!(out, "(self https://{origin_host})");
            }
            3 => out.push_str("(self *)"), // contradictory
            _ => {
                // origins w/o self
                let _ = write!(out, "(\"https://{origin_host}\")");
            }
        }
        return;
    }
    match pick_weighted(
        seed,
        rank,
        ("pp-dir-", feature),
        // disable / self / star / origin-with-self — tuned so the
        // template+custom aggregate lands at Table 9's 83.5/9.7/6.0 mix.
        &[0.55, 0.30, 0.13, 0.02],
    ) {
        0 => out.push_str("()"),
        1 => out.push_str("(self)"),
        2 => out.push('*'),
        _ => {
            let _ = write!(out, "(self \"https://{origin_host}\")");
        }
    }
}

/// The top-level `Permissions-Policy` header value for a deploying site,
/// or a broken one for the syntax-error share.
pub fn permissions_policy_header(seed: u64, rank: u64, widget_host: &str) -> String {
    if chance(seed, rank, "pp-syntax-broken", 0.055) {
        return broken_header(seed, rank);
    }
    match pick_weighted(seed, rank, "pp-template", &[0.266, 0.243, 0.085, 0.406]) {
        0 => T18.to_string(),
        1 => T1.to_string(),
        2 => T9.to_string(),
        _ => {
            // Custom header: 2..=30 directives from the pool, occasionally
            // many more (the paper saw up to 64 — we cap at the pool).
            let span =
                2 + (unit(seed, rank, "pp-len") * unit(seed, rank, "pp-len2") * 34.0) as usize;
            let count = span.min(POOL.len());
            let offset = pick(seed, rank, "pp-off", POOL.len());
            let misconfigured = chance(seed, rank, "pp-semantic-bad", 0.134);
            let bad_index = pick(seed, rank, "pp-semantic-idx", count);
            let mut header = String::new();
            for i in 0..count {
                let feature = POOL[(offset + i) % POOL.len()];
                if i > 0 {
                    header.push_str(", ");
                }
                header.push_str(feature);
                header.push('=');
                let misconfigure = misconfigured && i == bad_index;
                directive_value(&mut header, seed, rank, feature, misconfigure, widget_host);
            }
            // A sliver of custom headers also use an unknown feature name.
            if chance(seed, rank, "pp-unknown-feature", 0.01) {
                header.push_str(", vibrate=()");
            }
            header
        }
    }
}

/// The `Feature-Policy` header for legacy deployers.
pub fn feature_policy_header(seed: u64, rank: u64) -> String {
    match pick(seed, rank, "fp-template", 3) {
        0 => "camera 'none'; microphone 'none'; geolocation 'none'".to_string(),
        1 => "autoplay 'self'; fullscreen *".to_string(),
        _ => "geolocation 'self'; camera 'none'".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::validate::{validate_header, SyntaxErrorKind};

    #[test]
    fn syntax_error_rate_is_calibrated() {
        let n = 20_000u64;
        let broken = (0..n)
            .filter(|&r| {
                validate_header(&permissions_policy_header(7, r, "w.example"))
                    .syntax_error
                    .is_some()
            })
            .count();
        let rate = broken as f64 / n as f64;
        assert!((rate - 0.055).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn broken_headers_classify_like_the_paper() {
        let mut fp_syntax = 0;
        let mut commas = 0;
        for r in 0..20_000u64 {
            let h = permissions_policy_header(11, r, "w.example");
            if let Some(kind) = validate_header(&h).syntax_error {
                match kind {
                    SyntaxErrorKind::FeaturePolicySyntax => fp_syntax += 1,
                    SyntaxErrorKind::MisplacedComma => commas += 1,
                    SyntaxErrorKind::Other => {}
                }
            }
        }
        assert!(
            fp_syntax > commas,
            "FP-syntax should dominate ({fp_syntax} vs {commas})"
        );
    }

    #[test]
    fn directive_mix_is_disable_heavy() {
        use policy::header::parse_permissions_policy;
        let mut disable = 0usize;
        let mut total = 0usize;
        for r in 0..5_000u64 {
            let h = permissions_policy_header(13, r, "w.example");
            if let Ok(p) = parse_permissions_policy(&h) {
                for d in p.directives() {
                    total += 1;
                    if d.allowlist.is_empty() && d.ignored.is_empty() {
                        disable += 1;
                    }
                }
            }
        }
        let rate = disable as f64 / total as f64;
        assert!(rate > 0.75, "disable share = {rate}");
    }

    #[test]
    fn template_reuse_dominates() {
        let mut t18 = 0;
        let mut t1 = 0;
        let n = 10_000u64;
        for r in 0..n {
            let h = permissions_policy_header(17, r, "w.example");
            if h == T18 {
                t18 += 1;
            } else if h == T1 {
                t1 += 1;
            }
        }
        assert!((t18 as f64 / n as f64 - 0.251).abs() < 0.03); // 0.266 × (1-0.055)
        assert!((t1 as f64 / n as f64 - 0.23).abs() < 0.03);
    }

    #[test]
    fn feature_policy_templates_parse() {
        for r in 0..10u64 {
            let h = feature_policy_header(3, r);
            let p = policy::feature_policy::parse_feature_policy(&h);
            assert!(!p.is_empty());
        }
    }
}
