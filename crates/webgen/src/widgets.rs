//! The third-party widget catalog.
//!
//! Models the external embedded documents the paper measures: who gets
//! embedded how often (Table 3), who is embedded *with delegation* and
//! with which `allow` template (Tables 7/8), which widgets actually use
//! their delegated permissions and which run over-permissioned (Tables
//! 10/13, the §5.2 LiveChat case), and which widget responses carry their
//! own `Permissions-Policy` headers (§4.3.2's client-hints pattern).
//!
//! Inclusion/delegation rates are calibrated to the paper's counts over
//! 817,800 successfully-visited sites; the `usage_rate` splits model the
//! share of embeds whose frame content exhibits functionality for the
//! delegated permissions (e.g. 92% of Facebook embeds do, which leaves
//! the paper's ~1.4k over-permissioned ones).

use crate::hashing::chance;
use crate::scripts;

/// Functional category (mirrors the §4.2.1 grouping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WidgetCategory {
    /// Ad networks.
    Ads,
    /// Social media and multimedia.
    Social,
    /// Customer-support chat widgets.
    Support,
    /// Payment processors.
    Payment,
    /// Session / identity.
    Session,
    /// Everything else (challenges, analytics frames…).
    Other,
}

/// One catalog entry.
#[derive(Debug, Clone)]
pub struct Widget {
    /// Stable key (used in salts and URLs).
    pub key: &'static str,
    /// Site (registrable domain) as it appears in the paper's tables.
    pub site: &'static str,
    /// Host serving the frame document.
    pub frame_host: &'static str,
    /// Category.
    pub category: WidgetCategory,
    /// P(a site embeds this widget).
    pub inclusion: f64,
    /// P(the embed carries an `allow` attribute | embedded).
    pub delegation_rate: f64,
    /// The `allow` template used when delegating.
    pub allow_template: &'static str,
    /// Typical number of frames per including site (min, max).
    pub count_range: (u8, u8),
    /// P(frame is lazy-loaded).
    pub lazy_rate: f64,
    /// `Permissions-Policy` header on the widget's responses.
    pub frame_header: Option<&'static str>,
    /// P(the served frame exhibits functionality for its delegated
    /// permissions). 0.0 = never (LiveChat), 1.0 = always.
    pub usage_rate: f64,
}

/// The LiveChat delegation template, verbatim from §5.2.
pub const LIVECHAT_ALLOW: &str = "clipboard-read; clipboard-write; autoplay; microphone *; \
                                  camera *; display-capture *; picture-in-picture *; fullscreen *;";

/// The real-world YouTube embed template.
pub const YOUTUBE_ALLOW: &str =
    "accelerometer; autoplay; clipboard-write; encrypted-media; gyroscope; picture-in-picture; \
     web-share";

const ADS_ALLOW: &str = "attribution-reporting *; run-ad-auction; join-ad-interest-group";

const ADS_FRAME_HEADER: &str =
    "ch-ua=*, ch-ua-mobile=*, ch-ua-platform=*, ch-ua-arch=*, ch-ua-model=*, \
     ch-ua-platform-version=*, ch-ua-full-version=*, ch-ua-full-version-list=*, ch-ua-wow64=*, \
     interest-cohort=()";

const VIDEO_FRAME_HEADER: &str =
    "ch-ua=*, ch-ua-mobile=*, ch-ua-platform=*, accelerometer=(self), autoplay=*, \
     encrypted-media=*, fullscreen=*, picture-in-picture=*";

/// The full catalog: Table 3 / Table 7 majors plus the Table 13 long tail.
pub const CATALOG: &[Widget] = &[
    Widget { key: "google", site: "google.com", frame_host: "www.google.com", category: WidgetCategory::Other,
        inclusion: 0.0651, delegation_rate: 0.0495, allow_template: "identity-credentials-get; otp-credentials",
        count_range: (1, 2), lazy_rate: 0.05, frame_header: None, usage_rate: 0.97 },
    Widget { key: "youtube", site: "youtube.com", frame_host: "www.youtube.com", category: WidgetCategory::Social,
        inclusion: 0.0343, delegation_rate: 0.644, allow_template: YOUTUBE_ALLOW,
        count_range: (1, 2), lazy_rate: 0.35, frame_header: None, usage_rate: 1.0 },
    Widget { key: "doubleclick", site: "doubleclick.net", frame_host: "ad.doubleclick.net", category: WidgetCategory::Ads,
        inclusion: 0.0318, delegation_rate: 0.679, allow_template: ADS_ALLOW,
        count_range: (1, 4), lazy_rate: 0.25, frame_header: None, usage_rate: 0.99 },
    Widget { key: "googlesyndication", site: "googlesyndication.com", frame_host: "pagead2.googlesyndication.com", category: WidgetCategory::Ads,
        inclusion: 0.0309, delegation_rate: 0.80, allow_template: ADS_ALLOW,
        count_range: (1, 4), lazy_rate: 0.25, frame_header: Some(ADS_FRAME_HEADER), usage_rate: 0.99 },
    Widget { key: "facebook", site: "facebook.com", frame_host: "www.facebook.com", category: WidgetCategory::Social,
        inclusion: 0.0256, delegation_rate: 0.847, allow_template: "autoplay; clipboard-write; encrypted-media; picture-in-picture; web-share",
        count_range: (1, 2), lazy_rate: 0.2, frame_header: None, usage_rate: 0.921 },
    Widget { key: "yandex", site: "yandex.com", frame_host: "mc.yandex.com", category: WidgetCategory::Other,
        inclusion: 0.0231, delegation_rate: 0.012, allow_template: "attribution-reporting",
        count_range: (1, 2), lazy_rate: 0.1, frame_header: None, usage_rate: 0.95 },
    Widget { key: "twitter", site: "twitter.com", frame_host: "platform.twitter.com", category: WidgetCategory::Social,
        inclusion: 0.0218, delegation_rate: 0.02, allow_template: "autoplay; clipboard-write; picture-in-picture",
        count_range: (1, 2), lazy_rate: 0.3, frame_header: None, usage_rate: 0.9 },
    Widget { key: "livechat", site: "livechatinc.com", frame_host: "secure.livechatinc.com", category: WidgetCategory::Support,
        inclusion: 0.0168, delegation_rate: 0.997, allow_template: LIVECHAT_ALLOW,
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "criteo", site: "criteo.com", frame_host: "widget.criteo.com", category: WidgetCategory::Ads,
        inclusion: 0.0165, delegation_rate: 0.358, allow_template: ADS_ALLOW,
        count_range: (1, 3), lazy_rate: 0.25, frame_header: None, usage_rate: 0.99 },
    Widget { key: "cloudflare", site: "cloudflare.com", frame_host: "challenges.cloudflare.com", category: WidgetCategory::Other,
        inclusion: 0.0164, delegation_rate: 0.989, allow_template: "cross-origin-isolated; private-state-token-issuance",
        count_range: (1, 1), lazy_rate: 0.0, frame_header: None, usage_rate: 0.995 },
    Widget { key: "whereby", site: "whereby.com", frame_host: "meet.whereby.com", category: WidgetCategory::Support,
        inclusion: 0.011, delegation_rate: 0.92, allow_template: "camera; microphone; display-capture; fullscreen",
        count_range: (1, 1), lazy_rate: 0.0, frame_header: None, usage_rate: 1.0 },
    Widget { key: "stripe", site: "stripe.com", frame_host: "js.stripe.com", category: WidgetCategory::Payment,
        inclusion: 0.0045, delegation_rate: 0.975, allow_template: "payment",
        count_range: (1, 2), lazy_rate: 0.0, frame_header: None, usage_rate: 0.995 },
    Widget { key: "vimeo", site: "vimeo.com", frame_host: "player.vimeo.com", category: WidgetCategory::Social,
        inclusion: 0.0036, delegation_rate: 0.70, allow_template: "autoplay; fullscreen; picture-in-picture; encrypted-media",
        count_range: (1, 1), lazy_rate: 0.35, frame_header: Some(VIDEO_FRAME_HEADER), usage_rate: 0.99 },
    // --- Table 13 long tail ---
    Widget { key: "youtube_nc", site: "youtube-nocookie.com", frame_host: "www.youtube-nocookie.com", category: WidgetCategory::Social,
        inclusion: 0.00125, delegation_rate: 0.97, allow_template: YOUTUBE_ALLOW,
        count_range: (1, 1), lazy_rate: 0.35, frame_header: Some(VIDEO_FRAME_HEADER), usage_rate: 1.0 },
    Widget { key: "razorpay", site: "razorpay.com", frame_host: "api.razorpay.com", category: WidgetCategory::Payment,
        inclusion: 0.00049, delegation_rate: 0.98, allow_template: "payment; clipboard-write; camera",
        count_range: (1, 1), lazy_rate: 0.0, frame_header: None, usage_rate: 0.0 },
    Widget { key: "ladesk", site: "ladesk.com", frame_host: "app.ladesk.com", category: WidgetCategory::Support,
        inclusion: 0.00038, delegation_rate: 0.98, allow_template: "microphone; camera",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "driftt", site: "driftt.com", frame_host: "js.driftt.com", category: WidgetCategory::Support,
        inclusion: 0.00036, delegation_rate: 0.97, allow_template: "encrypted-media; autoplay",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "wixapps", site: "wixapps.net", frame_host: "engage.wixapps.net", category: WidgetCategory::Other,
        inclusion: 0.00031, delegation_rate: 0.98, allow_template: "autoplay; camera; microphone; geolocation; vr",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "qualified", site: "qualified.com", frame_host: "app.qualified.com", category: WidgetCategory::Support,
        inclusion: 0.00014, delegation_rate: 0.97, allow_template: "microphone; camera",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "dailymotion", site: "dailymotion.com", frame_host: "geo.dailymotion.com", category: WidgetCategory::Social,
        inclusion: 0.00013, delegation_rate: 0.96, allow_template: "accelerometer; autoplay; clipboard-write; encrypted-media; gyroscope; picture-in-picture; web-share",
        count_range: (1, 1), lazy_rate: 0.3, frame_header: Some(VIDEO_FRAME_HEADER), usage_rate: 0.0 },
    Widget { key: "tinypass", site: "tinypass.com", frame_host: "cdn.tinypass.com", category: WidgetCategory::Payment,
        inclusion: 0.000125, delegation_rate: 0.97, allow_template: "payment",
        count_range: (1, 1), lazy_rate: 0.0, frame_header: None, usage_rate: 0.0 },
    Widget { key: "imbox", site: "imbox.io", frame_host: "files.imbox.io", category: WidgetCategory::Support,
        inclusion: 0.000118, delegation_rate: 0.97, allow_template: "camera; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "piano", site: "piano.io", frame_host: "sandbox.piano.io", category: WidgetCategory::Payment,
        inclusion: 0.000116, delegation_rate: 0.97, allow_template: "payment",
        count_range: (1, 1), lazy_rate: 0.0, frame_header: None, usage_rate: 0.0 },
    Widget { key: "appspot", site: "appspot.com", frame_host: "widget-main.appspot.com", category: WidgetCategory::Other,
        inclusion: 0.000115, delegation_rate: 0.96, allow_template: "camera; microphone; geolocation",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "facebook_net", site: "facebook.net", frame_host: "connect.facebook.net", category: WidgetCategory::Social,
        inclusion: 0.000102, delegation_rate: 0.95, allow_template: "encrypted-media",
        count_range: (1, 1), lazy_rate: 0.1, frame_header: None, usage_rate: 0.0 },
    Widget { key: "visitor_analytics", site: "visitor-analytics.io", frame_host: "app.visitor-analytics.io", category: WidgetCategory::Other,
        inclusion: 0.0000985, delegation_rate: 0.97, allow_template: "camera; microphone; geolocation",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "glassix", site: "glassix.com", frame_host: "cdn.glassix.com", category: WidgetCategory::Support,
        inclusion: 0.0000960, delegation_rate: 0.97, allow_template: "camera; microphone; display-capture",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "giosg", site: "giosg.com", frame_host: "interaction.giosg.com", category: WidgetCategory::Support,
        inclusion: 0.0000707, delegation_rate: 0.97, allow_template: "camera; microphone; screen-wake-lock; display-capture",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "cloudflarestream", site: "cloudflarestream.com", frame_host: "iframe.cloudflarestream.com", category: WidgetCategory::Social,
        inclusion: 0.0000695, delegation_rate: 0.96, allow_template: "accelerometer; gyroscope; autoplay; encrypted-media; picture-in-picture",
        count_range: (1, 1), lazy_rate: 0.3, frame_header: None, usage_rate: 1.0 },
    Widget { key: "mediadelivery", site: "mediadelivery.net", frame_host: "iframe.mediadelivery.net", category: WidgetCategory::Social,
        inclusion: 0.0000695, delegation_rate: 0.96, allow_template: "accelerometer; gyroscope; autoplay; encrypted-media; picture-in-picture",
        count_range: (1, 1), lazy_rate: 0.3, frame_header: None, usage_rate: 1.0 },
    Widget { key: "socialminer", site: "socialminer.com", frame_host: "embed.socialminer.com", category: WidgetCategory::Support,
        inclusion: 0.0000682, delegation_rate: 0.96, allow_template: "clipboard-read",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "infobip", site: "infobip.com", frame_host: "livechat.infobip.com", category: WidgetCategory::Support,
        inclusion: 0.0000581, delegation_rate: 0.96, allow_template: "camera; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "kenyt", site: "kenyt.ai", frame_host: "app.kenyt.ai", category: WidgetCategory::Support,
        inclusion: 0.0000568, delegation_rate: 0.96, allow_template: "camera; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "vidyard", site: "vidyard.com", frame_host: "play.vidyard.com", category: WidgetCategory::Social,
        inclusion: 0.0000556, delegation_rate: 0.96, allow_template: "camera; microphone; clipboard-write; display-capture; autoplay",
        count_range: (1, 1), lazy_rate: 0.2, frame_header: None, usage_rate: 0.0 },
    Widget { key: "jotform", site: "jotform.com", frame_host: "form.jotform.com", category: WidgetCategory::Other,
        inclusion: 0.0000417, delegation_rate: 0.96, allow_template: "camera; geolocation; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "wolkvox", site: "wolkvox.com", frame_host: "chat.wolkvox.com", category: WidgetCategory::Support,
        inclusion: 0.0000417, delegation_rate: 0.96, allow_template: "encrypted-media; camera; microphone; geolocation; display-capture; midi",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "typeform", site: "typeform.com", frame_host: "form.typeform.com", category: WidgetCategory::Other,
        inclusion: 0.0000392, delegation_rate: 0.96, allow_template: "camera; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "mitel", site: "mitel.io", frame_host: "widget.mitel.io", category: WidgetCategory::Support,
        inclusion: 0.0000379, delegation_rate: 0.96, allow_template: "camera; geolocation; microphone",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
    Widget { key: "videodelivery", site: "videodelivery.net", frame_host: "iframe.videodelivery.net", category: WidgetCategory::Social,
        inclusion: 0.0000379, delegation_rate: 0.96, allow_template: "accelerometer; gyroscope; autoplay; encrypted-media",
        count_range: (1, 1), lazy_rate: 0.3, frame_header: None, usage_rate: 1.0 },
    Widget { key: "channels", site: "channels.app", frame_host: "widget.channels.app", category: WidgetCategory::Support,
        inclusion: 0.0000379, delegation_rate: 0.96, allow_template: "encrypted-media; midi",
        count_range: (1, 1), lazy_rate: 0.05, frame_header: None, usage_rate: 0.0 },
];

/// Looks up a widget by frame host.
pub fn widget_by_host(host: &str) -> Option<&'static Widget> {
    CATALOG.iter().find(|w| w.frame_host == host)
}

/// Looks up a widget by key.
pub fn widget_by_key(key: &str) -> Option<&'static Widget> {
    CATALOG.iter().find(|w| w.key == key)
}

/// Builds the frame document HTML a widget serves to embedding site
/// `rank`. The content is a deterministic function of `(seed, widget,
/// rank)`: the `usage_rate` split decides whether this embed's frame
/// exhibits functionality for the delegated permissions.
pub fn frame_html(widget: &Widget, seed: u64, rank: u64) -> String {
    let uses = chance(seed, rank, ("use-", widget.key), widget.usage_rate);
    let mut page = String::from("<!DOCTYPE html><html><body>\n");
    let mut push_script = |code: &str| {
        page.push_str("<script>");
        page.push_str(code);
        page.push_str("</script>\n");
    };
    match widget.category {
        WidgetCategory::Ads => {
            // A share of ad creatives is rendered entirely by a script
            // from another ad network (third-party *to the frame*) — the
            // source of the paper's 26% third-party embedded activity.
            let third_party_only = chance(seed, rank, ("ad3ponly-", widget.key), 0.35);
            if third_party_only {
                page.push_str(
                    "<script src=\"https://ad.doubleclick.net/static/render.js\"></script>\n",
                );
            } else {
                if chance(seed, rank, ("adgen-", widget.key), 0.12) {
                    push_script(&scripts::general_check_feature_policy(
                        "attribution-reporting",
                    ));
                }
                if chance(seed, rank, ("adtopics-", widget.key), 0.12) {
                    push_script(&scripts::browsing_topics());
                }
                if uses && chance(seed, rank, ("adauction-", widget.key), 0.03) {
                    push_script(
                        "var auctionOk = document.featurePolicy.allowsFeature('run-ad-auction');\n",
                    );
                }
                if chance(seed, rank, ("adbattery-", widget.key), 0.25) {
                    push_script(&scripts::battery(false));
                }
                if chance(seed, rank, ("adsa-", widget.key), 0.5) {
                    push_script(&scripts::dead_code(&scripts::storage_access()));
                }
                if chance(seed, rank, ("nested3p-", widget.key), 0.15) {
                    page.push_str(
                        "<script src=\"https://ad.doubleclick.net/static/render.js\"></script>\n",
                    );
                }
            }
            // Ads render into one local-scheme child each (a big share of
            // the paper's 54.1% local embedded documents).
            page.push_str("<iframe id=\"ph0\" srcdoc=\"<p>creative</p>\"></iframe>\n");
        }
        WidgetCategory::Social => {
            // Players: the bundle always carries share/clipboard/DRM code
            // (static); DRM initializes dynamically on a fraction of
            // embeds, the rest idles until playback.
            if chance(seed, rank, ("socgen-", widget.key), 0.30) {
                push_script(&scripts::general_check_feature_policy("autoplay"));
            }
            if uses {
                push_script(&scripts::click_gated(&scripts::clipboard_share_handler()));
                if chance(seed, rank, ("shr-", widget.key), 0.55)
                    && widget.allow_template.contains("web-share")
                {
                    push_script(&scripts::click_gated(&scripts::web_share_handler()));
                } else if widget.allow_template.contains("web-share") {
                    push_script(&scripts::dead_code(&scripts::web_share_handler()));
                }
                // DRM code ships only in players that delegate it.
                if widget.allow_template.contains("encrypted-media") {
                    if chance(seed, rank, ("drm-", widget.key), 0.28) {
                        push_script(&scripts::encrypted_media());
                    } else {
                        push_script(&scripts::dead_code(&scripts::encrypted_media()));
                    }
                }
                if widget.key == "facebook" {
                    if chance(seed, rank, "fbsa", 0.55) {
                        push_script(&scripts::storage_access());
                    } else {
                        push_script(&scripts::dead_code(&scripts::storage_access()));
                    }
                }
                if chance(seed, rank, "pip", 0.2) {
                    push_script(&scripts::dead_code(&scripts::picture_in_picture()));
                }
            } else {
                push_script(&scripts::consent_banner());
            }
        }
        WidgetCategory::Support => {
            if uses {
                // Video-call widgets that really use capture (whereby).
                if chance(seed, rank, "vc-query", 0.3) {
                    push_script(&scripts::permissions_query("microphone"));
                    push_script(&scripts::permissions_query("camera"));
                }
                push_script(&scripts::get_user_media(true, true));
                // Screen-share lives behind a button (static-visible).
                push_script(&scripts::dead_code(
                    "navigator.mediaDevices.getDisplayMedia({video: true});",
                ));
            } else {
                // The LiveChat pattern: pure messaging, no permission APIs
                // for the delegated capture permissions. The bundle still
                // carries plugin stubs for screen-share and copy-transcript
                // (dead code the static analyzer sees), which is why the
                // paper's unused list for LiveChat is camera, microphone
                // and clipboard-read — not display-capture/clipboard-write.
                push_script(&scripts::chat_widget_messaging());
                if widget.key == "livechat" {
                    push_script(&scripts::dead_code(
                        "navigator.mediaDevices.getDisplayMedia({video: true});",
                    ));
                    push_script(&scripts::dead_code(&scripts::clipboard_share_handler()));
                }
            }
        }
        WidgetCategory::Payment => {
            if uses {
                push_script(&scripts::payment());
                push_script(&scripts::general_check_permissions_policy("payment"));
            } else {
                push_script(&scripts::consent_banner());
            }
        }
        WidgetCategory::Session => {
            push_script(&scripts::publickey_credentials_get());
            push_script(&scripts::storage_access());
        }
        WidgetCategory::Other => {
            match widget.key {
                "cloudflare" => {
                    // Challenge frames check their specific entitlements.
                    push_script(&scripts::general_check_permissions_policy(
                        "cross-origin-isolated",
                    ));
                    if uses {
                        push_script(&scripts::general_check_permissions_policy(
                            "private-state-token-issuance",
                        ));
                    }
                }
                "google" => {
                    // Sign-in embeds (the delegated ones) check their FedCM
                    // entitlements; plain embeds mostly do nothing.
                    let delegated = chance(seed, rank, "deleg-google", widget.delegation_rate);
                    if delegated || chance(seed, rank, "ggen", 0.05) {
                        push_script(
                            "var fedcm = document.permissionsPolicy.allowsFeature('identity-credentials-get');
                             var otp = document.permissionsPolicy.allowsFeature('otp-credentials');
",
                        );
                    }
                    if uses && chance(seed, rank, "gmaps", 0.3) {
                        // Maps embeds carry geolocation handlers.
                        push_script(&scripts::click_gated(&scripts::geolocation_handler()));
                    }
                    if uses && chance(seed, rank, "gsignin", 0.08) {
                        push_script(&scripts::publickey_credentials_get());
                        push_script(&scripts::storage_access());
                    }
                }
                "yandex" => {
                    // Metrica frames ship battery code but rarely run it
                    // on the landing snapshot.
                    push_script(&scripts::dead_code(&scripts::battery(false)));
                    if chance(seed, rank, "yxgen", 0.25) {
                        push_script(&scripts::general_check_feature_policy(
                            "attribution-reporting",
                        ));
                    }
                }
                _ => {
                    if uses {
                        push_script(&scripts::general_check_feature_policy("camera"));
                    } else {
                        push_script(&scripts::consent_banner());
                    }
                }
            }
        }
    }
    page.push_str("</body></html>\n");
    page
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_consistent() {
        let mut keys = std::collections::HashSet::new();
        for w in CATALOG {
            assert!(keys.insert(w.key), "duplicate key {}", w.key);
            assert!((0.0..=1.0).contains(&w.inclusion));
            assert!((0.0..=1.0).contains(&w.delegation_rate));
            assert!((0.0..=1.0).contains(&w.usage_rate));
            assert!(w.count_range.0 >= 1 && w.count_range.0 <= w.count_range.1);
            // The allow template must parse.
            let parsed = policy::parse_allow_attribute(w.allow_template);
            assert!(parsed.delegates_anything(), "{}", w.key);
        }
    }

    #[test]
    fn livechat_matches_paper_template() {
        let w = widget_by_key("livechat").unwrap();
        let parsed = policy::parse_allow_attribute(w.allow_template);
        assert_eq!(parsed.len(), 8);
        assert_eq!(w.usage_rate, 0.0);
        assert!(w.delegation_rate > 0.99);
    }

    #[test]
    fn frame_html_scripts_parse() {
        for w in CATALOG {
            for rank in [1u64, 17, 4242] {
                let html = frame_html(w, 7, rank);
                let doc = html::scan(&html);
                for script in &doc.scripts {
                    if let Some(inline) = &script.inline {
                        jsland::check_syntax(inline)
                            .unwrap_or_else(|e| panic!("{}: {e}\n{inline}", w.key));
                    }
                }
            }
        }
    }

    #[test]
    fn livechat_frame_has_no_capture_usage() {
        let w = widget_by_key("livechat").unwrap();
        let html = frame_html(w, 7, 99);
        assert!(!html.contains("getUserMedia"));
        assert!(!html.contains("permissions.query"));
        // But the dead plugin stubs are there for static analysis.
        assert!(html.contains("getDisplayMedia"));
        assert!(html.contains("writeText"));
    }

    #[test]
    fn host_lookup() {
        assert_eq!(
            widget_by_host("secure.livechatinc.com").unwrap().key,
            "livechat"
        );
        assert!(widget_by_host("unknown.example").is_none());
    }
}
