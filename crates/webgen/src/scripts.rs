//! JavaScript snippet builders.
//!
//! Every script the population serves is assembled from these snippets.
//! They are written in the `jsland` subset and exercise the instrumented
//! APIs the way real sites do — including the pathologies the measurement
//! is about:
//!
//! * **static-visible, dynamically silent**: dead code and
//!   interaction-gated handlers (`clipboard-write` share buttons,
//!   `geolocation` store locators),
//! * **dynamically visible, statically silent**: bracket/concat
//!   obfuscation (fingerprinting scripts hiding `getBattery`),
//! * the deprecated Feature Policy API that 429k sites still use,
//! * full-allowlist retrieval (anti-bot / fingerprinting pattern).

/// General Permission API check via the deprecated Feature Policy surface.
pub fn general_check_feature_policy(feature: &str) -> String {
    format!(
        "var fp = document.featurePolicy;\n\
         var feats = fp.allowedFeatures();\n\
         if (feats.includes('{feature}')) {{ var supported = true; }}\n"
    )
}

/// General Permission API check via the modern Permissions Policy surface.
pub fn general_check_permissions_policy(feature: &str) -> String {
    format!(
        "var pp = document.permissionsPolicy;\n\
         var ok = pp.allowsFeature('{feature}');\n\
         if (ok) {{ var supported = true; }}\n"
    )
}

/// Status query for one permission via `navigator.permissions.query`.
pub fn permissions_query(name: &str) -> String {
    format!(
        "navigator.permissions.query({{name: '{name}'}}).then(function (st) {{\n\
           var state = st.state;\n\
         }});\n"
    )
}

/// Battery probe, optionally obfuscated so string matching cannot see it.
pub fn battery(obfuscated: bool) -> String {
    if obfuscated {
        "navigator['get' + 'Bat' + 'tery']().then(function (b) {\n\
           var fp = b.level + '|' + b.charging;\n\
         });\n"
            .to_string()
    } else {
        "navigator.getBattery().then(function (b) {\n\
           var level = b.level;\n\
         });\n"
            .to_string()
    }
}

/// Immediate notification prompt (the unwanted-notification vendor
/// pattern).
pub fn notifications_prompt() -> String {
    "if (Notification.permission === 'default') {\n\
       Notification.requestPermission().then(function (r) { var x = r; });\n\
     }\n"
    .to_string()
}

/// Browsing Topics retrieval (ads).
pub fn browsing_topics() -> String {
    "document.browsingTopics().then(function (topics) {\n\
       var n = topics.length;\n\
     });\n"
        .to_string()
}

/// Storage-access dance (embedded login/social widgets).
pub fn storage_access() -> String {
    "document.hasStorageAccess().then(function (ok) {\n\
       if (!ok) { document.requestStorageAccess(); }\n\
     });\n"
        .to_string()
}

/// Clipboard share handler body (interaction-gated: goes into `onclick`).
pub fn clipboard_share_handler() -> String {
    "navigator.clipboard.writeText('https://example.invalid/shared');".to_string()
}

/// Web Share handler body.
pub fn web_share_handler() -> String {
    "if (navigator.canShare) { navigator.share({title: 'page', url: 'x'}); }".to_string()
}

/// Geolocation handler body (store locator button).
pub fn geolocation_handler() -> String {
    "navigator.geolocation.getCurrentPosition(function (p) { var c = p; });".to_string()
}

/// Geolocation called directly on load (the rarer dynamic case).
pub fn geolocation_direct() -> String {
    "navigator.geolocation.getCurrentPosition(function (pos) {\n\
       var where = pos;\n\
     });\n"
        .to_string()
}

/// Encrypted-media (DRM) probe used by video players.
pub fn encrypted_media() -> String {
    "navigator.requestMediaKeySystemAccess('com.widevine.alpha', [{}]).then(function (a) {\n\
       var keys = a;\n\
     });\n"
        .to_string()
}

/// Payment Request construction.
pub fn payment() -> String {
    "var request = new PaymentRequest([{supportedMethods: 'basic-card'}], {total: {label: 'T'}});\n"
        .to_string()
}

/// Keyboard layout map probe (fingerprinting).
pub fn keyboard_map() -> String {
    "navigator.keyboard.getLayoutMap().then(function (m) { var k = m; });\n".to_string()
}

/// WebAuthn credential get.
pub fn publickey_credentials_get() -> String {
    "navigator.credentials.get({publicKey: {challenge: 'c'}}).then(function (cred) {\n\
       var c = cred;\n\
     });\n"
        .to_string()
}

/// Protected Audience auction (ad frames).
pub fn run_ad_auction() -> String {
    "navigator.runAdAuction({seller: 'https://seller.invalid'}).then(function (r) { var u = r; });\n"
        .to_string()
}

/// Protected Audience interest-group join (advertiser frames).
pub fn join_ad_interest_group() -> String {
    "navigator.joinAdInterestGroup({owner: 'https://adv.invalid', name: 'g'}, 30);\n".to_string()
}

/// Attribution reporting feature check (ads, via the general API).
pub fn attribution_check() -> String {
    general_check_feature_policy("attribution-reporting")
}

/// Camera+microphone capture (video-conference widgets).
pub fn get_user_media(video: bool, audio: bool) -> String {
    format!("navigator.mediaDevices.getUserMedia({{video: {video}, audio: {audio}}}).then(function (s) {{ var st = s; }});\n")
}

/// Picture-in-picture invocation (video players).
pub fn picture_in_picture() -> String {
    "video.requestPictureInPicture().then(function (w) { var p = w; });\n".to_string()
}

/// Wraps a snippet in dead code — statically visible, never executed.
pub fn dead_code(inner: &str) -> String {
    format!("if (false) {{\n{inner}}}\n")
}

/// Wraps a snippet in a registered click handler — statically visible
/// (the handler body is script text), dynamically gated on interaction.
pub fn click_gated(inner: &str) -> String {
    format!("button.addEventListener('click', function () {{\n{inner}\n}});\n")
}

/// Modern SDK-style permission helper: a class wrapping the Permissions
/// API behind an `async` method, the shape bundled consent SDKs ship.
pub fn permission_helper_class(name: &str) -> String {
    format!(
        "class PermissionProbe {{\n\
           constructor(name) {{ this.name = name; }}\n\
           async check() {{\n\
             var st = await navigator.permissions.query({{name: this.name}});\n\
             return st.state;\n\
           }}\n\
         }}\n\
         new PermissionProbe('{name}').check();\n"
    )
}

/// Bundler-style closure factory around an obfuscated battery probe:
/// the host root and the method name both travel through locals, so
/// static string matching sees neither.
pub fn closure_probe() -> String {
    "var probe = (function (root) {\n\
       var key = 'get' + 'Battery';\n\
       return function () { return root[key](); };\n\
     })(navigator);\n\
     probe().then(function (b) { var level = b.level; });\n"
        .to_string()
}

/// Async/await capture bootstrap (video-conference widgets): status
/// query first, capture only when not denied.
pub fn async_gum_flow() -> String {
    "async function startCapture() {\n\
       var st = await navigator.permissions.query({name: 'camera'});\n\
       if (st.state !== 'denied') {\n\
         var stream = await navigator.mediaDevices.getUserMedia({video: true, audio: true});\n\
       }\n\
     }\n\
     startCapture();\n"
        .to_string()
}

/// Messaging-only chat widget logic: no permission APIs at all (the
/// LiveChat §5.2 finding — delegated permissions, zero related code).
pub fn chat_widget_messaging() -> String {
    "var queue = [];\n\
     function send(msg) { queue.push(msg); }\n\
     send('hello');\n\
     setTimeout(function () { var pending = queue.length; }, 500);\n"
        .to_string()
}

/// Consent-manager boilerplate: nothing permission-related.
pub fn consent_banner() -> String {
    "var consent = {ads: false, analytics: false};\n\
     button.addEventListener('click', function () { consent.ads = true; });\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every snippet must parse in the jsland subset.
    #[test]
    fn all_snippets_parse() {
        let snippets = vec![
            general_check_feature_policy("camera"),
            general_check_permissions_policy("fullscreen"),
            permissions_query("camera"),
            battery(false),
            battery(true),
            notifications_prompt(),
            browsing_topics(),
            storage_access(),
            clipboard_share_handler(),
            web_share_handler(),
            geolocation_handler(),
            geolocation_direct(),
            encrypted_media(),
            payment(),
            keyboard_map(),
            publickey_credentials_get(),
            run_ad_auction(),
            join_ad_interest_group(),
            attribution_check(),
            get_user_media(true, true),
            picture_in_picture(),
            dead_code(&battery(false)),
            click_gated(&clipboard_share_handler()),
            chat_widget_messaging(),
            consent_banner(),
            permission_helper_class("geolocation"),
            closure_probe(),
            async_gum_flow(),
        ];
        for s in &snippets {
            jsland::check_syntax(s).unwrap_or_else(|e| panic!("{e}\n---\n{s}"));
        }
    }

    /// Obfuscated battery: dynamic sees it, static does not.
    #[test]
    fn obfuscated_battery_divergence() {
        use jsland::{RecordingHooks, ScriptEngine, ScriptSource};
        let src = battery(true);
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine
            .run(&src, ScriptSource::inline(), &mut hooks)
            .unwrap();
        assert_eq!(hooks.calls[0].path, "navigator.getBattery");
        assert!(!src.contains("getBattery"));
    }

    /// Click-gated snippet: nothing runs without firing the event.
    #[test]
    fn click_gated_is_dynamically_silent() {
        use jsland::{Engine, RecordingHooks, ScriptEngine, ScriptSource, StepPool};
        let src = click_gated(&clipboard_share_handler());
        let mut hooks = RecordingHooks::default();
        let mut engine = ScriptEngine::default();
        engine
            .run(&src, ScriptSource::inline(), &mut hooks)
            .unwrap();
        engine.drain_timers(&mut hooks);
        assert!(hooks.calls.is_empty());
        engine.fire_event("click", &mut hooks, &mut StepPool::unlimited());
        assert_eq!(hooks.calls[0].path, "navigator.clipboard.writeText");
    }
}
