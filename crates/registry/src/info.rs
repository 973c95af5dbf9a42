//! Permission characteristics (the paper's Table 2, for every permission).

use serde::{Deserialize, Serialize};

use crate::Permission;

/// Default allowlist of a policy-controlled feature (Permissions Policy
/// §"default allowlists"). `self` restricts the feature to same-origin
/// contexts by default; `*` enables it everywhere, including arbitrarily
/// nested third-party iframes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DefaultAllowlist {
    /// `self` — same-origin contexts only.
    SelfOrigin,
    /// `*` — all contexts.
    Star,
}

/// Functional category of a permission; used by the generator to group
/// widget templates and by the analysis for the §4.2.1 grouping patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Category {
    /// Audio/video capture and playback (camera, microphone, autoplay, …).
    Media,
    /// Motion / environment sensors.
    Sensor,
    /// Advertising APIs (topics, attribution, FLEDGE, …).
    Ads,
    /// Payment APIs.
    Payment,
    /// Identity / credential APIs.
    Identity,
    /// Storage / cookie access.
    Storage,
    /// Hardware device access (USB, serial, HID, bluetooth, MIDI, …).
    Device,
    /// Display / UI control (fullscreen, PiP, pointer lock, wake lock, …).
    Ui,
    /// Client-hints entitlement features.
    ClientHints,
    /// Everything else.
    Misc,
}

/// Static characteristics of a permission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PermissionInfo {
    /// Whether the feature is *powerful* (usually prompts the user).
    pub powerful: bool,
    /// Whether the feature is governed by Permissions Policy.
    pub policy_controlled: bool,
    /// The default allowlist; `None` iff not policy-controlled.
    pub default_allowlist: Option<DefaultAllowlist>,
    /// Functional category.
    pub category: Category,
    /// The W3C/WICG specification that defines the feature.
    pub spec: &'static str,
}

impl Permission {
    /// Characteristics of this permission (snapshot consistent with the
    /// paper's July-2024 measurement).
    pub const fn info(&self) -> PermissionInfo {
        use Category as C;
        use DefaultAllowlist::{SelfOrigin, Star};
        use Permission as P;
        let (powerful, policy, dal, category, spec) = match self {
            P::Accelerometer => (
                false,
                true,
                Some(SelfOrigin),
                C::Sensor,
                "Generic Sensor API",
            ),
            P::AmbientLightSensor => (
                false,
                true,
                Some(SelfOrigin),
                C::Sensor,
                "Ambient Light Sensor",
            ),
            P::Battery => (false, true, Some(Star), C::Misc, "Battery Status API"),
            P::Bluetooth => (true, true, Some(SelfOrigin), C::Device, "Web Bluetooth"),
            P::BrowsingTopics => (false, true, Some(SelfOrigin), C::Ads, "Topics API"),
            P::Camera => (
                true,
                true,
                Some(SelfOrigin),
                C::Media,
                "Media Capture and Streams",
            ),
            P::ClipboardRead => (true, true, Some(SelfOrigin), C::Misc, "Clipboard API"),
            P::ClipboardWrite => (true, true, Some(SelfOrigin), C::Misc, "Clipboard API"),
            P::ComputePressure => (false, true, Some(SelfOrigin), C::Sensor, "Compute Pressure"),
            P::DirectSockets => (true, true, Some(SelfOrigin), C::Device, "Direct Sockets"),
            P::DisplayCapture => (true, true, Some(SelfOrigin), C::Media, "Screen Capture"),
            P::EncryptedMedia => (
                false,
                true,
                Some(SelfOrigin),
                C::Media,
                "Encrypted Media Extensions",
            ),
            P::Gamepad => (false, true, Some(Star), C::Device, "Gamepad"),
            P::Geolocation => (true, true, Some(SelfOrigin), C::Sensor, "Geolocation API"),
            P::Gyroscope => (
                false,
                true,
                Some(SelfOrigin),
                C::Sensor,
                "Generic Sensor API",
            ),
            P::Hid => (true, true, Some(SelfOrigin), C::Device, "WebHID"),
            P::IdleDetection => (true, true, Some(SelfOrigin), C::Misc, "Idle Detection"),
            P::KeyboardLock => (false, true, Some(SelfOrigin), C::Ui, "Keyboard Lock"),
            P::KeyboardMap => (false, true, Some(SelfOrigin), C::Ui, "Keyboard Map"),
            P::LocalFonts => (true, true, Some(SelfOrigin), C::Misc, "Local Font Access"),
            P::Magnetometer => (false, true, Some(SelfOrigin), C::Sensor, "Magnetometer"),
            P::Microphone => (
                true,
                true,
                Some(SelfOrigin),
                C::Media,
                "Media Capture and Streams",
            ),
            P::Midi => (true, true, Some(SelfOrigin), C::Device, "Web MIDI"),
            P::Notifications => (true, false, None, C::Misc, "Notifications API"),
            P::Payment => (
                false,
                true,
                Some(SelfOrigin),
                C::Payment,
                "Payment Request API",
            ),
            P::PointerLock => (false, true, Some(SelfOrigin), C::Ui, "Pointer Lock"),
            P::PublickeyCredentialsCreate => {
                (true, true, Some(SelfOrigin), C::Identity, "WebAuthn")
            }
            P::PublickeyCredentialsGet => (true, true, Some(SelfOrigin), C::Identity, "WebAuthn"),
            P::Push => (true, false, None, C::Misc, "Push API"),
            P::ScreenWakeLock => (false, true, Some(SelfOrigin), C::Ui, "Screen Wake Lock"),
            P::Serial => (true, true, Some(SelfOrigin), C::Device, "Web Serial"),
            P::SpeakerSelection => (
                true,
                true,
                Some(SelfOrigin),
                C::Media,
                "Audio Output Devices",
            ),
            P::StorageAccess => (true, true, Some(Star), C::Storage, "Storage Access API"),
            P::SystemWakeLock => (false, false, None, C::Ui, "System Wake Lock"),
            P::TopLevelStorageAccess => (
                true,
                true,
                Some(SelfOrigin),
                C::Storage,
                "Storage Access API (extension)",
            ),
            P::Usb => (true, true, Some(SelfOrigin), C::Device, "WebUSB"),
            P::WebShare => (false, true, Some(SelfOrigin), C::Misc, "Web Share API"),
            P::WindowManagement => (true, true, Some(SelfOrigin), C::Ui, "Window Management"),
            P::XrSpatialTracking => (true, true, Some(SelfOrigin), C::Sensor, "WebXR Device API"),
            P::Autoplay => (false, true, Some(SelfOrigin), C::Media, "HTML (autoplay)"),
            P::Fullscreen => (false, true, Some(SelfOrigin), C::Ui, "Fullscreen API"),
            P::PictureInPicture => (false, true, Some(Star), C::Media, "Picture-in-Picture"),
            P::SyncXhr => (false, true, Some(Star), C::Misc, "XMLHttpRequest (sync)"),
            P::SyncScript => (false, true, Some(Star), C::Misc, "HTML (sync script)"),
            P::DocumentDomain => (false, true, Some(Star), C::Misc, "HTML (document.domain)"),
            P::InterestCohort => (false, true, Some(SelfOrigin), C::Ads, "FLoC (removed)"),
            P::AttributionReporting => (false, true, Some(Star), C::Ads, "Attribution Reporting"),
            P::RunAdAuction => (false, true, Some(Star), C::Ads, "Protected Audience"),
            P::JoinAdInterestGroup => (false, true, Some(Star), C::Ads, "Protected Audience"),
            P::IdentityCredentialsGet => (false, true, Some(SelfOrigin), C::Identity, "FedCM"),
            P::OtpCredentials => (false, true, Some(SelfOrigin), C::Identity, "WebOTP"),
            P::CrossOriginIsolated => (false, true, Some(SelfOrigin), C::Misc, "HTML (COI)"),
            P::PrivateStateTokenIssuance => (
                false,
                true,
                Some(SelfOrigin),
                C::Ads,
                "Private State Tokens",
            ),
            P::PrivateStateTokenRedemption => (
                false,
                true,
                Some(SelfOrigin),
                C::Ads,
                "Private State Tokens",
            ),
            P::Vr => (false, true, Some(SelfOrigin), C::Sensor, "WebVR (legacy)"),
            P::UnloadPermission => (false, true, Some(Star), C::Misc, "HTML (unload)"),
            P::ChUa
            | P::ChUaArch
            | P::ChUaBitness
            | P::ChUaFullVersion
            | P::ChUaFullVersionList
            | P::ChUaMobile
            | P::ChUaModel
            | P::ChUaPlatform
            | P::ChUaPlatformVersion
            | P::ChUaWow64 => (
                false,
                true,
                Some(SelfOrigin),
                C::ClientHints,
                "UA Client Hints",
            ),
        };
        PermissionInfo {
            powerful,
            policy_controlled: policy,
            default_allowlist: dal,
            category,
            spec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::all_permissions;

    #[test]
    fn star_defaults_match_paper() {
        // §4.2.1: picture-in-picture "does not require delegation because
        // their default is *".
        assert_eq!(
            Permission::PictureInPicture.info().default_allowlist,
            Some(DefaultAllowlist::Star)
        );
        // attribution-reporting is widely available to embedded ads without
        // delegation; the paper's Table 5 shows heavy third-party checking.
        assert_eq!(
            Permission::AttributionReporting.info().default_allowlist,
            Some(DefaultAllowlist::Star)
        );
    }

    #[test]
    fn client_hints_are_policy_controlled_not_powerful() {
        let info = Permission::ChUaPlatform.info();
        assert!(info.policy_controlled);
        assert!(!info.powerful);
        assert_eq!(info.category, Category::ClientHints);
    }

    #[test]
    fn powerful_implies_prompting_categories() {
        // Sanity: every Media powerful permission has a self default —
        // browsers do not auto-grant capture to third parties.
        for p in all_permissions() {
            let info = p.info();
            if info.powerful && info.category == Category::Media {
                assert_eq!(info.default_allowlist, Some(DefaultAllowlist::SelfOrigin));
            }
        }
    }

    #[test]
    fn system_wake_lock_is_not_policy_controlled() {
        assert!(!Permission::SystemWakeLock.info().policy_controlled);
    }
}
