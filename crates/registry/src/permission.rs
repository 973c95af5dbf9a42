//! The [`Permission`] enum and token conversions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A browser permission / policy-controlled feature.
///
/// Covers the full instrumented list from the paper's Appendix A.4 plus
/// the policy-only features observed in Permissions-Policy headers and
/// `allow` attributes (autoplay, fullscreen, ad-related features, client
/// hints, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names mirror the spec tokens
pub enum Permission {
    // --- Instrumented permissions (Appendix A.4) ---
    Accelerometer,
    AmbientLightSensor,
    Battery,
    Bluetooth,
    BrowsingTopics,
    Camera,
    ClipboardRead,
    ClipboardWrite,
    ComputePressure,
    DirectSockets,
    DisplayCapture,
    EncryptedMedia,
    Gamepad,
    Geolocation,
    Gyroscope,
    Hid,
    IdleDetection,
    KeyboardLock,
    KeyboardMap,
    LocalFonts,
    Magnetometer,
    Microphone,
    Midi,
    Notifications,
    Payment,
    PointerLock,
    PublickeyCredentialsCreate,
    PublickeyCredentialsGet,
    Push,
    ScreenWakeLock,
    Serial,
    SpeakerSelection,
    StorageAccess,
    SystemWakeLock,
    TopLevelStorageAccess,
    Usb,
    WebShare,
    WindowManagement,
    XrSpatialTracking,
    // --- Policy-only features common in headers / allow attributes ---
    Autoplay,
    Fullscreen,
    PictureInPicture,
    SyncXhr,
    SyncScript,
    DocumentDomain,
    InterestCohort,
    AttributionReporting,
    RunAdAuction,
    JoinAdInterestGroup,
    IdentityCredentialsGet,
    OtpCredentials,
    CrossOriginIsolated,
    PrivateStateTokenIssuance,
    PrivateStateTokenRedemption,
    Vr,
    UnloadPermission,
    // --- User-Agent Client Hints family (common in embedded headers) ---
    ChUa,
    ChUaArch,
    ChUaBitness,
    ChUaFullVersion,
    ChUaFullVersionList,
    ChUaMobile,
    ChUaModel,
    ChUaPlatform,
    ChUaPlatformVersion,
    ChUaWow64,
}

/// All permissions, in declaration order.
pub(crate) const ALL: &[Permission] = &[
    Permission::Accelerometer,
    Permission::AmbientLightSensor,
    Permission::Battery,
    Permission::Bluetooth,
    Permission::BrowsingTopics,
    Permission::Camera,
    Permission::ClipboardRead,
    Permission::ClipboardWrite,
    Permission::ComputePressure,
    Permission::DirectSockets,
    Permission::DisplayCapture,
    Permission::EncryptedMedia,
    Permission::Gamepad,
    Permission::Geolocation,
    Permission::Gyroscope,
    Permission::Hid,
    Permission::IdleDetection,
    Permission::KeyboardLock,
    Permission::KeyboardMap,
    Permission::LocalFonts,
    Permission::Magnetometer,
    Permission::Microphone,
    Permission::Midi,
    Permission::Notifications,
    Permission::Payment,
    Permission::PointerLock,
    Permission::PublickeyCredentialsCreate,
    Permission::PublickeyCredentialsGet,
    Permission::Push,
    Permission::ScreenWakeLock,
    Permission::Serial,
    Permission::SpeakerSelection,
    Permission::StorageAccess,
    Permission::SystemWakeLock,
    Permission::TopLevelStorageAccess,
    Permission::Usb,
    Permission::WebShare,
    Permission::WindowManagement,
    Permission::XrSpatialTracking,
    Permission::Autoplay,
    Permission::Fullscreen,
    Permission::PictureInPicture,
    Permission::SyncXhr,
    Permission::SyncScript,
    Permission::DocumentDomain,
    Permission::InterestCohort,
    Permission::AttributionReporting,
    Permission::RunAdAuction,
    Permission::JoinAdInterestGroup,
    Permission::IdentityCredentialsGet,
    Permission::OtpCredentials,
    Permission::CrossOriginIsolated,
    Permission::PrivateStateTokenIssuance,
    Permission::PrivateStateTokenRedemption,
    Permission::Vr,
    Permission::UnloadPermission,
    Permission::ChUa,
    Permission::ChUaArch,
    Permission::ChUaBitness,
    Permission::ChUaFullVersion,
    Permission::ChUaFullVersionList,
    Permission::ChUaMobile,
    Permission::ChUaModel,
    Permission::ChUaPlatform,
    Permission::ChUaPlatformVersion,
    Permission::ChUaWow64,
];

impl Permission {
    /// The spec token, as it appears in headers and `allow` attributes
    /// (e.g. `"picture-in-picture"`).
    pub fn token(&self) -> &'static str {
        match self {
            Permission::Accelerometer => "accelerometer",
            Permission::AmbientLightSensor => "ambient-light-sensor",
            Permission::Battery => "battery",
            Permission::Bluetooth => "bluetooth",
            Permission::BrowsingTopics => "browsing-topics",
            Permission::Camera => "camera",
            Permission::ClipboardRead => "clipboard-read",
            Permission::ClipboardWrite => "clipboard-write",
            Permission::ComputePressure => "compute-pressure",
            Permission::DirectSockets => "direct-sockets",
            Permission::DisplayCapture => "display-capture",
            Permission::EncryptedMedia => "encrypted-media",
            Permission::Gamepad => "gamepad",
            Permission::Geolocation => "geolocation",
            Permission::Gyroscope => "gyroscope",
            Permission::Hid => "hid",
            Permission::IdleDetection => "idle-detection",
            Permission::KeyboardLock => "keyboard-lock",
            Permission::KeyboardMap => "keyboard-map",
            Permission::LocalFonts => "local-fonts",
            Permission::Magnetometer => "magnetometer",
            Permission::Microphone => "microphone",
            Permission::Midi => "midi",
            Permission::Notifications => "notifications",
            Permission::Payment => "payment",
            Permission::PointerLock => "pointer-lock",
            Permission::PublickeyCredentialsCreate => "publickey-credentials-create",
            Permission::PublickeyCredentialsGet => "publickey-credentials-get",
            Permission::Push => "push",
            Permission::ScreenWakeLock => "screen-wake-lock",
            Permission::Serial => "serial",
            Permission::SpeakerSelection => "speaker-selection",
            Permission::StorageAccess => "storage-access",
            Permission::SystemWakeLock => "system-wake-lock",
            Permission::TopLevelStorageAccess => "top-level-storage-access",
            Permission::Usb => "usb",
            Permission::WebShare => "web-share",
            Permission::WindowManagement => "window-management",
            Permission::XrSpatialTracking => "xr-spatial-tracking",
            Permission::Autoplay => "autoplay",
            Permission::Fullscreen => "fullscreen",
            Permission::PictureInPicture => "picture-in-picture",
            Permission::SyncXhr => "sync-xhr",
            Permission::SyncScript => "sync-script",
            Permission::DocumentDomain => "document-domain",
            Permission::InterestCohort => "interest-cohort",
            Permission::AttributionReporting => "attribution-reporting",
            Permission::RunAdAuction => "run-ad-auction",
            Permission::JoinAdInterestGroup => "join-ad-interest-group",
            Permission::IdentityCredentialsGet => "identity-credentials-get",
            Permission::OtpCredentials => "otp-credentials",
            Permission::CrossOriginIsolated => "cross-origin-isolated",
            Permission::PrivateStateTokenIssuance => "private-state-token-issuance",
            Permission::PrivateStateTokenRedemption => "private-state-token-redemption",
            Permission::Vr => "vr",
            Permission::UnloadPermission => "unload",
            Permission::ChUa => "ch-ua",
            Permission::ChUaArch => "ch-ua-arch",
            Permission::ChUaBitness => "ch-ua-bitness",
            Permission::ChUaFullVersion => "ch-ua-full-version",
            Permission::ChUaFullVersionList => "ch-ua-full-version-list",
            Permission::ChUaMobile => "ch-ua-mobile",
            Permission::ChUaModel => "ch-ua-model",
            Permission::ChUaPlatform => "ch-ua-platform",
            Permission::ChUaPlatformVersion => "ch-ua-platform-version",
            Permission::ChUaWow64 => "ch-ua-wow64",
        }
    }

    /// The human-readable name used in the paper's tables (e.g. `"Browsing
    /// Topics"`, `"Public Key Credentials Get"`).
    pub fn display_name(&self) -> String {
        match self {
            Permission::PublickeyCredentialsGet => "Public Key Credentials Get".to_string(),
            Permission::PublickeyCredentialsCreate => "Public Key Credentials Create".to_string(),
            Permission::Midi => "MIDI".to_string(),
            Permission::Usb => "USB".to_string(),
            Permission::Hid => "HID".to_string(),
            Permission::SyncXhr => "Sync XHR".to_string(),
            _ => self
                .token()
                .split('-')
                .map(|w| {
                    let mut chars = w.chars();
                    match chars.next() {
                        Some(c) => c.to_uppercase().collect::<String>() + chars.as_str(),
                        None => String::new(),
                    }
                })
                .collect::<Vec<_>>()
                .join(" "),
        }
    }

    /// Looks up a permission by its spec token (case-insensitive).
    ///
    /// Exact (lowercase) tokens — the only form this codebase ever
    /// writes — resolve through a single `match`; mixed-case input
    /// falls back to a case-insensitive scan. Neither path allocates.
    pub fn from_token(token: &str) -> Option<Permission> {
        if let Some(p) = Permission::from_token_exact(token.as_bytes()) {
            return Some(p);
        }
        if token.bytes().any(|b| b.is_ascii_uppercase()) {
            return ALL
                .iter()
                .copied()
                .find(|p| p.token().eq_ignore_ascii_case(token));
        }
        None
    }

    /// The inverse of [`Permission::token`] as one `match` (the
    /// compiler turns it into a length-bucketed comparison chain).
    /// Round-trip consistency with `token()` is enforced by test.
    pub(crate) fn from_token_exact(token: &[u8]) -> Option<Permission> {
        Some(match token {
            b"accelerometer" => Permission::Accelerometer,
            b"ambient-light-sensor" => Permission::AmbientLightSensor,
            b"battery" => Permission::Battery,
            b"bluetooth" => Permission::Bluetooth,
            b"browsing-topics" => Permission::BrowsingTopics,
            b"camera" => Permission::Camera,
            b"clipboard-read" => Permission::ClipboardRead,
            b"clipboard-write" => Permission::ClipboardWrite,
            b"compute-pressure" => Permission::ComputePressure,
            b"direct-sockets" => Permission::DirectSockets,
            b"display-capture" => Permission::DisplayCapture,
            b"encrypted-media" => Permission::EncryptedMedia,
            b"gamepad" => Permission::Gamepad,
            b"geolocation" => Permission::Geolocation,
            b"gyroscope" => Permission::Gyroscope,
            b"hid" => Permission::Hid,
            b"idle-detection" => Permission::IdleDetection,
            b"keyboard-lock" => Permission::KeyboardLock,
            b"keyboard-map" => Permission::KeyboardMap,
            b"local-fonts" => Permission::LocalFonts,
            b"magnetometer" => Permission::Magnetometer,
            b"microphone" => Permission::Microphone,
            b"midi" => Permission::Midi,
            b"notifications" => Permission::Notifications,
            b"payment" => Permission::Payment,
            b"pointer-lock" => Permission::PointerLock,
            b"publickey-credentials-create" => Permission::PublickeyCredentialsCreate,
            b"publickey-credentials-get" => Permission::PublickeyCredentialsGet,
            b"push" => Permission::Push,
            b"screen-wake-lock" => Permission::ScreenWakeLock,
            b"serial" => Permission::Serial,
            b"speaker-selection" => Permission::SpeakerSelection,
            b"storage-access" => Permission::StorageAccess,
            b"system-wake-lock" => Permission::SystemWakeLock,
            b"top-level-storage-access" => Permission::TopLevelStorageAccess,
            b"usb" => Permission::Usb,
            b"web-share" => Permission::WebShare,
            b"window-management" => Permission::WindowManagement,
            b"xr-spatial-tracking" => Permission::XrSpatialTracking,
            b"autoplay" => Permission::Autoplay,
            b"fullscreen" => Permission::Fullscreen,
            b"picture-in-picture" => Permission::PictureInPicture,
            b"sync-xhr" => Permission::SyncXhr,
            b"sync-script" => Permission::SyncScript,
            b"document-domain" => Permission::DocumentDomain,
            b"interest-cohort" => Permission::InterestCohort,
            b"attribution-reporting" => Permission::AttributionReporting,
            b"run-ad-auction" => Permission::RunAdAuction,
            b"join-ad-interest-group" => Permission::JoinAdInterestGroup,
            b"identity-credentials-get" => Permission::IdentityCredentialsGet,
            b"otp-credentials" => Permission::OtpCredentials,
            b"cross-origin-isolated" => Permission::CrossOriginIsolated,
            b"private-state-token-issuance" => Permission::PrivateStateTokenIssuance,
            b"private-state-token-redemption" => Permission::PrivateStateTokenRedemption,
            b"vr" => Permission::Vr,
            b"unload" => Permission::UnloadPermission,
            b"ch-ua" => Permission::ChUa,
            b"ch-ua-arch" => Permission::ChUaArch,
            b"ch-ua-bitness" => Permission::ChUaBitness,
            b"ch-ua-full-version" => Permission::ChUaFullVersion,
            b"ch-ua-full-version-list" => Permission::ChUaFullVersionList,
            b"ch-ua-mobile" => Permission::ChUaMobile,
            b"ch-ua-model" => Permission::ChUaModel,
            b"ch-ua-platform" => Permission::ChUaPlatform,
            b"ch-ua-platform-version" => Permission::ChUaPlatformVersion,
            b"ch-ua-wow64" => Permission::ChUaWow64,
            _ => return None,
        })
    }

    /// Whether this is a User-Agent Client Hints feature (`ch-ua-*`), the
    /// family the paper finds dominating embedded-document headers.
    pub fn is_client_hint(&self) -> bool {
        self.token().starts_with("ch-ua")
    }
}

impl fmt::Display for Permission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.token())
    }
}

impl std::str::FromStr for Permission {
    type Err = UnknownPermission;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Permission::from_token(s).ok_or_else(|| UnknownPermission(s.to_string()))
    }
}

/// Error returned when parsing an unknown permission token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownPermission(pub String);

impl fmt::Display for UnknownPermission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown permission token: {}", self.0)
    }
}

impl std::error::Error for UnknownPermission {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_unique() {
        let mut tokens: Vec<_> = ALL.iter().map(|p| p.token()).collect();
        tokens.sort_unstable();
        let before = tokens.len();
        tokens.dedup();
        assert_eq!(tokens.len(), before);
    }

    #[test]
    fn exact_match_inverts_token() {
        for p in ALL.iter().copied() {
            assert_eq!(Permission::from_token_exact(p.token().as_bytes()), Some(p));
            assert_eq!(Permission::from_token(p.token()), Some(p));
        }
    }

    #[test]
    fn from_token_is_case_insensitive() {
        assert_eq!(Permission::from_token("CAMERA"), Some(Permission::Camera));
        assert_eq!(
            Permission::from_token("Picture-In-Picture"),
            Some(Permission::PictureInPicture)
        );
        assert_eq!(Permission::from_token("bogus"), None);
    }

    #[test]
    fn display_names_match_paper_style() {
        assert_eq!(Permission::BrowsingTopics.display_name(), "Browsing Topics");
        assert_eq!(
            Permission::PublickeyCredentialsGet.display_name(),
            "Public Key Credentials Get"
        );
        assert_eq!(Permission::Battery.display_name(), "Battery");
        assert_eq!(Permission::Midi.display_name(), "MIDI");
    }

    #[test]
    fn from_str_error_carries_token() {
        let err = "not-a-permission".parse::<Permission>().unwrap_err();
        assert_eq!(err.0, "not-a-permission");
    }

    #[test]
    fn client_hint_family() {
        assert!(Permission::ChUaMobile.is_client_hint());
        assert!(!Permission::Camera.is_client_hint());
        let n = ALL.iter().filter(|p| p.is_client_hint()).count();
        assert_eq!(n, 10);
    }
}
