//! Permission registry.
//!
//! The measurement pipeline, the policy engine, the synthetic web generator
//! and the developer tools all need one shared source of truth about
//! browser permissions:
//!
//! * which permissions exist ([`Permission`], the full instrumented list
//!   from the paper's Appendix A.4 plus the policy-only features that occur
//!   in headers and `allow` attributes), and sets of them
//!   ([`PermissionSet`], one bit per permission),
//! * their characteristics ([`PermissionInfo`]: *policy-controlled?*,
//!   *powerful?*, default allowlist, category — the paper's Table 2),
//! * the Web-API surface behind each permission ([`apis`]: the strings the
//!   static analyzer matches and the host functions the dynamic
//!   instrumentation hooks),
//! * and which browser versions support what ([`support`]: the data behind
//!   the paper's caniuse-like tool, §6.3 / Appendix A.6).
//!
//! The data is a snapshot consistent with the paper's July-2024 measurement
//! (e.g. `gamepad` is policy-controlled but not powerful with a `*` default
//! allowlist; `notifications` and `push` are powerful but *not*
//! policy-controlled).
//!
//! # Example
//!
//! ```
//! use registry::{Permission, DefaultAllowlist};
//!
//! let camera = Permission::Camera;
//! let info = camera.info();
//! assert!(info.powerful);
//! assert!(info.policy_controlled);
//! assert_eq!(info.default_allowlist, Some(DefaultAllowlist::SelfOrigin));
//! assert_eq!(camera.token(), "camera");
//! assert_eq!(Permission::from_token("camera"), Some(camera));
//! ```

pub mod apis;
mod info;
mod permission;
pub mod set;
pub mod support;

pub use info::{Category, DefaultAllowlist, PermissionInfo};
pub use permission::{FeatureToken, Permission};
pub use set::PermissionSet;

/// All permissions known to the registry, in declaration order: entry
/// `i` is the permission whose discriminant is `i`.
pub const fn all_permissions() -> &'static [Permission] {
    permission::ALL
}

/// All policy-controlled permissions (the ones that can appear in a
/// Permissions-Policy header or `allow` attribute).
pub fn policy_controlled_permissions() -> impl Iterator<Item = Permission> {
    permission::ALL
        .iter()
        .copied()
        .filter(|p| p.info().policy_controlled)
}

/// All powerful permissions (the ones that require user consent).
pub fn powerful_permissions() -> impl Iterator<Item = Permission> {
    permission::ALL
        .iter()
        .copied()
        .filter(|p| p.info().powerful)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_self_consistent() {
        for p in all_permissions() {
            let info = p.info();
            // Policy-controlled permissions must have a default allowlist;
            // others must not.
            assert_eq!(
                info.policy_controlled,
                info.default_allowlist.is_some(),
                "{}",
                p.token()
            );
            // Tokens round-trip.
            assert_eq!(Permission::from_token(p.token()), Some(*p), "{}", p.token());
        }
    }

    #[test]
    fn paper_table2_characteristics() {
        // Table 2 of the paper.
        let camera = Permission::Camera.info();
        assert!(camera.powerful && camera.policy_controlled);
        assert_eq!(camera.default_allowlist, Some(DefaultAllowlist::SelfOrigin));

        let geo = Permission::Geolocation.info();
        assert!(geo.powerful && geo.policy_controlled);
        assert_eq!(geo.default_allowlist, Some(DefaultAllowlist::SelfOrigin));

        let gamepad = Permission::Gamepad.info();
        assert!(!gamepad.powerful && gamepad.policy_controlled);
        assert_eq!(gamepad.default_allowlist, Some(DefaultAllowlist::Star));

        let notifications = Permission::Notifications.info();
        assert!(notifications.powerful && !notifications.policy_controlled);
        assert_eq!(notifications.default_allowlist, None);

        let push = Permission::Push.info();
        assert!(push.powerful && !push.policy_controlled);
        assert_eq!(push.default_allowlist, None);
    }

    #[test]
    fn counts_are_plausible() {
        assert!(all_permissions().len() >= 50);
        assert!(policy_controlled_permissions().count() >= 40);
        assert!(powerful_permissions().count() >= 15);
    }
}
