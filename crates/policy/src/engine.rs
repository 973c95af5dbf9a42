//! The Permissions Policy processing model.
//!
//! Implements the spec algorithms the browser runs:
//!
//! * *is feature enabled in document for origin?* —
//!   [`DocumentPolicy::is_enabled_for`],
//! * *define an inherited policy for feature in container at origin* —
//!   applied when constructing a child [`DocumentPolicy`] via
//!   [`PolicyEngine::document_for_frame`].
//!
//! Both run for every feature at once: a document policy keeps its
//! inherited policy and the features its own origin may use as 128-bit
//! feature sets, fixed when the policy is built, so every per-feature
//! query the browser makes is a bit read. The step-by-step, one feature
//! at a time transcription of the spec lives in `difftest::oracle::process`
//! and is the reference this engine is checked against.
//!
//! The engine has one switch, [`LocalSchemeBehavior`], selecting between
//! the behaviour the paper *expected* (local-scheme documents inherit the
//! parent's declared policy) and the behaviour the spec actually produces
//! in Chromium (local-scheme documents get a fresh declared policy) — the
//! §6.2 specification issue that enables permission hijacking via
//! `data:`-URI documents (Table 11).

use registry::{DefaultAllowlist, Permission, PermissionSet};
use weburl::Origin;

use crate::allow_attr::AllowAttribute;
use crate::allowlist::Allowlist;
use crate::header::DeclaredPolicy;

/// The set of registry features whose [`registry::PermissionInfo`]
/// satisfies a predicate, built at compile time.
macro_rules! registry_set {
    (|$info:ident| $pred:expr) => {{
        let all = registry::all_permissions();
        let mut set = PermissionSet::EMPTY;
        let mut i = 0;
        while i < all.len() {
            let $info = all[i].info();
            if $pred {
                set = set.with(all[i]);
            }
            i += 1;
        }
        set
    }};
}

/// Every policy-controlled feature.
const POLICY_CONTROLLED: PermissionSet = registry_set!(|info| info.policy_controlled);
/// The features whose default allowlist is `*`.
const STAR_DEFAULT: PermissionSet =
    registry_set!(|info| matches!(info.default_allowlist, Some(DefaultAllowlist::Star)));
/// The features whose default allowlist is `self`.
const SELF_DEFAULT: PermissionSet =
    registry_set!(|info| matches!(info.default_allowlist, Some(DefaultAllowlist::SelfOrigin)));

/// Matches the first allowlist given for each feature, in declaration
/// order. Returns the features named at all and those whose first
/// allowlist matched; later entries for a feature are ignored, as
/// [`DeclaredPolicy::get`] and [`AllowAttribute::get`] ignore them.
fn first_matches<'a>(
    entries: impl Iterator<Item = (Option<Permission>, &'a Allowlist)>,
    matches: impl Fn(&Allowlist) -> bool,
) -> (PermissionSet, PermissionSet) {
    let (mut named, mut matched) = (PermissionSet::EMPTY, PermissionSet::EMPTY);
    for (feature, allowlist) in entries {
        let Some(feature) = feature else { continue };
        if !named.contains(feature) {
            named.insert(feature);
            if matches(allowlist) {
                matched.insert(feature);
            }
        }
    }
    (named, matched)
}

/// How local-scheme (`data:`, `about:srcdoc`, `blob:`) documents treat the
/// parent's *declared* (header) policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSchemeBehavior {
    /// Expected behaviour: the child inherits the parent's declared policy,
    /// with `self` still referring to the parent's origin. A `camera=(self)`
    /// header keeps constraining what the local document can delegate.
    InheritParent,
    /// Spec-as-written / Chromium behaviour (w3c/webappsec-permissions-policy
    /// issue #552): the local document starts with **no** declared policy,
    /// so the parent's header no longer constrains onward delegation —
    /// the local-scheme document attack.
    #[default]
    FreshPolicy,
}

/// The policy engine: constructs document policies.
#[derive(Debug, Clone, Copy, Default)]
pub struct PolicyEngine {
    /// Local-scheme declared-policy inheritance behaviour.
    pub local_scheme: LocalSchemeBehavior,
}

/// How a frame is embedded: everything the inheritance algorithm needs
/// from the embedding side.
#[derive(Debug, Clone, Default)]
pub struct FramingContext<'a> {
    /// The `allow` attribute of the embedding `<iframe>`, if any.
    pub allow: Option<&'a AllowAttribute>,
    /// The origin of the iframe's `src` URL (the `'src'` keyword target).
    pub src_origin: Option<Origin>,
}

/// The permissions policy of one document.
#[derive(Debug, Clone, PartialEq)]
pub struct DocumentPolicy {
    /// The document's own origin, which `self` in the declared policy
    /// refers to.
    origin: Origin,
    /// The declared (header) policy.
    declared: DeclaredPolicy,
    /// Inherited policy: the policy-controlled features enabled at
    /// document creation.
    inherited: PermissionSet,
    /// The features enabled for the document's own origin: the answer of
    /// [`DocumentPolicy::is_enabled_for`] at `origin`, for every feature.
    allowed: PermissionSet,
}

impl DocumentPolicy {
    fn new(origin: Origin, declared: DeclaredPolicy, inherited: PermissionSet) -> DocumentPolicy {
        // Both default allowlists (`self` and `*`) match the document's
        // own origin, so only a declared directive can withhold an
        // inherited feature from it.
        let (named, matched) = first_matches(
            declared
                .directives()
                .iter()
                .map(|d| (d.permission, &d.allowlist)),
            |allowlist| allowlist.matches(&origin, &origin, None),
        );
        let allowed = (inherited & (matched | !named)) | !POLICY_CONTROLLED;
        DocumentPolicy {
            origin,
            declared,
            inherited,
            allowed,
        }
    }

    /// The document's origin.
    pub fn origin(&self) -> &Origin {
        &self.origin
    }

    /// The declared (header) policy.
    pub fn declared(&self) -> &DeclaredPolicy {
        &self.declared
    }

    /// The spec's *is feature enabled in document for origin?*.
    ///
    /// Non-policy-controlled features are not governed by Permissions
    /// Policy at all; the engine reports them as enabled and leaves their
    /// semantics (e.g. notifications being top-level-only) to the browser.
    pub fn is_enabled_for(&self, feature: Permission, origin: &Origin) -> bool {
        if !POLICY_CONTROLLED.contains(feature) {
            return true;
        }
        if !self.inherited.contains(feature) {
            return false;
        }
        if let Some(allowlist) = self.declared.get(feature) {
            return allowlist.matches(origin, &self.origin, None);
        }
        STAR_DEFAULT.contains(feature) || origin.same_origin(&self.origin)
    }

    /// Whether the document itself may use the feature (and therefore
    /// prompt the user / delegate it onward). This is the paper's
    /// "Prompt and Delegation Capability" column.
    pub fn allowed_to_use(&self, feature: Permission) -> bool {
        self.allowed.contains(feature)
    }

    /// Features reported by `document.featurePolicy.allowedFeatures()`:
    /// every policy-controlled feature enabled for the document's origin,
    /// in registry order.
    pub fn allowed_features(&self) -> Vec<Permission> {
        (self.allowed & POLICY_CONTROLLED).iter().collect()
    }
}

impl PolicyEngine {
    /// Creates the engine with the given local-scheme behaviour.
    pub fn new(local_scheme: LocalSchemeBehavior) -> PolicyEngine {
        PolicyEngine { local_scheme }
    }

    /// Policy for a top-level document: inherited policy is all-enabled;
    /// the declared policy comes from the response headers.
    pub fn document_for_top_level(
        &self,
        origin: Origin,
        declared: DeclaredPolicy,
    ) -> DocumentPolicy {
        DocumentPolicy::new(origin, declared, POLICY_CONTROLLED)
    }

    /// The spec's *define an inherited policy for feature in container at
    /// origin*, evaluated for every feature at once against the parent
    /// document's policy.
    fn inherited_policy(
        &self,
        parent: &DocumentPolicy,
        framing: &FramingContext<'_>,
        child_origin: &Origin,
    ) -> PermissionSet {
        // Step: feature must be enabled in the parent for the parent itself.
        let enabled_in_parent = parent.allowed & POLICY_CONTROLLED;
        // Step: a declared directive in the parent that does not cover the
        // child's origin blocks inheritance (Table 1 case #4).
        let (declared, covered) = first_matches(
            parent
                .declared
                .directives()
                .iter()
                .map(|d| (d.permission, &d.allowlist)),
            |allowlist| allowlist.matches(child_origin, &parent.origin, None),
        );
        // Step: the container policy (allow attribute) decides if present.
        let (delegated, granted) = match framing.allow {
            Some(allow) => first_matches(
                allow
                    .delegations()
                    .iter()
                    .map(|d| (d.permission, &d.allowlist)),
                |allowlist| {
                    allowlist.matches(child_origin, &parent.origin, framing.src_origin.as_ref())
                },
            ),
            None => (PermissionSet::EMPTY, PermissionSet::EMPTY),
        };
        // Steps: fall back to the default allowlist.
        let defaults = if child_origin.same_origin(&parent.origin) {
            STAR_DEFAULT | SELF_DEFAULT
        } else {
            STAR_DEFAULT
        };
        enabled_in_parent & (covered | !declared) & (granted | (defaults & !delegated))
    }

    /// Policy for a framed document.
    ///
    /// `child_declared` is the policy parsed from the frame's own response
    /// headers (always empty for local-scheme documents — they have no
    /// headers). `is_local_scheme` selects the [`LocalSchemeBehavior`]
    /// handling.
    pub fn document_for_frame(
        &self,
        parent: &DocumentPolicy,
        framing: &FramingContext<'_>,
        child_origin: Origin,
        child_declared: DeclaredPolicy,
        is_local_scheme: bool,
    ) -> DocumentPolicy {
        if is_local_scheme {
            return match self.local_scheme {
                // Expected behaviour: the local document *is* its parent
                // for policy purposes — same inherited policy, same
                // declared policy, same `self` reference. Onward
                // delegation stays constrained exactly like delegation
                // from the parent itself.
                LocalSchemeBehavior::InheritParent => parent.clone(),
                // The bug: the local document gets a completely fresh
                // policy, as if it were a new top-level page — the
                // parent's header no longer constrains anything it does.
                LocalSchemeBehavior::FreshPolicy => {
                    self.document_for_top_level(child_origin, DeclaredPolicy::default())
                }
            };
        }
        let inherited = self.inherited_policy(parent, framing, &child_origin);
        DocumentPolicy::new(child_origin, child_declared, inherited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allow_attr::parse_allow_attribute;
    use crate::header::parse_permissions_policy;
    use weburl::Url;

    const CAMERA: Permission = Permission::Camera;

    fn origin(s: &str) -> Origin {
        Url::parse(s).unwrap().origin()
    }

    fn top(engine: &PolicyEngine, header: Option<&str>) -> DocumentPolicy {
        let declared = header
            .map(|h| parse_permissions_policy(h).unwrap())
            .unwrap_or_default();
        engine.document_for_top_level(origin("https://example.org/"), declared)
    }

    /// Embeds https://iframe.com under `parent` with the given allow attr.
    fn embed(
        engine: &PolicyEngine,
        parent: &DocumentPolicy,
        allow: Option<&str>,
    ) -> DocumentPolicy {
        let allow = allow.map(parse_allow_attribute);
        let framing = FramingContext {
            allow: allow.as_ref(),
            src_origin: Some(origin("https://iframe.com/")),
        };
        engine.document_for_frame(
            parent,
            &framing,
            origin("https://iframe.com/"),
            DeclaredPolicy::default(),
            false,
        )
    }

    /// The paper's Table 1, all eight cases.
    #[test]
    fn table1_delegation_matrix() {
        let engine = PolicyEngine::default();
        // (header, allow, expect_top, expect_iframe)
        let cases: [(Option<&str>, Option<&str>, bool, bool); 8] = [
            (None, None, true, false),                            // #1
            (None, Some("camera"), true, true),                   // #2
            (Some("camera=()"), Some("camera"), false, false),    // #3
            (Some("camera=(self)"), Some("camera"), true, false), // #4
            (Some("camera=(*)"), None, true, false),              // #5
            (Some("camera=(*)"), Some("camera"), true, true),     // #6
            (
                Some(r#"camera=(self "https://iframe.com")"#),
                Some("camera"),
                true,
                true,
            ), // #7
            (
                Some(r#"camera=("https://iframe.com")"#),
                Some("camera"),
                false,
                false,
            ), // #8
        ];
        for (i, (header, allow, expect_top, expect_iframe)) in cases.iter().enumerate() {
            let parent = top(&engine, *header);
            assert_eq!(
                parent.allowed_to_use(CAMERA),
                *expect_top,
                "case #{} top-level",
                i + 1
            );
            let child = embed(&engine, &parent, *allow);
            assert_eq!(
                child.allowed_to_use(CAMERA),
                *expect_iframe,
                "case #{} iframe",
                i + 1
            );
        }
    }

    /// Once delegated, a permission can be re-delegated to nested iframes
    /// regardless of the top-level header (§2.2.5).
    #[test]
    fn nested_redelegation_cannot_be_prevented() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, Some(r#"camera=(self "https://iframe.com")"#));
        let child = embed(&engine, &parent, Some("camera"));
        assert!(child.allowed_to_use(CAMERA));
        // iframe.com embeds nested.example with allow="camera".
        let framing = FramingContext {
            allow: Some(&parse_allow_attribute("camera")),
            src_origin: Some(origin("https://nested.example/")),
        };
        let nested = engine.document_for_frame(
            &child,
            &framing,
            origin("https://nested.example/"),
            DeclaredPolicy::default(),
            false,
        );
        assert!(
            nested.allowed_to_use(CAMERA),
            "nested re-delegation succeeds despite top-level allowlist"
        );
    }

    /// Same-origin iframes get `self`-default features without delegation.
    #[test]
    fn same_origin_iframe_inherits_self_default() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let framing = FramingContext {
            allow: None,
            src_origin: Some(origin("https://example.org/widget")),
        };
        let child = engine.document_for_frame(
            &parent,
            &framing,
            origin("https://example.org/"),
            DeclaredPolicy::default(),
            false,
        );
        assert!(child.allowed_to_use(CAMERA));
    }

    /// Star-default features (picture-in-picture) reach third-party iframes
    /// without any delegation.
    #[test]
    fn star_default_features_need_no_delegation() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let child = embed(&engine, &parent, None);
        assert!(child.allowed_to_use(Permission::PictureInPicture));
        assert!(!child.allowed_to_use(Permission::Camera));
    }

    /// The frame's own header can restrict it further.
    #[test]
    fn child_header_restricts_child() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        let allow = parse_allow_attribute("camera");
        let framing = FramingContext {
            allow: Some(&allow),
            src_origin: Some(origin("https://iframe.com/")),
        };
        let child = engine.document_for_frame(
            &parent,
            &framing,
            origin("https://iframe.com/"),
            parse_permissions_policy("camera=()").unwrap(),
            false,
        );
        assert!(!child.allowed_to_use(CAMERA));
    }

    /// Table 11: the local-scheme document attack.
    #[test]
    fn table11_local_scheme_attack() {
        for (behavior, attacker_gets_camera) in [
            (LocalSchemeBehavior::InheritParent, false), // expected
            (LocalSchemeBehavior::FreshPolicy, true),    // actual spec/Chromium
        ] {
            let engine = PolicyEngine::new(behavior);
            // example.org declares camera=(self).
            let parent = top(&engine, Some("camera=(self)"));
            assert!(parent.allowed_to_use(CAMERA));
            // It embeds a local-scheme (data:) document. about:srcdoc-style
            // docs share the parent's origin in Chromium's treatment of
            // 'self'-delegated features; model the PoC's srcdoc case where
            // the local doc is reachable by camera (✓ in both Table 11 rows).
            let local_origin = parent.origin().clone();
            let framing = FramingContext {
                allow: None,
                src_origin: None,
            };
            let local = engine.document_for_frame(
                &parent,
                &framing,
                local_origin,
                DeclaredPolicy::default(),
                true,
            );
            assert!(
                local.allowed_to_use(CAMERA),
                "{behavior:?}: local doc has camera"
            );
            // The local doc embeds attacker.com with allow="camera".
            let allow = parse_allow_attribute("camera");
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(origin("https://attacker.com/")),
            };
            let attacker = engine.document_for_frame(
                &local,
                &framing,
                origin("https://attacker.com/"),
                DeclaredPolicy::default(),
                false,
            );
            assert_eq!(
                attacker.allowed_to_use(CAMERA),
                attacker_gets_camera,
                "{behavior:?}: attacker frame"
            );
        }
    }

    /// Non-policy-controlled features are not governed by the engine.
    #[test]
    fn notifications_not_governed() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, Some("camera=()"));
        assert!(parent.is_enabled_for(Permission::Notifications, parent.origin()));
    }

    /// allowed_features reflects header restrictions.
    #[test]
    fn allowed_features_list() {
        let engine = PolicyEngine::default();
        let unrestricted = top(&engine, None);
        let restricted = top(&engine, Some("camera=(), microphone=(), geolocation=()"));
        let full = unrestricted.allowed_features();
        let less = restricted.allowed_features();
        assert_eq!(full.len(), less.len() + 3);
        assert!(!less.contains(&Permission::Camera));
        assert!(full.contains(&Permission::Camera));
    }

    /// `allowed_features` is written into every `FrameRecord` and every
    /// JS `allowedFeatures()` array, so its order is the registry's.
    #[test]
    fn unrestricted_allowed_features_are_the_registry_in_order() {
        let engine = PolicyEngine::default();
        assert_eq!(
            top(&engine, None).allowed_features(),
            registry::policy_controlled_permissions().collect::<Vec<_>>()
        );
    }

    /// Wildcard delegation keeps working after a redirect to another origin
    /// (the §5.2 LiveChat wildcard risk) while default-src does not.
    #[test]
    fn wildcard_delegation_survives_redirect() {
        let engine = PolicyEngine::default();
        let parent = top(&engine, None);
        // Frame declared with src=https://widget.example but redirected to
        // https://evil.example.
        let redirected = origin("https://evil.example/");
        for (allow_value, expect) in [("camera *", true), ("camera", false)] {
            let allow = parse_allow_attribute(allow_value);
            let framing = FramingContext {
                allow: Some(&allow),
                src_origin: Some(origin("https://widget.example/")),
            };
            let child = engine.document_for_frame(
                &parent,
                &framing,
                redirected.clone(),
                DeclaredPolicy::default(),
                false,
            );
            assert_eq!(child.allowed_to_use(CAMERA), expect, "allow={allow_value}");
        }
    }
}
