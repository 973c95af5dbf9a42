//! The instrumentation hooks (the paper's Figure 1, in Rust).
//!
//! Every host API call from `jsland` lands here. The hook records the
//! call — path, resolved permissions, calling script, whether policy
//! blocked it — and then answers like the real browser would, consulting
//! the document's [`DocumentPolicy`] for permission state and allowed
//! feature lists.

use std::rc::Rc;

use jsland::{ApiCall, HostHooks, Value};
use policy::DocumentPolicy;
use registry::apis::{self, ApiKind};
use registry::Permission;

use crate::records::{InvocationKind, InvocationRecord};

thread_local! {
    /// Every permission's token as a script string, made once per
    /// thread. Each `allowedFeatures()` array is fresh but shares these;
    /// strings are immutable, so no script can tell.
    static TOKENS: Vec<Rc<str>> = registry::all_permissions()
        .iter()
        .map(|p| Rc::from(p.token()))
        .collect();
}

/// Instrumentation + host behaviour for one document.
pub struct BrowserHooks<'a> {
    policy: &'a DocumentPolicy,
    /// Recorded invocations (first occurrence per `(api, script)` pair —
    /// the paper counts first occurrences only).
    pub invocations: Vec<InvocationRecord>,
}

impl<'a> BrowserHooks<'a> {
    /// Hooks for a document with the given policy.
    pub fn new(policy: &'a DocumentPolicy) -> BrowserHooks<'a> {
        BrowserHooks {
            policy,
            invocations: Vec::new(),
        }
    }

    fn record(&mut self, record: InvocationRecord) {
        // First occurrence per (api, resolved permissions, script): the
        // paper counts the first occurrence for each permission in each
        // frame, so `query({name:"camera"})` and `query({name:"mic"})`
        // are distinct, repeated identical calls are not.
        let duplicate = self.invocations.iter().any(|r| {
            r.api_path == record.api_path
                && r.script_url == record.script_url
                && r.permissions == record.permissions
        });
        if !duplicate {
            self.invocations.push(record);
        }
    }

    /// Whether the policy allows this document to use all of `permissions`
    /// (non-policy-controlled features are always "allowed" here; their
    /// extra rules live in the answer logic).
    fn policy_allows(&self, permissions: &[Permission]) -> bool {
        permissions.iter().all(|p| self.policy.allowed_to_use(*p))
    }
}

impl HostHooks for BrowserHooks<'_> {
    fn api_call(&mut self, call: ApiCall) -> Value {
        let spec = apis::api_by_path(&call.path);
        match spec {
            Some(spec) => {
                let (kind, permissions) = match spec.kind {
                    ApiKind::Invocation => (
                        InvocationKind::Invocation,
                        effective_permissions(&call, spec.permissions),
                    ),
                    ApiKind::StatusQuery => {
                        let queried = call
                            .name_argument()
                            .and_then(|name| apis::permission_from_query_name(&name));
                        (
                            InvocationKind::StatusQuery,
                            queried.into_iter().collect::<Vec<_>>(),
                        )
                    }
                    ApiKind::General => {
                        // `allowsFeature("camera")` checks one permission;
                        // `allowedFeatures()` retrieves the whole list.
                        let queried = call.args.first().and_then(|v| match v {
                            Value::Str(s) => Permission::from_token(s),
                            _ => None,
                        });
                        (InvocationKind::General, queried.into_iter().collect())
                    }
                };
                let policy_blocked =
                    kind == InvocationKind::Invocation && !self.policy_allows(&permissions);
                self.record(InvocationRecord {
                    api_path: call.path.clone(),
                    kind,
                    permissions: permissions.clone(),
                    script_url: call.source.url.clone(),
                    constructed: call.constructed,
                    via_feature_policy_api: apis::is_feature_policy_api(&call.path),
                    policy_blocked,
                });
                self.answer(&call, kind, &permissions, policy_blocked)
            }
            // Not a permission-related API (console.log, fetch, …).
            None => jsland::host::default_return(&call.path, &call.args),
        }
    }
}

impl BrowserHooks<'_> {
    fn answer(
        &self,
        call: &ApiCall,
        kind: InvocationKind,
        permissions: &[Permission],
        policy_blocked: bool,
    ) -> Value {
        match (kind, call.path.as_str()) {
            (InvocationKind::StatusQuery, _) => {
                // navigator.permissions.query: state reflects policy.
                // Features policy does not control are always allowed.
                let state = match permissions.first() {
                    Some(p) if !self.policy.allowed_to_use(*p) => "denied",
                    _ => "prompt",
                };
                Value::promise(Value::object(vec![("state", Value::Str(state.into()))]))
            }
            (
                InvocationKind::General,
                "document.featurePolicy.allowedFeatures"
                | "document.featurePolicy.features"
                | "document.permissionsPolicy.allowedFeatures"
                | "document.permissionsPolicy.features",
            ) => TOKENS.with(|tokens| {
                Value::string_array(
                    self.policy
                        .allowed_features()
                        .into_iter()
                        .map(|p| Rc::clone(&tokens[p as usize])),
                )
            }),
            (
                InvocationKind::General,
                "document.featurePolicy.allowsFeature" | "document.permissionsPolicy.allowsFeature",
            ) => Value::Bool(
                permissions
                    .first()
                    .map(|p| self.policy.allowed_to_use(*p))
                    .unwrap_or(false),
            ),
            (InvocationKind::Invocation, _) if policy_blocked => {
                // Chromium rejects with a policy error; model as a promise
                // of undefined so `.then` chains still parse but see no
                // stream object.
                Value::promise(Value::Undefined)
            }
            _ => jsland::host::default_return(&call.path, &call.args),
        }
    }
}

/// Narrows an API's permission set by its arguments:
/// `getUserMedia({video: true})` exercises only the camera,
/// `{audio: true}` only the microphone, both (or unrecognized constraint
/// shapes) exercise both — matching Chromium's per-kind gating.
fn effective_permissions(call: &ApiCall, declared: &[Permission]) -> Vec<Permission> {
    if call.path == "navigator.mediaDevices.getUserMedia" {
        if let Some(Value::Object(constraints)) = call.args.first() {
            let constraints = constraints.borrow();
            let wants = |key: &str| constraints.get(key).map(Value::truthy).unwrap_or(false);
            let video = wants("video");
            let audio = wants("audio");
            if video || audio {
                let mut perms = Vec::new();
                if video {
                    perms.push(Permission::Camera);
                }
                if audio {
                    perms.push(Permission::Microphone);
                }
                return perms;
            }
        }
    }
    declared.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jsland::{ScriptEngine, ScriptSource};
    use policy::header::parse_permissions_policy;
    use policy::PolicyEngine;
    use weburl::Url;

    fn doc(header: Option<&str>) -> DocumentPolicy {
        let engine = PolicyEngine::default();
        let declared = header
            .map(|h| parse_permissions_policy(h).unwrap())
            .unwrap_or_default();
        engine.document_for_top_level(
            Url::parse("https://example.org/").unwrap().origin(),
            declared,
        )
    }

    #[test]
    fn records_first_occurrence_only() {
        let policy = doc(None);
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "navigator.getBattery(); navigator.getBattery(); navigator.getBattery();",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert_eq!(hooks.invocations.len(), 1);
        assert_eq!(hooks.invocations[0].permissions, vec![Permission::Battery]);
    }

    #[test]
    fn same_api_from_different_scripts_counts_twice() {
        let policy = doc(None);
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "navigator.getBattery();",
                ScriptSource::external("https://tracker.example/a.js"),
                &mut hooks,
            )
            .unwrap();
        engine
            .run(
                "navigator.getBattery();",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert_eq!(hooks.invocations.len(), 2);
    }

    #[test]
    fn query_state_reflects_policy() {
        let policy = doc(Some("camera=()"));
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "navigator.permissions.query({name: 'camera'}).then(function (st) {\
                    if (st.state === 'denied') { navigator.getBattery(); }\
                 });",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        // Camera denied by header → the conditional battery call ran.
        assert!(hooks
            .invocations
            .iter()
            .any(|r| r.api_path == "navigator.getBattery"));
        let query = &hooks.invocations[0];
        assert_eq!(query.kind, InvocationKind::StatusQuery);
        assert_eq!(query.permissions, vec![Permission::Camera]);
    }

    #[test]
    fn allowed_features_reflect_policy() {
        let policy = doc(Some("camera=(), microphone=()"));
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "var feats = document.featurePolicy.allowedFeatures();\
                 if (feats.includes('camera')) { navigator.getBattery(); }\
                 if (feats.includes('fullscreen')) { navigator.share({}); }",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        let paths: Vec<_> = hooks
            .invocations
            .iter()
            .map(|r| r.api_path.as_str())
            .collect();
        assert!(!paths.contains(&"navigator.getBattery"));
        assert!(paths.contains(&"navigator.share"));
        assert!(hooks.invocations[0].via_feature_policy_api);
    }

    #[test]
    fn blocked_invocations_are_flagged() {
        let policy = doc(Some("camera=()"));
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "navigator.mediaDevices.getUserMedia({video: true});",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert!(hooks.invocations[0].policy_blocked);
    }

    #[test]
    fn general_api_with_specific_feature_resolves_permission() {
        let policy = doc(None);
        let mut hooks = BrowserHooks::new(&policy);
        let mut engine = ScriptEngine::default();
        engine
            .run(
                "document.featurePolicy.allowsFeature('geolocation');",
                ScriptSource::inline(),
                &mut hooks,
            )
            .unwrap();
        assert_eq!(hooks.invocations[0].kind, InvocationKind::General);
        assert_eq!(
            hooks.invocations[0].permissions,
            vec![Permission::Geolocation]
        );
    }
}
