//! Host API binding layer.
//!
//! The interpreter resolves global identifiers like `navigator` and
//! `document` to [`crate::Value::Host`] values carrying a dotted path;
//! member access extends the path; *calling* a host value dispatches an
//! [`ApiCall`] to the embedder's [`HostHooks`]. That hook point is the
//! moral equivalent of the paper's Figure 1 instrumentation: the embedder
//! sees every call with its arguments and the source attribution
//! (stack trace) before supplying the return value.

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// Where a script came from — the stack-trace origin used for first- vs
/// third-party attribution (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ScriptSource {
    /// URL of an external script; `None` for inline and handler code (the
    /// paper classifies calls with no script URL in the trace as
    /// first-party).
    pub url: Option<String>,
}

impl ScriptSource {
    /// An inline script (no URL — attributed to the document itself).
    pub fn inline() -> ScriptSource {
        ScriptSource { url: None }
    }

    /// An external script loaded from `url`.
    pub fn external(url: impl Into<String>) -> ScriptSource {
        ScriptSource {
            url: Some(url.into()),
        }
    }
}

/// One observed host API invocation.
#[derive(Debug, Clone)]
pub struct ApiCall {
    /// Canonical dotted path, e.g. `navigator.permissions.query`.
    pub path: String,
    /// Evaluated arguments.
    pub args: Vec<Value>,
    /// `true` when invoked via `new`.
    pub constructed: bool,
    /// The script whose code made the call.
    pub source: ScriptSource,
}

impl ApiCall {
    /// Extracts the `name` field when the first argument is an object
    /// (`navigator.permissions.query({name: "camera"})`).
    pub fn name_argument(&self) -> Option<String> {
        match self.args.first()? {
            Value::Object(map) => match map.borrow().get("name") {
                Some(Value::Str(s)) => Some(s.to_string()),
                _ => None,
            },
            Value::Str(s) => Some(s.to_string()),
            _ => None,
        }
    }
}

/// Embedder-supplied instrumentation: receives every host API call and
/// produces its return value.
pub trait HostHooks {
    /// Handles one API call.
    fn api_call(&mut self, call: ApiCall) -> Value;
}

/// Global names that resolve to host objects.
pub fn is_host_root(name: &str) -> bool {
    matches!(
        name,
        "navigator"
            | "document"
            | "window"
            | "screen"
            | "console"
            | "location"
            | "localStorage"
            | "Notification"
            | "PaymentRequest"
            | "Accelerometer"
            | "Gyroscope"
            | "Magnetometer"
            | "AmbientLightSensor"
            | "PressureObserver"
            | "IdleDetector"
            | "TCPSocket"
            | "UDPSocket"
            | "OTPCredential"
            | "IdentityCredential"
            | "element"
            | "video"
            | "button"
            | "attributionReporting"
            | "pushManager"
            | "setTimeout"
            | "setInterval"
            | "fetch"
            | "XMLHttpRequest"
    )
}

/// Normalizes a host path: `window.` prefixes are dropped so that
/// `window.navigator.getBattery` and `navigator.getBattery` record as the
/// same API (matching how the paper's instrumentation hooks the single
/// underlying function).
pub fn normalize_path(path: &str) -> String {
    let mut p = path;
    while let Some(rest) = p.strip_prefix("window.") {
        p = rest;
    }
    p.to_string()
}

/// Produces a plausible default return value for a host call, so scripts
/// that chain on results keep running. Embedders with richer state (the
/// `browser` crate) override specific paths and fall back to this.
pub fn default_return(path: &str, _args: &[Value]) -> Value {
    match path {
        // Permission status query: resolves to a status object.
        "navigator.permissions.query" => {
            Value::promise(Value::object(vec![("state", Value::Str("prompt".into()))]))
        }
        // Media capture: resolves to a stream-ish object.
        "navigator.mediaDevices.getUserMedia" | "navigator.mediaDevices.getDisplayMedia" => {
            Value::promise(Value::object(vec![("active", Value::Bool(true))]))
        }
        "navigator.mediaDevices.enumerateDevices" => Value::promise(Value::Array(
            std::rc::Rc::new(std::cell::RefCell::new(vec![])),
        )),
        "navigator.getBattery" => Value::promise(Value::object(vec![
            ("level", Value::Num(0.47)),
            ("charging", Value::Bool(true)),
        ])),
        "document.featurePolicy.allowedFeatures"
        | "document.permissionsPolicy.allowedFeatures"
        | "document.featurePolicy.features"
        | "document.permissionsPolicy.features" => Value::string_array(Vec::<String>::new()),
        "document.featurePolicy.allowsFeature" | "document.permissionsPolicy.allowsFeature" => {
            Value::Bool(true)
        }
        "document.requestStorageAccess" | "document.requestStorageAccessFor" => {
            Value::promise(Value::Undefined)
        }
        "document.hasStorageAccess" => Value::promise(Value::Bool(false)),
        "document.browsingTopics" => Value::promise(Value::Array(std::rc::Rc::new(
            std::cell::RefCell::new(vec![]),
        ))),
        "Notification.requestPermission" => Value::promise(Value::Str("default".into())),
        "navigator.geolocation.getCurrentPosition" | "navigator.geolocation.watchPosition" => {
            Value::Undefined
        }
        "navigator.clipboard.readText" => Value::promise(Value::Str("".into())),
        "navigator.clipboard.writeText" | "navigator.clipboard.write" => {
            Value::promise(Value::Undefined)
        }
        "navigator.share" => Value::promise(Value::Undefined),
        "navigator.canShare" => Value::Bool(true),
        "navigator.getGamepads" => Value::Array(std::rc::Rc::new(std::cell::RefCell::new(vec![]))),
        "navigator.requestMIDIAccess"
        | "navigator.requestMediaKeySystemAccess"
        | "navigator.usb.requestDevice"
        | "navigator.usb.getDevices"
        | "navigator.serial.requestPort"
        | "navigator.hid.requestDevice"
        | "navigator.bluetooth.requestDevice"
        | "navigator.wakeLock.request"
        | "navigator.keyboard.lock"
        | "navigator.keyboard.getLayoutMap"
        | "navigator.credentials.get"
        | "navigator.credentials.create"
        | "navigator.xr.requestSession"
        | "navigator.runAdAuction"
        | "navigator.joinAdInterestGroup"
        | "document.interestCohort"
        | "queryLocalFonts"
        | "getScreenDetails" => Value::promise(Value::object(vec![])),
        _ => Value::Undefined,
    }
}

/// A [`HostHooks`] implementation that records every call and answers
/// with [`default_return`] — used by tests and the static/dynamic
/// validation experiments.
#[derive(Default)]
pub struct RecordingHooks {
    /// All calls, in execution order.
    pub calls: Vec<ApiCall>,
}

impl HostHooks for RecordingHooks {
    fn api_call(&mut self, call: ApiCall) -> Value {
        let value = default_return(&call.path, &call.args);
        self.calls.push(call);
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_strips_window_prefix() {
        assert_eq!(
            normalize_path("window.navigator.getBattery"),
            "navigator.getBattery"
        );
        assert_eq!(normalize_path("window.window.navigator.x"), "navigator.x");
        assert_eq!(normalize_path("navigator.share"), "navigator.share");
    }

    #[test]
    fn name_argument_extraction() {
        let call = ApiCall {
            path: "navigator.permissions.query".to_string(),
            args: vec![Value::object(vec![("name", Value::Str("camera".into()))])],
            constructed: false,
            source: ScriptSource::inline(),
        };
        assert_eq!(call.name_argument().as_deref(), Some("camera"));
    }

    #[test]
    fn query_returns_status_promise() {
        let v = default_return("navigator.permissions.query", &[]);
        match v {
            Value::Promise(inner) => {
                assert_eq!(
                    inner.get_property("state").unwrap().to_display_string(),
                    "prompt"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
