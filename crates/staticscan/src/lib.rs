//! Static analyzer: permission functionality detection by string matching.
//!
//! The paper's static method (§3.1.1) string-matches permission-related
//! Web-API names in every script a site loads (external, inline and
//! dynamically created). It sees interaction-gated and dead code the
//! dynamic method misses, but is blind to aliasing and obfuscation
//! (`navigator["per"+"missions"]`), and cannot tell dead code from live
//! code — exactly the §4.1.3 trade-off.
//!
//! Two matcher implementations back the scan:
//!
//! * [`NaiveScanner`] — one `str::contains` pass per pattern,
//! * [`AcScanner`] — a from-scratch Aho-Corasick automaton matching all
//!   patterns in one pass (the default; the `ablation_static_matcher`
//!   bench compares the two).
//!
//! # Example
//!
//! ```
//! use registry::Permission;
//!
//! let findings = staticscan::scan_script(
//!     r#"btn.onclick = () => navigator.mediaDevices.getUserMedia({video: true});"#,
//! );
//! assert!(findings.permissions.contains(&Permission::Camera));
//! assert!(findings.permissions.contains(&Permission::Microphone));
//! // Obfuscated code produces no static findings:
//! let hidden = staticscan::scan_script(r#"navigator["getBat" + "tery"]();"#);
//! assert!(hidden.permissions.is_empty());
//! ```

mod ac;

pub use ac::AcAutomaton;

use std::collections::BTreeSet;
use std::sync::OnceLock;

use registry::{apis, Permission, PermissionSet};
use serde::{Deserialize, Serialize};

/// What the static scan found in one script.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticFindings {
    /// Permissions with API functionality present in the source.
    pub permissions: BTreeSet<Permission>,
    /// Whether any General Permission API surface is present
    /// (`permissions.query`, `featurePolicy`, `permissionsPolicy`).
    pub general_apis: bool,
    /// Whether specifically the deprecated Feature Policy API surface is
    /// present.
    pub feature_policy_api: bool,
}

impl StaticFindings {
    /// Whether anything permission-related was found.
    pub fn any(&self) -> bool {
        self.general_apis || !self.permissions.is_empty()
    }

    /// Merges findings from another script of the same context.
    pub fn merge(&mut self, other: &StaticFindings) {
        self.permissions.extend(other.permissions.iter().copied());
        self.general_apis |= other.general_apis;
        self.feature_policy_api |= other.feature_policy_api;
    }
}

/// The pattern table: `(pattern, permissions)` plus general-API patterns.
fn pattern_table() -> (Vec<(String, Vec<Permission>)>, Vec<String>) {
    let mut per_permission: Vec<(String, Vec<Permission>)> = Vec::new();
    for spec in apis::APIS {
        if spec.permissions.is_empty() {
            continue;
        }
        let pattern = apis::search_pattern(spec.path);
        match per_permission.iter_mut().find(|(p, _)| p == pattern) {
            Some((_, perms)) => {
                for p in spec.permissions {
                    if !perms.contains(p) {
                        perms.push(*p);
                    }
                }
            }
            None => per_permission.push((pattern.to_string(), spec.permissions.to_vec())),
        }
    }
    let general = apis::general_api_patterns()
        .into_iter()
        .map(str::to_string)
        .collect();
    (per_permission, general)
}

/// A scanner over the registry's pattern table.
pub trait Scanner {
    /// Scans one script source.
    fn scan(&self, source: &str) -> StaticFindings;
}

/// Baseline scanner: one substring search per pattern.
pub struct NaiveScanner {
    patterns: Vec<(String, Vec<Permission>)>,
    general: Vec<String>,
}

impl Default for NaiveScanner {
    fn default() -> Self {
        Self::new()
    }
}

impl NaiveScanner {
    /// Builds the scanner from the registry.
    pub fn new() -> NaiveScanner {
        let (patterns, general) = pattern_table();
        NaiveScanner { patterns, general }
    }
}

impl Scanner for NaiveScanner {
    fn scan(&self, source: &str) -> StaticFindings {
        let mut findings = StaticFindings::default();
        for (pattern, perms) in &self.patterns {
            if source.contains(pattern.as_str()) {
                findings.permissions.extend(perms.iter().copied());
            }
        }
        for pattern in &self.general {
            if source.contains(pattern.as_str()) {
                findings.general_apis = true;
            }
        }
        findings.feature_policy_api = source.contains("featurePolicy");
        findings
    }
}

/// Aho-Corasick scanner: all patterns in one pass.
pub struct AcScanner {
    automaton: AcAutomaton,
    /// Pattern id → permissions (empty slice = general API pattern).
    outputs: Vec<Vec<Permission>>,
    feature_policy_id: Option<usize>,
}

impl Default for AcScanner {
    fn default() -> Self {
        Self::new()
    }
}

impl AcScanner {
    /// Builds the scanner from the registry.
    pub fn new() -> AcScanner {
        let (patterns, general) = pattern_table();
        let mut all: Vec<String> = Vec::new();
        let mut outputs = Vec::new();
        for (pattern, perms) in patterns {
            all.push(pattern);
            outputs.push(perms);
        }
        let mut feature_policy_id = None;
        for pattern in general {
            if pattern == "featurePolicy" {
                feature_policy_id = Some(all.len());
            }
            all.push(pattern);
            outputs.push(vec![]);
        }
        AcScanner {
            automaton: AcAutomaton::new(&all),
            outputs,
            feature_policy_id,
        }
    }
}

impl Scanner for AcScanner {
    fn scan(&self, source: &str) -> StaticFindings {
        let mut findings = StaticFindings::default();
        for id in self.automaton.matched_patterns(source.as_bytes()) {
            let perms = &self.outputs[id];
            if perms.is_empty() {
                findings.general_apis = true;
                if Some(id) == self.feature_policy_id {
                    findings.feature_policy_api = true;
                }
            } else {
                findings.permissions.extend(perms.iter().copied());
            }
        }
        findings
    }
}

static DEFAULT_SCANNER: OnceLock<AcScanner> = OnceLock::new();

/// One memo entry: a script's findings with the permissions as a
/// [`PermissionSet`], so a hit copies a few words and allocates nothing.
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    permissions: PermissionSet,
    general_apis: bool,
    feature_policy_api: bool,
}

// Memo for `scan_script` and `scan_permissions`: crawls see the same
// shared tracker scripts on hundreds of thousands of sites. Keyed by a
// 64-bit hash of the source; bounded to keep memory flat on
// adversarially-unique corpora. Thread-local rather than process-wide:
// the analysis fold runs one worker per shard, and a shared
// `Mutex<HashMap>` here serialized those workers on every script — the
// lock's cache line ping-ponged hard enough to make four workers slower
// than one. Each worker paying one redundant scan per distinct script
// is far cheaper than a cross-core lock per call.
thread_local! {
    static SCAN_MEMO: std::cell::RefCell<std::collections::HashMap<u64, MemoEntry>> =
        std::cell::RefCell::new(std::collections::HashMap::new());
}

const SCAN_MEMO_CAP: usize = 65_536;

/// The memo key of a script source: eight bytes per multiply-rotate
/// round rather than one, since the analysis fold hashes every script it
/// reads; seeded with the length and finished with an avalanche so every
/// input bit reaches every key bit.
fn source_hash(bytes: &[u8]) -> u64 {
    const P1: u64 = 0x9e37_79b1_85eb_ca87;
    const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
    let round = |h: u64, word: u64| (h ^ word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1);
    let mut words = bytes.chunks_exact(8);
    let mut h = (bytes.len() as u64).wrapping_mul(P1);
    for word in &mut words {
        h = round(h, u64::from_le_bytes(word.try_into().expect("eight bytes")));
    }
    for &byte in words.remainder() {
        h = round(h, u64::from(byte));
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^ (h >> 29)
}

/// Scans one script with the default (Aho-Corasick) scanner, through
/// the memo.
fn memo_scan(source: &str) -> MemoEntry {
    let key = source_hash(source.as_bytes());
    SCAN_MEMO.with(|memo| {
        if let Some(entry) = memo.borrow().get(&key) {
            return *entry;
        }
        let findings = DEFAULT_SCANNER.get_or_init(AcScanner::new).scan(source);
        let entry = MemoEntry {
            permissions: findings.permissions.iter().collect(),
            general_apis: findings.general_apis,
            feature_policy_api: findings.feature_policy_api,
        };
        let mut memo = memo.borrow_mut();
        if memo.len() >= SCAN_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, entry);
        entry
    })
}

/// Scans one script with the default (Aho-Corasick) scanner, memoized by
/// content hash.
pub fn scan_script(source: &str) -> StaticFindings {
    let entry = memo_scan(source);
    StaticFindings {
        permissions: entry.permissions.iter().collect(),
        general_apis: entry.general_apis,
        feature_policy_api: entry.feature_policy_api,
    }
}

/// The permissions [`scan_script`] finds in `source`, from the same
/// memo, as a [`PermissionSet`]: a memo hit allocates nothing.
pub fn scan_permissions(source: &str) -> PermissionSet {
    memo_scan(source).permissions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_and_ac_agree() {
        let naive = NaiveScanner::new();
        let ac = AcScanner::new();
        let samples = [
            "navigator.mediaDevices.getUserMedia({video:true})",
            "document.featurePolicy.allowedFeatures()",
            "document.permissionsPolicy.allowsFeature('camera')",
            "navigator.permissions.query({name:'midi'})",
            "var x = 1; // nothing here",
            "getBattery(); requestMIDIAccess(); writeText('x');",
            "PaymentRequest && new PaymentRequest([], {});",
            "x.getUserMediagetDisplayMedia", // overlapping patterns
        ];
        for s in samples {
            assert_eq!(naive.scan(s), ac.scan(s), "{s}");
        }
    }

    #[test]
    fn detects_interaction_gated_code() {
        // Static analysis sees handler bodies even though dynamic execution
        // without interaction does not.
        let f = scan_script(
            "button.onclick = function () { navigator.geolocation.getCurrentPosition(cb); };",
        );
        assert!(f.permissions.contains(&Permission::Geolocation));
    }

    #[test]
    fn detects_dead_code() {
        let f = scan_script("if (false) { navigator.getBattery(); }");
        assert!(f.permissions.contains(&Permission::Battery));
    }

    #[test]
    fn misses_obfuscated_calls() {
        let f = scan_script("navigator['getBat' + 'tery']();");
        assert!(f.permissions.is_empty());
        assert!(!f.any());
    }

    #[test]
    fn general_api_detection() {
        let f = scan_script("navigator.permissions.query({name: 'camera'});");
        assert!(f.general_apis);
        assert!(!f.feature_policy_api);
        let f = scan_script("document.featurePolicy.allowedFeatures();");
        assert!(f.general_apis);
        assert!(f.feature_policy_api);
    }

    #[test]
    fn camera_and_microphone_come_together() {
        let f = scan_script("navigator.mediaDevices.getUserMedia({audio:true});");
        assert!(f.permissions.contains(&Permission::Camera));
        assert!(f.permissions.contains(&Permission::Microphone));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = scan_script("navigator.getBattery();");
        let b = scan_script("document.featurePolicy.allowedFeatures();");
        a.merge(&b);
        assert!(a.permissions.contains(&Permission::Battery));
        assert!(a.general_apis && a.feature_policy_api);
    }

    #[test]
    fn near_identical_sources_get_distinct_keys() {
        let sources = [
            "",
            "\0",
            "\0\0",
            "abcdefgh",
            "abcdefgi",
            "abcdefgh\0",
            "bbcdefgh",
            "abcdefghabcdefgh",
            "abcdefghabcdefgi",
        ];
        let keys: std::collections::HashSet<u64> =
            sources.iter().map(|s| source_hash(s.as_bytes())).collect();
        assert_eq!(keys.len(), sources.len());
    }

    #[test]
    fn permission_query_agrees_with_the_full_scan() {
        for source in [
            "navigator.mediaDevices.getUserMedia({audio:true});",
            "document.featurePolicy.allowedFeatures();",
            "getBattery(); requestMIDIAccess(); writeText('x');",
            "console.log('hello');",
        ] {
            // Both orders: either query may fill the memo first.
            let set = scan_permissions(source);
            let findings = scan_script(source);
            assert!(
                set.iter().eq(findings.permissions.iter().copied()),
                "{source}"
            );
            assert_eq!(scan_permissions(source), set);
            assert_eq!(AcScanner::new().scan(source), findings, "{source}");
        }
    }

    #[test]
    fn clean_script_finds_nothing() {
        let f = scan_script("console.log('hello'); var x = [1,2,3].map(y => y + 1);");
        assert!(!f.any());
    }
}
