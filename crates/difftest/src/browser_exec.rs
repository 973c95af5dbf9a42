//! Browser-mediated differential execution.
//!
//! The lockstep executor in [`crate::scenario`] drives the policy engine
//! directly; this module goes the long way round: it renders each
//! scenario to actual HTML + simulated HTTP responses, loads the page
//! through `browser::Browser` over `netsim::SimNetwork`, and checks the
//! per-frame `allowed_features` the crawler would record against the
//! oracle. That exercises the HTML scanner, header plumbing, redirect
//! handling and frame bookkeeping on top of the engine itself.
//!
//! Browser mode narrows scenarios slightly ([`normalize`]): srcdoc and
//! `data:` documents become childless (nesting would need HTML escaping
//! inside attribute values, which the tokenizer's entity handling makes
//! non-roundtrippable), and `allow` values containing `"` are dropped.

use std::collections::BTreeMap;

use browser::{Browser, BrowserConfig, FrameRecord, PageVisit};
use netsim::{ContentProvider, ProviderResult, Response, SimClock, SimNetwork, SiteBehavior};
use weburl::{Origin, Url};

use crate::oracle::process::{self, OracleDoc, OracleFraming, OracleLocalPolicy};
use crate::oracle::semantics;
use crate::scenario::{FrameKind, FrameSpec, Scenario, ORIGINS};
use policy::engine::LocalSchemeBehavior;
use registry::Permission;

/// A disagreement between a browser-loaded frame and the oracle.
#[derive(Debug, Clone)]
pub struct BrowserDivergence {
    /// Path of the document in the frame tree.
    pub doc_path: String,
    /// What disagreed.
    pub detail: String,
}

impl std::fmt::Display for BrowserDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc {}: {}", self.doc_path, self.detail)
    }
}

/// Restricts a scenario to the shapes browser-mediated execution can
/// faithfully round-trip (see module docs).
pub fn normalize(scenario: &Scenario) -> Scenario {
    fn fix_frame(frame: &FrameSpec) -> FrameSpec {
        let mut frame = frame.clone();
        if frame.allow.as_deref().is_some_and(|a| a.contains('"')) {
            frame.allow = None;
        }
        match &mut frame.kind {
            FrameKind::Srcdoc { children } | FrameKind::DataUrl { children } => children.clear(),
            FrameKind::Network { children, .. } => {
                *children = children.iter().map(fix_frame).collect();
            }
            FrameKind::AboutBlank => {}
        }
        frame
    }
    let mut scenario = scenario.clone();
    scenario.frames = scenario.frames.iter().map(fix_frame).collect();
    scenario
}

/// A static provider: exact-URL table plus optional redirects.
pub(crate) struct TableProvider {
    entries: BTreeMap<String, ProviderResult>,
}

impl ContentProvider for TableProvider {
    fn resolve(&self, url: &Url) -> ProviderResult {
        self.entries
            .get(&url.to_string())
            .cloned()
            .unwrap_or(ProviderResult::DnsFailure)
    }
}

struct PageBuilder {
    entries: BTreeMap<String, ProviderResult>,
    next_path: usize,
}

impl PageBuilder {
    fn url_on(&mut self, origin_idx: usize) -> Url {
        let path = self.next_path;
        self.next_path += 1;
        Url::parse(&format!("{}f{path}", ORIGINS[origin_idx])).expect("generated url parses")
    }

    fn content(response: Response) -> ProviderResult {
        ProviderResult::Content {
            response,
            behavior: SiteBehavior::default(),
        }
    }

    /// Renders a document's frames to HTML, registering child responses.
    fn render_frames(&mut self, frames: &[FrameSpec]) -> String {
        let mut html = String::from("<html><body>");
        for frame in frames {
            let mut attrs = String::new();
            if let Some(allow) = &frame.allow {
                attrs.push_str(&format!(" allow=\"{allow}\""));
            }
            if let Some(sandbox) = frame.sandbox.attribute() {
                attrs.push_str(&format!(" sandbox=\"{sandbox}\""));
            }
            match &frame.kind {
                FrameKind::AboutBlank => {
                    html.push_str(&format!("<iframe src=\"about:blank\"{attrs}></iframe>"));
                }
                FrameKind::DataUrl { .. } => {
                    html.push_str(&format!(
                        "<iframe src=\"data:text/html,hi\"{attrs}></iframe>"
                    ));
                }
                FrameKind::Srcdoc { .. } => {
                    html.push_str(&format!("<iframe srcdoc=\"hi\"{attrs}></iframe>"));
                }
                FrameKind::Network {
                    src_idx,
                    final_idx,
                    pp,
                    fp,
                    children,
                } => {
                    let body = self.render_frames(children);
                    let final_url = self.url_on(*final_idx);
                    let mut response = Response::html(final_url.clone(), body);
                    if let Some(pp) = pp {
                        response = response.with_header("Permissions-Policy", pp.clone());
                    }
                    if let Some(fp) = fp {
                        response = response.with_header("Feature-Policy", fp.clone());
                    }
                    let src_url = if src_idx == final_idx {
                        final_url.clone()
                    } else {
                        let src_url = self.url_on(*src_idx);
                        self.entries.insert(
                            src_url.to_string(),
                            ProviderResult::Redirect(final_url.clone()),
                        );
                        src_url
                    };
                    self.entries
                        .insert(final_url.to_string(), Self::content(response));
                    html.push_str(&format!("<iframe src=\"{src_url}\"{attrs}></iframe>"));
                }
            }
        }
        html.push_str("</body></html>");
        html
    }
}

/// The oracle's mirror of one loaded document.
struct OracleFrame {
    doc: OracleDoc,
    /// The *document* origin. Distinct from `doc.origin` (the policy's
    /// `'self'` reference): under `InheritParent` a local document keeps
    /// its parent's policy — including the parent origin as `'self'` —
    /// while the document itself still lives at e.g. an opaque origin.
    doc_origin: Origin,
    children: Vec<OracleFrame>,
}

fn oracle_frame(parent: &OracleDoc, frame: &FrameSpec, local: OracleLocalPolicy) -> OracleFrame {
    let allow = frame.allow.as_deref().map(semantics::allow_attribute);
    let (_, same_origin) = frame.sandbox.flags();
    let (origin, src_origin, declared, is_local, children) = match &frame.kind {
        FrameKind::Srcdoc { children } => {
            let origin = if same_origin {
                parent.origin.clone()
            } else {
                Origin::opaque()
            };
            (
                origin.clone(),
                Some(origin),
                Default::default(),
                true,
                children.as_slice(),
            )
        }
        FrameKind::AboutBlank => {
            let origin = parent.origin.clone();
            (
                origin.clone(),
                Some(origin),
                Default::default(),
                true,
                [].as_slice(),
            )
        }
        FrameKind::DataUrl { children } => {
            let origin = Origin::opaque();
            (
                origin.clone(),
                Some(origin),
                Default::default(),
                true,
                children.as_slice(),
            )
        }
        FrameKind::Network {
            src_idx,
            final_idx,
            pp,
            fp,
            children,
        } => {
            let src_origin = Url::parse(ORIGINS[*src_idx]).unwrap().origin();
            let origin = if same_origin {
                Url::parse(ORIGINS[*final_idx]).unwrap().origin()
            } else {
                Origin::opaque()
            };
            (
                origin,
                Some(src_origin),
                semantics::effective_declared(pp.as_deref(), fp.as_deref()),
                false,
                children.as_slice(),
            )
        }
    };
    let doc = process::framed_document(
        parent,
        &OracleFraming {
            allow: allow.as_ref(),
            src_origin,
        },
        origin.clone(),
        declared,
        is_local,
        local,
    );
    let children = children
        .iter()
        .map(|c| oracle_frame(&doc, c, local))
        .collect();
    OracleFrame {
        doc,
        doc_origin: origin,
        children,
    }
}

fn compare_frame(
    records: &[FrameRecord],
    record: &FrameRecord,
    oracle: &OracleFrame,
    path: &str,
    out: &mut Vec<BrowserDivergence>,
) {
    let oracle_origin = oracle.doc_origin.to_string();
    if record.origin != oracle_origin {
        out.push(BrowserDivergence {
            doc_path: path.to_string(),
            detail: format!("origin: browser={} oracle={oracle_origin}", record.origin),
        });
    }
    // Compared as lists, so a repeated or misordered oracle answer still
    // diverges from the set's registry-order members.
    let browser_features: Vec<Permission> = record.allowed_features.iter().collect();
    let oracle_features = oracle.doc.allowed_features();
    if browser_features != oracle_features {
        out.push(BrowserDivergence {
            doc_path: path.to_string(),
            detail: format!(
                "allowed_features: browser={browser_features:?} oracle={oracle_features:?}"
            ),
        });
    }
    let children: Vec<&FrameRecord> = records
        .iter()
        .filter(|f| f.parent == Some(record.frame_id))
        .collect();
    if children.len() != oracle.children.len() {
        out.push(BrowserDivergence {
            doc_path: path.to_string(),
            detail: format!(
                "child count: browser={} oracle={}",
                children.len(),
                oracle.children.len()
            ),
        });
        return;
    }
    for (i, (child, oracle_child)) in children.iter().zip(&oracle.children).enumerate() {
        compare_frame(records, child, oracle_child, &format!("{path}/{i}"), out);
    }
}

/// Renders an already-normalized scenario to the top-level URL, the
/// exact-URL content provider serving it, and the browser config it
/// must load under. Deterministic per scenario — shared by the oracle
/// comparison below and the record/replay gate in [`crate::replay`],
/// which must rebuild the identical page twice.
pub(crate) fn scenario_page(scenario: &Scenario) -> (Url, TableProvider, BrowserConfig) {
    let mut builder = PageBuilder {
        entries: BTreeMap::new(),
        next_path: 0,
    };
    let top_url = builder.url_on(scenario.top_origin_idx);
    let body = builder.render_frames(&scenario.frames);
    let mut response = Response::html(top_url.clone(), body);
    if let Some(pp) = &scenario.pp {
        response = response.with_header("Permissions-Policy", pp.clone());
    }
    if let Some(fp) = &scenario.fp {
        response = response.with_header("Feature-Policy", fp.clone());
    }
    builder
        .entries
        .insert(top_url.to_string(), PageBuilder::content(response));
    let config = BrowserConfig {
        local_scheme_behavior: scenario.behavior,
        max_frames: 64,
        ..BrowserConfig::default()
    };
    let provider = TableProvider {
        entries: builder.entries,
    };
    (top_url, provider, config)
}

/// Renders, loads and checks one (normalized) scenario. Returns every
/// frame-level disagreement between the browser pipeline and the oracle.
pub fn browser_divergences(scenario: &Scenario) -> Vec<BrowserDivergence> {
    let scenario = normalize(scenario);
    let (top_url, provider, config) = scenario_page(&scenario);
    let mut browser = Browser::new(SimNetwork::new(provider), config);
    let mut clock = SimClock::new();
    let visit: PageVisit = match browser.visit(&top_url, &mut clock) {
        Ok(v) => v,
        Err(e) => {
            return vec![BrowserDivergence {
                doc_path: "top".to_string(),
                detail: format!("visit failed: {e:?}"),
            }]
        }
    };

    let local = match scenario.behavior {
        LocalSchemeBehavior::InheritParent => OracleLocalPolicy::InheritParent,
        LocalSchemeBehavior::FreshPolicy => OracleLocalPolicy::Fresh,
    };
    let top_doc = OracleDoc::top_level(
        top_url.origin(),
        semantics::effective_declared(scenario.pp.as_deref(), scenario.fp.as_deref()),
    );
    let oracle_top = OracleFrame {
        children: scenario
            .frames
            .iter()
            .map(|f| oracle_frame(&top_doc, f, local))
            .collect(),
        doc_origin: top_url.origin(),
        doc: top_doc,
    };

    let mut out = Vec::new();
    let Some(top_record) = visit.frames.iter().find(|f| f.parent.is_none()) else {
        return vec![BrowserDivergence {
            doc_path: "top".to_string(),
            detail: "no top-level frame record".to_string(),
        }];
    };
    compare_frame(&visit.frames, top_record, &oracle_top, "top", &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Sandbox;

    #[test]
    fn systematic_scenarios_agree_through_the_browser() {
        for index in (0..Scenario::systematic_count()).step_by(7) {
            let scenario = Scenario::generate(index, 0);
            let divergences = browser_divergences(&scenario);
            assert!(
                divergences.is_empty(),
                "scenario {index}:\n{}\n{}",
                crate::scenario::describe(&scenario),
                divergences
                    .iter()
                    .map(|d| d.to_string())
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
    }

    #[test]
    fn normalize_prunes_local_nesting() {
        let scenario = Scenario {
            index: 0,
            behavior: LocalSchemeBehavior::FreshPolicy,
            top_origin_idx: 0,
            pp: None,
            fp: None,
            frames: vec![FrameSpec {
                allow: Some("camera \"x\"".to_string()),
                sandbox: Sandbox::None,
                kind: FrameKind::Srcdoc {
                    children: vec![FrameSpec {
                        allow: None,
                        sandbox: Sandbox::None,
                        kind: FrameKind::AboutBlank,
                    }],
                },
            }],
        };
        let n = normalize(&scenario);
        assert!(n.frames[0].allow.is_none());
        match &n.frames[0].kind {
            FrameKind::Srcdoc { children } => assert!(children.is_empty()),
            _ => unreachable!(),
        }
    }
}
