//! The §5.2 LiveChat case study: a widely-deployed customer-support
//! widget, always embedded with the same powerful-permission template,
//! never using any of it — and what a supply-chain compromise of the
//! widget would get.
//!
//! ```sh
//! cargo run --release --example livechat_case_study
//! ```

use permissions_odyssey::prelude::*;
use policy::parse_allow_attribute as parse_allow;

fn main() {
    let population = WebPopulation::new(PopulationConfig {
        seed: 7,
        size: 12_000,
    });
    let dataset = Crawler::new(CrawlConfig::default()).crawl(&population);

    // Find every site embedding the LiveChat widget.
    let mut embedding = 0u64;
    let mut with_delegation = 0u64;
    let mut example_allow: Option<String> = None;
    let mut any_usage = false;
    let mut hijackable: Vec<Permission> = Vec::new();

    for record in dataset.successes() {
        let Some(visit) = &record.visit else { continue };
        for frame in visit.embedded_frames() {
            if frame.site.as_deref() != Some("livechatinc.com") {
                continue;
            }
            embedding += 1;
            let allow = frame.iframe_attrs.as_ref().and_then(|a| a.allow.clone());
            if let Some(allow_value) = &allow {
                if parse_allow(allow_value).delegates_anything() {
                    with_delegation += 1;
                    example_allow.get_or_insert_with(|| allow_value.clone());
                }
            }
            any_usage |= frame
                .invocations
                .iter()
                .any(|inv| !inv.permissions.is_empty());
            // What the frame is *allowed* to do is what an attacker
            // controlling the widget origin inherits.
            if hijackable.is_empty() {
                hijackable = frame
                    .allowed_features
                    .iter()
                    .filter(|p| p.info().powerful)
                    .collect();
            }
        }
    }

    println!("== LiveChat case study (§5.2) ==");
    println!("sites embedding the widget:        {embedding}");
    println!(
        "  …with permission delegation:     {with_delegation} ({:.2}% — paper: 99.70%)",
        with_delegation as f64 / embedding.max(1) as f64 * 100.0
    );
    println!(
        "observed permission usage by the widget: {}",
        if any_usage {
            "YES (unexpected!)"
        } else {
            "none (matches the paper)"
        }
    );
    if let Some(allow) = example_allow {
        println!("\ndeployed template:\n  allow=\"{allow}\"");
    }
    println!(
        "\npowerful permissions a compromised widget could exercise on every embedding site:\n  {}",
        hijackable
            .iter()
            .map(|p| p.token())
            .collect::<Vec<_>>()
            .join(", ")
    );

    // Cross-check with the §5 analysis.
    let over = analysis::overpermission::unused_delegations(&dataset);
    if let Some(row) = over.rows.get("livechatinc.com") {
        println!(
            "\n§5 analysis: potentially unused = {:?} on {} websites",
            row.unused.iter().map(|p| p.token()).collect::<Vec<_>>(),
            row.affected_websites
        );
    }
    println!(
        "\nrecommendation (§5.3): delegate only what the installed plugins use, never with\n\
         wildcards — a `*` directive keeps delegating even after a redirect to another origin."
    );
}
