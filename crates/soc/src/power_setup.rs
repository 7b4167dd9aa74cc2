//! Component inventory for the power model.
//!
//! Mirrors the area breakdown of `pels-power::area` so leakage and
//! clock-tree energy are charged consistently with Figure 6b's block
//! sizes.

use pels_core::PelsConfig;
use pels_power::area::{PELS_GLOBAL_KGE, PELS_LINK_KGE, PELS_SCM_LINE_KGE};
use pels_power::{Calibration, PowerModel};
use std::sync::Mutex;

/// Logic areas (kGE) of the SoC components, matching the Figure 6b
/// inventory: processing domain 45, peripherals 115 total, interconnect
/// 55, SoC control 18.
pub fn component_areas(pels: PelsConfig) -> Vec<(String, f64)> {
    let mut areas: Vec<(String, f64)> = vec![
        ("ibex".into(), 45.0),
        ("gpio".into(), 10.0),
        ("timer".into(), 8.0),
        ("spi".into(), 35.0),
        ("adc".into(), 15.0),
        ("uart".into(), 12.0),
        ("wdt".into(), 5.0),
        ("i2c".into(), 12.0),
        ("periph_misc".into(), 18.0),
        ("fabric".into(), 55.0),
        ("soc_ctrl".into(), 18.0),
        // The SRAM macro's leakage is special-cased by name in the model;
        // its access energy is charged per access, not per kGE.
        ("sram".into(), 0.0),
        ("pels".into(), PELS_GLOBAL_KGE),
    ];
    for i in 0..pels.links {
        areas.push((
            format!("pels.link{i}"),
            PELS_LINK_KGE + pels.scm_lines as f64 * PELS_SCM_LINE_KGE,
        ));
    }
    areas
}

/// The calibrated power model for a SoC with the given PELS
/// configuration. It depends on the link count and SCM lines alone:
/// each pair of them is built once per process and copied after.
pub fn power_model_for(pels: PelsConfig) -> PowerModel {
    static BUILT: Mutex<Vec<((usize, usize), PowerModel)>> = Mutex::new(Vec::new());
    let key = (pels.links, pels.scm_lines);
    let mut built = BUILT
        .lock()
        .expect("no thread panics while holding the model memo");
    if let Some((_, model)) = built.iter().find(|(k, _)| *k == key) {
        return model.clone();
    }
    let mut model = PowerModel::new(Calibration::tsmc65());
    for (name, kge) in component_areas(pels) {
        model.add_component(name, kge);
    }
    built.push((key, model.clone()));
    model
}

#[cfg(test)]
mod tests {
    use super::*;
    use pels_power::area::pels_area_kge;

    #[test]
    fn inventory_matches_figure_6b_totals() {
        let cfg = PelsConfig {
            links: 4,
            scm_lines: 6,
            ..PelsConfig::default()
        };
        let areas = component_areas(cfg);
        let logic: f64 = areas.iter().map(|(_, a)| a).sum();
        // 45 + 115 + 55 + 18 = 233 logic kGE plus the PELS instance.
        let expected = 233.0 + pels_area_kge(4, 6);
        assert!((logic - expected).abs() < 1e-9, "{logic} vs {expected}");
    }

    #[test]
    fn peripheral_block_sums_to_115() {
        let areas = component_areas(PelsConfig::default());
        let periph: f64 = areas
            .iter()
            .filter(|(n, _)| {
                ["gpio", "timer", "spi", "adc", "uart", "wdt", "i2c", "periph_misc"]
                    .contains(&n.as_str())
            })
            .map(|(_, a)| a)
            .sum();
        assert!((periph - 115.0).abs() < 1e-9);
    }

    #[test]
    fn model_builds_for_all_link_counts() {
        for links in 1..=8 {
            let cfg = PelsConfig {
                links,
                ..PelsConfig::default()
            };
            let m = power_model_for(cfg);
            let _ = m.calibration();
        }
    }
}
