//! Gate-equivalent area model (Figure 6).
//!
//! Bottom-up inventory anchored to the paper's published synthesis points
//! (TSMC 65 nm, 250 MHz, TT, 25 °C):
//!
//! * PELS minimal configuration (1 link, 4 SCM lines) ≈ **7 kGE**;
//! * Ibex ≈ **27 kGE**, PicoRV32 ≈ **14.5 kGE** (both without their
//!   external SRAMs);
//! * a 4-link PELS ≈ **9.5 %** of PULPissimo's logic area and ≈ **1 %**
//!   including the 192 KiB SRAM.
//!
//! The structural form is `global + links × (link_logic + lines ×
//! line_cost)`: per-link cost covers the trigger unit (64-bit mask and
//! comparators, trigger FIFO), the execution-unit FSM + 32-bit datapath
//! and the bus master port; per-line cost covers 48 latch-based SCM bits
//! with their mux/decode.

/// Paper-reported Ibex area (kGE), no SRAM.
pub const IBEX_KGE: f64 = 27.0;

/// Paper-reported PicoRV32 area (kGE), no SRAM.
pub const PICORV32_KGE: f64 = 14.5;

/// Global PELS overhead: configuration registers, event broadcast and
/// action-line routing (kGE).
pub const PELS_GLOBAL_KGE: f64 = 2.0;

/// Per-link logic: trigger unit + execution unit + bus port (kGE).
pub const PELS_LINK_KGE: f64 = 3.8;

/// Per SCM line: 48 latch bits + read mux + write decode (kGE).
pub const PELS_SCM_LINE_KGE: f64 = 0.3;

/// Area of a PELS configuration in kGE.
///
/// ```
/// use pels_power::pels_area_kge;
/// // The paper's minimal configuration synthesizes to about 7 kGE.
/// assert!((pels_area_kge(1, 4) - 7.0).abs() < 0.1);
/// ```
///
/// # Panics
///
/// Panics if `links` or `scm_lines` is zero.
pub fn pels_area_kge(links: usize, scm_lines: usize) -> f64 {
    assert!(links >= 1, "at least one link");
    assert!(scm_lines >= 1, "at least one scm line");
    PELS_GLOBAL_KGE
        + links as f64 * (PELS_LINK_KGE + scm_lines as f64 * PELS_SCM_LINE_KGE)
}

/// One block of the PULPissimo area breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBlock {
    /// Block name.
    pub name: &'static str,
    /// Area in kGE (SRAM expressed in kGE-equivalents).
    pub kge: f64,
}

/// PULPissimo logic inventory (kGE), without PELS and without SRAM.
///
/// Block sizes follow the PULPissimo papers' proportions: the processing
/// domain (Ibex + debug + core-local logic), the µDMA + peripheral
/// subsystem, the TCDM/APB interconnect, and SoC control (FLL wrappers,
/// ROM, pad control).
pub fn pulpissimo_logic_blocks() -> Vec<AreaBlock> {
    vec![
        AreaBlock {
            name: "processing domain",
            kge: 45.0,
        },
        AreaBlock {
            name: "peripherals",
            kge: 115.0,
        },
        AreaBlock {
            name: "interconnect",
            kge: 55.0,
        },
        AreaBlock {
            name: "soc control",
            kge: 18.0,
        },
    ]
}

/// kGE-equivalent of the 192 KiB L2 SRAM (bit-cell area expressed in
/// gate equivalents; macros are denser than logic, ≈ 1.4 GE/bit
/// including periphery at this size).
pub fn sram_kge_equivalent(kib: f64) -> f64 {
    kib * 1024.0 * 8.0 * 1.4 / 1000.0
}

/// The full Figure 6b breakdown: PULPissimo blocks plus a PELS of the
/// given configuration, with and without SRAM.
///
/// Returns `(blocks including PELS, pels fraction of logic, pels fraction
/// including SRAM)`.
pub fn pulpissimo_breakdown(links: usize, scm_lines: usize) -> (Vec<AreaBlock>, f64, f64) {
    let mut blocks = pulpissimo_logic_blocks();
    let pels = pels_area_kge(links, scm_lines);
    blocks.push(AreaBlock {
        name: "pels",
        kge: pels,
    });
    let logic_total: f64 = blocks.iter().map(|b| b.kge).sum();
    let sram = sram_kge_equivalent(192.0);
    let frac_logic = pels / logic_total;
    let frac_with_sram = pels / (logic_total + sram);
    (blocks, frac_logic, frac_with_sram)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_config_matches_paper_anchor() {
        let a = pels_area_kge(1, 4);
        assert!((a - 7.0).abs() < 0.1, "paper: about 7 kGE, got {a}");
    }

    #[test]
    fn minimal_config_beats_cores_by_paper_factors() {
        let a = pels_area_kge(1, 4);
        assert!(
            IBEX_KGE / a > 3.5 && IBEX_KGE / a < 4.5,
            "about 4x smaller than Ibex"
        );
        assert!(
            PICORV32_KGE / a > 1.8 && PICORV32_KGE / a < 2.3,
            "about 2x smaller than PicoRV32"
        );
    }

    #[test]
    fn area_is_linear_in_links() {
        let step = pels_area_kge(2, 4) - pels_area_kge(1, 4);
        for l in 2..8 {
            let d = pels_area_kge(l + 1, 4) - pels_area_kge(l, 4);
            assert!((d - step).abs() < 1e-9);
        }
    }

    #[test]
    fn more_scm_lines_cost_area() {
        assert!(pels_area_kge(4, 8) > pels_area_kge(4, 6));
        assert!(pels_area_kge(4, 6) > pels_area_kge(4, 4));
    }

    #[test]
    fn figure_6b_fractions_match_paper() {
        let (blocks, frac_logic, frac_sram) = pulpissimo_breakdown(4, 6);
        assert_eq!(blocks.len(), 5);
        assert!(
            (frac_logic - 0.095).abs() < 0.01,
            "paper: about 9.5% of logic, got {:.3}",
            frac_logic
        );
        assert!(
            (frac_sram - 0.01).abs() < 0.005,
            "paper: about 1% including the 192 KiB SRAM, got {:.4}",
            frac_sram
        );
        // Over the whole Fig. 6a grid, the SRAM dilutes the PELS share.
        for links in 1..=8 {
            for lines in [4, 6, 8] {
                let (_, frac_logic, frac_sram) = pulpissimo_breakdown(links, lines);
                assert!(frac_logic > frac_sram, "links {links}, scm lines {lines}");
            }
        }
    }

    #[test]
    fn eight_link_sweep_is_monotone() {
        let mut last = 0.0;
        for links in 1..=8 {
            for lines in [4, 6, 8] {
                let a = pels_area_kge(links, lines);
                assert!(a > 0.0);
                if lines == 4 {
                    assert!(a > last);
                    last = a;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn zero_links_rejected() {
        let _ = pels_area_kge(0, 4);
    }
}
