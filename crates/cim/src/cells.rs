//! Bit-cell models for the CiM cell zoo of Fig. 4.
//!
//! The proposed 1T ROM cell (Fig. 4a) stores '1' by strapping the access
//! transistor's gate to the word line and '0' by grounding it; computation
//! is the AND of the word-line pulse and the stored bit, accumulated as
//! charge on the bit line. The SRAM-CiM cells (Fig. 4b–f) are the published
//! baselines the paper compares density against ("14.5-29.5x in our
//! samples").

use serde::{Deserialize, Serialize};

/// The kinds of CiM bit cells compared in Fig. 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellKind {
    /// Proposed 1T/cell ROM-CiM cell (Fig. 4a, this work).
    Rom1T,
    /// Compact-rule 6T SRAM (density reference, not compute-capable).
    Sram6TCompact,
    /// 6T SRAM-CiM of ISSCC'21 \[3\] (Fig. 4b).
    Sram6TCim,
    /// 8T SRAM-CiM (Fig. 4c).
    Sram8T,
    /// Twin-8T SRAM-CiM (Fig. 4d).
    SramTwin8T,
    /// 10T SRAM-CiM (Fig. 4e).
    Sram10T,
    /// Local-computing-cell 6T (Fig. 4f).
    SramLcc6T,
}

impl CellKind {
    /// All cells in the Fig. 4 comparison, ROM first.
    pub const ALL: &'static [CellKind] = &[
        CellKind::Rom1T,
        CellKind::Sram6TCompact,
        CellKind::Sram6TCim,
        CellKind::Sram8T,
        CellKind::SramTwin8T,
        CellKind::Sram10T,
        CellKind::SramLcc6T,
    ];

    /// Cell area in µm²/bit at 28 nm.
    ///
    /// The ROM cell is the paper's headline 0.014 µm²/bit (Table I). The 6T
    /// compact-rule cell is pinned at 16x that (paper §4.3.1) and the
    /// ISSCC'21 cell at 18.5x; the remaining CiM cells span the paper's
    /// quoted 14.5-29.5x sample range.
    pub fn area_um2(self) -> f64 {
        match self {
            CellKind::Rom1T => 0.014,
            CellKind::Sram6TCompact => 0.014 * 16.0, // 0.224
            CellKind::Sram6TCim => 0.014 * 18.5,     // 0.259
            CellKind::Sram8T => 0.014 * 21.5,        // 0.301
            CellKind::SramTwin8T => 0.014 * 25.0,    // 0.350
            CellKind::Sram10T => 0.014 * 29.5,       // 0.413
            CellKind::SramLcc6T => 0.014 * 14.5,     // 0.203
        }
    }

    /// Number of transistors in the cell.
    pub fn transistors(self) -> u32 {
        match self {
            CellKind::Rom1T => 1,
            CellKind::Sram6TCompact | CellKind::Sram6TCim | CellKind::SramLcc6T => 6,
            CellKind::Sram8T | CellKind::SramTwin8T => 8,
            CellKind::Sram10T => 10,
        }
    }

    /// Whether the stored value can be rewritten at run time.
    pub fn writable(self) -> bool {
        !matches!(self, CellKind::Rom1T)
    }

    /// Whether the cell retains data with power removed.
    pub fn non_volatile(self) -> bool {
        matches!(self, CellKind::Rom1T)
    }

    /// Density ratio of this cell relative to the ROM cell (>= 1.0 means
    /// the ROM cell is denser).
    pub fn rom_density_advantage(self) -> f64 {
        self.area_um2() / CellKind::Rom1T.area_um2()
    }

    /// Static leakage per cell in pW at nominal voltage; the ROM cell has
    /// no storage node to leak ("standby power 0" in Table I).
    pub fn standby_leakage_pw(self) -> f64 {
        match self {
            CellKind::Rom1T => 0.0,
            _ => 1.0 + 0.15 * (self.transistors() as f64 - 6.0).max(0.0),
        }
    }
}

/// A stored ROM bit: '1' cells are physically strapped to the word line,
/// '0' cells are grounded (Fig. 4a). The value is fixed at mask time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RomCell {
    strapped: bool,
}

impl RomCell {
    /// Fabricates a cell holding `bit`.
    pub fn new(bit: bool) -> Self {
        RomCell { strapped: bit }
    }

    /// The stored bit.
    pub fn bit(self) -> bool {
        self.strapped
    }

    /// Cell conduction for a word-line pulse count `pulses`: the cell pulls
    /// the bit line down once per pulse only if it is strapped
    /// ("Only when both the input is high and the weight is physically
    /// connected to WL, BL will be connected to ground").
    pub fn conduct(self, pulses: u8) -> u8 {
        if self.strapped {
            pulses
        } else {
            0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rom_cell_and_behaviour() {
        // Fig. 5 truth table: 1*1=1, 1*0=0, 0*0=0, 0*1=0.
        assert_eq!(RomCell::new(true).conduct(1), 1);
        assert_eq!(RomCell::new(false).conduct(1), 0);
        assert_eq!(RomCell::new(false).conduct(0), 0);
        assert_eq!(RomCell::new(true).conduct(0), 0);
        // Multi-pulse (2-bit activation digit).
        assert_eq!(RomCell::new(true).conduct(3), 3);
    }

    #[test]
    fn density_ratios_span_paper_range() {
        // Paper: "14.5-29.5x in our samples" over SRAM-CiM cells.
        for &cell in CellKind::ALL {
            if cell == CellKind::Rom1T {
                continue;
            }
            let r = cell.rom_density_advantage();
            assert!((14.0..=30.0).contains(&r), "{cell:?} ratio {r}");
        }
    }

    #[test]
    fn headline_numbers() {
        assert!((CellKind::Rom1T.area_um2() - 0.014).abs() < 1e-9);
        assert!((CellKind::Sram6TCompact.rom_density_advantage() - 16.0).abs() < 1e-9);
        assert!((CellKind::Sram6TCim.rom_density_advantage() - 18.5).abs() < 1e-9);
    }

    #[test]
    fn rom_properties() {
        assert!(CellKind::Rom1T.non_volatile());
        assert!(!CellKind::Rom1T.writable());
        assert_eq!(CellKind::Rom1T.standby_leakage_pw(), 0.0);
        assert!(CellKind::Sram6TCim.writable());
        assert!(CellKind::Sram6TCim.standby_leakage_pw() > 0.0);
    }
}
