//! FNV-1a digests of the library's outputs, and the committed goldens
//! they are checked against.

use std::path::PathBuf;

use serde::json::Value as Json;
use yoloc_cim::MvmStats;
use yoloc_core::compiler::ExecutionReport;
use yoloc_core::system::EnergyBreakdown;

/// Incremental 64-bit FNV-1a (the same function the plan cache keys
/// with), fed exact bit patterns so equal digests mean equal outputs.
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds floats in by bit pattern.
    pub fn f64s(&mut self, vs: &[f64]) -> &mut Self {
        for v in vs {
            self.u64(v.to_bits());
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one inference: its logits and every field of its
/// execution report (destructured, so a new report field fails to
/// compile here instead of silently escaping the check).
pub fn inference(logits: &[f32], report: &ExecutionReport) -> u64 {
    let mut h = Fnv::default();
    for v in logits {
        h.bytes(&v.to_bits().to_le_bytes());
    }
    let ExecutionReport {
        rom,
        sram,
        energy,
        latency_ns,
        per_op_latency_ns,
        intra_sample_latency_ns,
        buffer_traffic_bits,
        noc_traffic_bits,
        link_traffic_bits,
        dram_traffic_bits,
        peak_arena_bytes,
        naive_arena_bytes,
    } = report;
    for s in [rom, sram] {
        let MvmStats {
            analog_evaluations,
            adc_conversions,
            wl_pulses,
            energy_pj,
            latency_ns,
        } = s;
        h.u64(*analog_evaluations)
            .u64(*adc_conversions)
            .u64(*wl_pulses)
            .f64s(&[*energy_pj, *latency_ns]);
    }
    let EnergyBreakdown {
        cim_uj,
        peripheral_uj,
        buffer_uj,
        noc_uj,
        dram_uj,
        write_uj,
        stall_uj,
        link_uj,
    } = energy;
    h.f64s(&[
        *cim_uj,
        *peripheral_uj,
        *buffer_uj,
        *noc_uj,
        *dram_uj,
        *write_uj,
        *stall_uj,
        *link_uj,
        *latency_ns,
    ])
    .f64s(per_op_latency_ns)
    .f64s(intra_sample_latency_ns);
    for v in [
        buffer_traffic_bits,
        noc_traffic_bits,
        link_traffic_bits,
        dram_traffic_bits,
        peak_arena_bytes,
        naive_arena_bytes,
    ] {
        h.u64(*v);
    }
    h.finish()
}

/// Path of the committed golden digests for `seed`.
pub fn golden_path(seed: u64) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("golden/seed-{seed}.json"))
}

/// The committed golden digests of `workload` for `seed`, if a golden
/// file for that seed exists.
///
/// # Errors
///
/// A golden file that exists but cannot be read, parsed, or lacks the
/// workload is an error: the check must not silently pass.
pub fn golden(seed: u64, workload: &str) -> Result<Option<Vec<u64>>, String> {
    let path = golden_path(seed);
    if !path.exists() {
        return Ok(None);
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get(workload)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no digests for {workload}", path.display()))?
        .iter()
        .map(|v| {
            v.as_str()
                .and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("{}: bad digest {v:?}", path.display()))
        })
        .collect::<Result<Vec<_>, _>>()
        .map(Some)
}

/// Writes `digests` as `workload`'s entry of the golden file for `seed`,
/// keeping the other workloads' entries.
///
/// # Errors
///
/// Returns the I/O or parse error as text.
pub fn write_golden(seed: u64, workload: &str, digests: &[u64]) -> Result<PathBuf, String> {
    let path = golden_path(seed);
    let mut fields = match std::fs::read_to_string(&path) {
        Ok(text) => match Json::parse(&text)? {
            Json::Obj(fields) => fields,
            _ => return Err(format!("{}: not a JSON object", path.display())),
        },
        Err(_) => Vec::new(),
    };
    fields.retain(|(k, _)| k != workload);
    fields.push((
        workload.to_string(),
        Json::Arr(
            digests
                .iter()
                .map(|d| Json::str(format!("{d:016x}")))
                .collect(),
        ),
    ));
    fields.sort_by(|a, b| a.0.cmp(&b.0));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, Json::Obj(fields).render()).map_err(|e| e.to_string())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn inference_digest_sees_every_report_field() {
        let base = ExecutionReport::default();
        let d = inference(&[1.0, 2.0], &base);
        assert_eq!(d, inference(&[1.0, 2.0], &base.clone()));
        assert_ne!(d, inference(&[1.0, 2.5], &base));
        let mut r = base.clone();
        r.sram.wl_pulses += 1;
        assert_ne!(d, inference(&[1.0, 2.0], &r));
        let mut r = base.clone();
        r.energy.stall_uj = 1e-9;
        assert_ne!(d, inference(&[1.0, 2.0], &r));
        let mut r = base;
        r.per_op_latency_ns.push(0.0);
        assert_ne!(d, inference(&[1.0, 2.0], &r));
    }
}
