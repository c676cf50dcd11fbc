//! Weight-to-subarray mapping (paper §4.3.2).
//!
//! Every CiM layer lowers to a `(outs, ins)` matrix occupying `ins` word
//! lines and `outs * weight_bits` bit lines, tiled over 128x256 subarrays.
//! A naive mapping gives every layer its own subarrays, wasting the
//! partial tiles of small layers; the paper's optimized scheme stores "the
//! weights of different layers to the same sub-array, so as to achieve
//! high ADC utilization and thus reduced latency". We implement both and
//! expose the utilization gain (an ablation the bench harness reports).

use serde::{Deserialize, Serialize};

use yoloc_cim::MacroParams;
use yoloc_models::{NetworkDesc, NetworkError, REBRANCH_CONVS};

/// Which subarray placement scheme a deployment is accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingStrategy {
    /// Exclusive per-layer tiling (every layer gets its own subarrays).
    Naive,
    /// The paper's cross-layer packing: partial tiles of different layers
    /// share subarrays for high ADC utilization. Functionally transparent
    /// (co-located layers occupy disjoint columns), so it changes the
    /// placement/area accounting, not the simulated datapath.
    Packed,
    /// Chiplet sharding: layers are spread across `chips` dies in
    /// execution order, balanced by subarray demand, each die packing its
    /// own layers ([`ShardPlan`]). Functionally transparent like packing,
    /// but the executors price activation traffic that crosses a die
    /// boundary through the chiplet link, so energy and latency reflect
    /// the shard topology.
    Sharded {
        /// Number of chiplets.
        chips: usize,
    },
}

/// Placement summary for one CiM layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlacement {
    /// Layer name.
    pub name: String,
    /// Dot-product depth (word lines needed).
    pub ins: usize,
    /// Output neurons.
    pub outs: usize,
    /// Matrix-vector products per inference.
    pub mvms: u64,
    /// Word-line tiles (`ceil(ins / rows)`).
    pub row_tiles: usize,
    /// Bit-line tiles (`ceil(outs * weight_bits / cols)`).
    pub col_tiles: usize,
    /// Weight bits stored.
    pub used_bits: u64,
    /// Physical subarray ids backing this placement, in row-major tile
    /// order (`rt * col_tiles + ct`), assigned by [`assign_subarrays`]
    /// when the deployment carries a [`FaultMap`]. `None` on mappings
    /// produced without fault awareness — and on every `yoloc-plan/1`
    /// plan read back from disk, which is why this is an `Option`.
    pub subarray_ids: Option<Vec<u64>>,
}

impl LayerPlacement {
    /// Subarrays consumed by a naive (exclusive) mapping.
    pub fn naive_subarrays(&self) -> usize {
        self.row_tiles * self.col_tiles
    }

    /// Whether this placement fits the subarray geometry of `params`:
    /// the tile grid covers the whole lowered matrix (`ins` word lines,
    /// `outs * weight_bits` bit lines) with no tile exceeding the
    /// `rows x cols` bounds, and no over-allocation (the grid is exactly
    /// the ceiling division).
    pub fn fits(&self, params: &MacroParams) -> bool {
        let bit_cols = self.outs * params.weight_bits as usize;
        self.row_tiles == self.ins.div_ceil(params.rows)
            && self.col_tiles == bit_cols.div_ceil(params.cols)
            && self.row_tiles * params.rows >= self.ins
            && self.col_tiles * params.cols >= bit_cols
    }
}

/// How a network's layers are spread across chiplets under
/// [`MappingStrategy::Sharded`]: a contiguous, subarray-balanced partition
/// of the placement list, each chip shelf-packing its own layers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlan {
    /// Chip index of each placement, aligned with
    /// `NetworkMapping::placements`.
    pub chip_of: Vec<usize>,
    /// Number of chiplets.
    pub chips: usize,
    /// Packed subarrays per chip.
    pub subarrays_per_chip: Vec<usize>,
    /// Total packed subarrays across all chips (>= the single-chip packed
    /// count: partial tiles cannot pack across dies).
    pub subarrays_total: usize,
    /// Layer boundaries whose activations cross a die (execution order).
    pub boundary_crossings: usize,
}

/// A whole network mapped onto CiM subarrays.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkMapping {
    /// Per-layer placements in execution order.
    pub placements: Vec<LayerPlacement>,
    /// Subarrays under the naive exclusive mapping.
    pub subarrays_naive: usize,
    /// Subarrays after cross-layer packing (the paper's optimization).
    pub subarrays_packed: usize,
    /// Cell utilization under the naive mapping, in (0, 1].
    pub utilization_naive: f64,
    /// Cell utilization after packing.
    pub utilization_packed: f64,
    /// Total weight bits stored.
    pub total_weight_bits: u64,
    /// Chiplet shard layout (populated when mapped with
    /// [`MappingStrategy::Sharded`]; see [`map_network_with`]).
    pub shard: Option<ShardPlan>,
}

impl NetworkMapping {
    /// Total matrix-vector products per inference.
    pub fn total_mvms(&self) -> u64 {
        self.placements.iter().map(|p| p.mvms).sum()
    }

    /// Subarrays consumed under `strategy`. For [`MappingStrategy::Sharded`]
    /// this is the per-die packed total when a shard plan exists, else the
    /// single-chip packed count.
    pub fn subarrays(&self, strategy: MappingStrategy) -> usize {
        match strategy {
            MappingStrategy::Naive => self.subarrays_naive,
            MappingStrategy::Packed => self.subarrays_packed,
            MappingStrategy::Sharded { .. } => self
                .shard
                .as_ref()
                .map_or(self.subarrays_packed, |s| s.subarrays_total),
        }
    }

    /// Cell utilization under `strategy`, in (0, 1].
    pub fn utilization(&self, strategy: MappingStrategy) -> f64 {
        match strategy {
            MappingStrategy::Naive => self.utilization_naive,
            MappingStrategy::Packed => self.utilization_packed,
            MappingStrategy::Sharded { .. } => match &self.shard {
                None => self.utilization_packed,
                Some(s) if s.subarrays_total == 0 => 1.0,
                Some(s) => {
                    self.utilization_packed * self.subarrays_packed as f64
                        / s.subarrays_total as f64
                }
            },
        }
    }
}

/// Fabric-level subarray health: which physical subarrays are dead, how
/// many exist, and how many are held back as hot spares.
///
/// The id space is `[0, total)`; the top `spare` ids are reserved for
/// repair and never handed out by the initial [`assign_subarrays`] pass.
/// `dead` is kept sorted so membership tests are a binary search and
/// serialization is canonical (byte-stable across runs).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultMap {
    /// Dead physical subarray ids, sorted ascending, deduplicated.
    pub dead: Vec<u64>,
    /// Total physical subarrays in the fabric.
    pub total: u64,
    /// Subarrays reserved as spares at the top of the id space.
    pub spare: u64,
}

impl FaultMap {
    /// A fully healthy fabric of `total` subarrays with `spare` of them
    /// reserved for repair.
    pub fn healthy(total: u64, spare: u64) -> Self {
        FaultMap {
            dead: Vec::new(),
            total,
            spare: spare.min(total),
        }
    }

    /// Whether subarray `id` is marked dead.
    pub fn is_dead(&self, id: u64) -> bool {
        self.dead.binary_search(&id).is_ok()
    }

    /// Marks `id` dead; returns `true` when it was previously healthy.
    pub fn mark_dead(&mut self, id: u64) -> bool {
        match self.dead.binary_search(&id) {
            Ok(_) => false,
            Err(at) => {
                self.dead.insert(at, id);
                true
            }
        }
    }

    /// Ids available to the initial placement pass (`total - spare`).
    pub fn usable(&self) -> u64 {
        self.total - self.spare
    }

    /// Live (non-dead) subarrays across the whole fabric.
    pub fn live_count(&self) -> u64 {
        self.total - self.dead.len() as u64
    }
}

/// Why fault-aware placement or repair failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapFaultError {
    /// The live, non-spare region cannot hold every placement.
    OutOfSubarrays {
        /// Subarrays the network needs (naive/exclusive tiling).
        needed: u64,
        /// Live subarrays available outside the spare pool.
        available: u64,
    },
    /// A repair ran out of live spare subarrays.
    OutOfSpares,
}

impl std::fmt::Display for MapFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapFaultError::OutOfSubarrays { needed, available } => write!(
                f,
                "network needs {needed} subarrays but only {available} live \
                 non-spare subarrays exist"
            ),
            MapFaultError::OutOfSpares => write!(f, "spare subarray pool exhausted during repair"),
        }
    }
}

impl std::error::Error for MapFaultError {}

/// Assigns physical subarray ids to every placement: a single cursor
/// walks the usable region `[0, faults.usable())` in order, skipping
/// dead subarrays, and each placement takes its naive (exclusive) tile
/// count in row-major tile order (`rt * col_tiles + ct` — the order the
/// fault-aware programmer expects its `phys_ids` in).
///
/// Placement is exclusive even under [`MappingStrategy::Packed`]: packing
/// changes the *area accounting*, but attributing each layer's tiles to
/// distinct physical ids keeps "which layers does this dead subarray
/// hit" well-defined and conservative.
///
/// The walk is a pure function of the placement list and the fault map,
/// so the same inputs always yield the same ids.
///
/// # Errors
///
/// [`MapFaultError::OutOfSubarrays`] when the live non-spare region is
/// too small; placements are left untouched in that case.
pub fn assign_subarrays(
    mapping: &mut NetworkMapping,
    faults: &FaultMap,
) -> Result<(), MapFaultError> {
    let needed: u64 = mapping
        .placements
        .iter()
        .map(|p| p.naive_subarrays() as u64)
        .sum();
    let dead_in_usable = faults.dead.iter().filter(|&&d| d < faults.usable()).count() as u64;
    let available = faults.usable() - dead_in_usable;
    if needed > available {
        return Err(MapFaultError::OutOfSubarrays { needed, available });
    }
    let mut cursor = 0u64;
    for p in &mut mapping.placements {
        let mut ids = Vec::with_capacity(p.naive_subarrays());
        while ids.len() < p.naive_subarrays() {
            if !faults.is_dead(cursor) {
                ids.push(cursor);
            }
            cursor += 1;
        }
        p.subarray_ids = Some(ids);
    }
    Ok(())
}

/// Repairs a mapping after subarrays die in the field: marks `newly_dead`
/// in `faults`, then rewrites only the placements whose assigned ids were
/// hit, pulling replacements from the spare pool (top of the id space,
/// lowest free spare first). Untouched placements keep their ids — a
/// repair recompiles only the layers it returns.
///
/// Returns the indices (into `mapping.placements`) of the placements
/// whose id lists changed, sorted ascending.
///
/// # Errors
///
/// [`MapFaultError::OutOfSpares`] when the live spare pool cannot cover
/// every hit slot. `faults` still records the new deaths in that case,
/// but no placement is modified.
pub fn remap_placements(
    mapping: &mut NetworkMapping,
    faults: &mut FaultMap,
    newly_dead: &[u64],
) -> Result<Vec<usize>, MapFaultError> {
    for &id in newly_dead {
        faults.mark_dead(id);
    }
    // Spares already consumed by earlier repairs stay off the free list.
    let mut in_use: Vec<u64> = mapping
        .placements
        .iter()
        .filter_map(|p| p.subarray_ids.as_ref())
        .flatten()
        .copied()
        .collect();
    in_use.sort_unstable();
    let mut free_spares = (faults.usable()..faults.total)
        .filter(|&s| !faults.is_dead(s) && in_use.binary_search(&s).is_err());
    let mut affected = Vec::new();
    let mut repaired: Vec<(usize, Vec<u64>)> = Vec::new();
    for (idx, p) in mapping.placements.iter().enumerate() {
        let Some(ids) = &p.subarray_ids else { continue };
        if !ids.iter().any(|&id| faults.is_dead(id)) {
            continue;
        }
        let mut next = ids.clone();
        for slot in &mut next {
            if faults.is_dead(*slot) {
                *slot = free_spares.next().ok_or(MapFaultError::OutOfSpares)?;
            }
        }
        repaired.push((idx, next));
        affected.push(idx);
    }
    for (idx, ids) in repaired {
        mapping.placements[idx].subarray_ids = Some(ids);
    }
    Ok(affected)
}

/// A partial-tile rectangle (rows x cols of cells) awaiting packing.
#[derive(Debug, Clone, Copy)]
struct Rect {
    rows: usize,
    cols: usize,
}

/// Shelf-packs rectangles into `rows x cols` bins, returning the bin count.
fn shelf_pack(mut rects: Vec<Rect>, bin_rows: usize, bin_cols: usize) -> usize {
    // Tallest first, then widest: classic decreasing-height shelf packing.
    rects.sort_by(|a, b| b.rows.cmp(&a.rows).then(b.cols.cmp(&a.cols)));
    // Each shelf: (height, remaining width). Each bin: remaining height +
    // open shelves.
    struct Bin {
        free_rows: usize,
        shelves: Vec<(usize, usize)>, // (shelf height, free cols)
    }
    let mut bins: Vec<Bin> = Vec::new();
    'next: for r in rects {
        // Try existing shelves first.
        for bin in &mut bins {
            for shelf in &mut bin.shelves {
                if shelf.0 >= r.rows && shelf.1 >= r.cols {
                    shelf.1 -= r.cols;
                    continue 'next;
                }
            }
        }
        // Try opening a new shelf in an existing bin.
        for bin in &mut bins {
            if bin.free_rows >= r.rows {
                bin.free_rows -= r.rows;
                bin.shelves.push((r.rows, bin_cols - r.cols));
                continue 'next;
            }
        }
        // New bin.
        bins.push(Bin {
            free_rows: bin_rows - r.rows,
            shelves: vec![(r.rows, bin_cols - r.cols)],
        });
    }
    bins.len()
}

/// Decomposes one lowered `(ins, outs)` matrix into full subarray tiles
/// plus the partial rectangles available for cross-layer packing.
fn tile_decomposition(ins: usize, outs: usize, params: &MacroParams) -> (usize, Vec<Rect>) {
    let bit_cols = outs * params.weight_bits as usize;
    let full_rows = ins / params.rows;
    let rem_rows = ins % params.rows;
    let full_cols = bit_cols / params.cols;
    let rem_cols = bit_cols % params.cols;
    let mut partials = Vec::new();
    if rem_cols > 0 && full_rows > 0 {
        for _ in 0..full_rows {
            partials.push(Rect {
                rows: params.rows,
                cols: rem_cols,
            });
        }
    }
    if rem_rows > 0 && full_cols > 0 {
        for _ in 0..full_cols {
            partials.push(Rect {
                rows: rem_rows,
                cols: params.cols,
            });
        }
    }
    if rem_rows > 0 && rem_cols > 0 {
        partials.push(Rect {
            rows: rem_rows,
            cols: rem_cols,
        });
    }
    (full_rows * full_cols, partials)
}

/// Packed subarray count of a set of placements (each die packs its own
/// layers under [`MappingStrategy::Sharded`]).
fn pack_placements(placements: &[&LayerPlacement], params: &MacroParams) -> usize {
    let mut full = 0usize;
    let mut partials = Vec::new();
    for p in placements {
        let (f, mut parts) = tile_decomposition(p.ins, p.outs, params);
        full += f;
        partials.append(&mut parts);
    }
    full + shelf_pack(partials, params.rows, params.cols)
}

/// Spreads `mapping`'s placements across `chips` dies: a contiguous
/// partition in execution order (activations stream die to die at most
/// once per boundary), balanced by naive subarray demand, each die
/// shelf-packing its own layers. `layer_of` names each placement's IR
/// layer; the placements of one layer (a ReBranch's four convs) share a
/// die, so no boundary falls inside a layer.
pub fn shard_network(
    mapping: &NetworkMapping,
    params: &MacroParams,
    chips: usize,
    layer_of: &[usize],
) -> ShardPlan {
    let chips = chips.max(1);
    let total: usize = mapping
        .placements
        .iter()
        .map(LayerPlacement::naive_subarrays)
        .sum();
    let per_chip = total.div_ceil(chips).max(1);
    let mut chip_of: Vec<usize> = Vec::with_capacity(mapping.placements.len());
    let mut acc = 0usize;
    for (i, p) in mapping.placements.iter().enumerate() {
        let chip = match chip_of.last() {
            Some(&prev) if layer_of[i] == layer_of[i - 1] => prev,
            _ => (acc / per_chip).min(chips - 1),
        };
        chip_of.push(chip);
        acc += p.naive_subarrays();
    }
    let subarrays_per_chip: Vec<usize> = (0..chips)
        .map(|c| {
            let group: Vec<&LayerPlacement> = mapping
                .placements
                .iter()
                .zip(&chip_of)
                .filter(|(_, &ch)| ch == c)
                .map(|(p, _)| p)
                .collect();
            pack_placements(&group, params)
        })
        .collect();
    let boundary_crossings = chip_of.windows(2).filter(|w| w[0] != w[1]).count();
    ShardPlan {
        chips,
        subarrays_total: subarrays_per_chip.iter().sum(),
        subarrays_per_chip,
        boundary_crossings,
        chip_of,
    }
}

/// Maps a network's CiM layers onto subarrays of `params`.
///
/// # Errors
///
/// Propagates [`NetworkError`] if the network's shapes are inconsistent.
pub fn map_network(
    desc: &NetworkDesc,
    params: &MacroParams,
) -> Result<NetworkMapping, NetworkError> {
    map_network_with(desc, params, MappingStrategy::Packed)
}

/// [`map_network`] with an explicit strategy: under
/// [`MappingStrategy::Sharded`] the returned mapping additionally carries
/// the [`ShardPlan`].
///
/// # Errors
///
/// Propagates [`NetworkError`] if the network's shapes are inconsistent.
pub fn map_network_with(
    desc: &NetworkDesc,
    params: &MacroParams,
    strategy: MappingStrategy,
) -> Result<NetworkMapping, NetworkError> {
    let reports = desc.analyze()?;
    let wb = params.weight_bits as usize;
    let mut placements = Vec::new();
    let mut layer_of = Vec::new();
    let mut full_tiles = 0usize;
    let mut partials: Vec<Rect> = Vec::new();
    let mut total_bits = 0u64;
    for r in &reports {
        for (k, m) in r.lowered.iter().enumerate() {
            let bit_cols = m.outs * wb;
            let used_bits = (m.ins * m.outs * wb) as u64;
            total_bits += used_bits;
            placements.push(LayerPlacement {
                // A ReBranch's four convs are placed one by one.
                name: match r.lowered.len() {
                    1 => r.name.clone(),
                    _ => format!("{} {}", r.name, REBRANCH_CONVS[k]),
                },
                ins: m.ins,
                outs: m.outs,
                mvms: m.mvms,
                row_tiles: m.ins.div_ceil(params.rows),
                col_tiles: bit_cols.div_ceil(params.cols),
                used_bits,
                subarray_ids: None,
            });
            layer_of.push(r.index);
            // Decompose into full tiles + partial rectangles for packing.
            let (full, mut parts) = tile_decomposition(m.ins, m.outs, params);
            full_tiles += full;
            partials.append(&mut parts);
        }
    }
    let subarrays_naive: usize = placements.iter().map(|p| p.naive_subarrays()).sum();
    let packed_bins = shelf_pack(partials, params.rows, params.cols);
    let subarrays_packed = full_tiles + packed_bins;
    let cell_bits = params.subarray_bits() as f64;
    let utilization = |subs: usize| {
        if subs == 0 {
            1.0
        } else {
            total_bits as f64 / (subs as f64 * cell_bits)
        }
    };
    let mut mapping = NetworkMapping {
        subarrays_naive,
        subarrays_packed,
        utilization_naive: utilization(subarrays_naive),
        utilization_packed: utilization(subarrays_packed),
        total_weight_bits: total_bits,
        placements,
        shard: None,
    };
    if let MappingStrategy::Sharded { chips } = strategy {
        mapping.shard = Some(shard_network(&mapping, params, chips, &layer_of));
    }
    Ok(mapping)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use yoloc_models::zoo;

    /// A random but shape-consistent conv/pool/linear stack.
    fn random_network(seed: u64) -> yoloc_models::NetworkDesc {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_ch = rng.gen_range(1usize..24);
        let mut hw = rng.gen_range(6usize..28);
        let mut net = yoloc_models::NetworkDesc::new("mix", (in_ch, hw, hw));
        let mut ch = in_ch;
        let n_layers = rng.gen_range(1usize..9);
        for i in 0..n_layers {
            let options: Vec<usize> = [1usize, 3, 5].into_iter().filter(|&k| k <= hw).collect();
            let kernel = options[rng.gen_range(0..options.len())];
            let out_ch = rng.gen_range(1usize..48);
            net.layers.push(yoloc_models::LayerSpec::Conv {
                name: format!("c{i}"),
                in_ch: ch,
                out_ch,
                kernel,
                stride: 1,
                padding: kernel / 2,
                bias: false,
            });
            ch = out_ch;
            if hw >= 4 && rng.gen_bool(0.3) {
                net.layers.push(yoloc_models::LayerSpec::MaxPool {
                    kernel: 2,
                    stride: 2,
                });
                hw /= 2;
            }
        }
        if rng.gen_bool(0.5) {
            net.layers.push(yoloc_models::LayerSpec::GlobalAvgPool);
            net.layers.push(yoloc_models::LayerSpec::Linear {
                name: "fc".into(),
                in_features: ch,
                out_features: rng.gen_range(2usize..40),
                bias: true,
            });
        }
        net
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_packed_never_worse_and_placements_fit(seed in 0u64..1_000_000) {
            // Across randomized layer mixes: the optimized packing never
            // consumes more subarrays than the naive mapping, every
            // placement's tile grid fits the 128x256 subarray bounds, and
            // utilization stays physical (0 < u <= 1).
            let net = random_network(seed);
            prop_assert!(net.analyze().is_ok(), "generator must emit valid networks");
            let params = MacroParams::rom_paper();
            let m = map_network(&net, &params).unwrap();
            prop_assert!(
                m.subarrays_packed <= m.subarrays_naive,
                "packed {} vs naive {}",
                m.subarrays_packed,
                m.subarrays_naive
            );
            for p in &m.placements {
                prop_assert!(p.fits(&params), "{:?} does not fit 128x256", p);
                prop_assert!(p.naive_subarrays() >= 1);
            }
            if !m.placements.is_empty() {
                prop_assert!(m.utilization_naive > 0.0 && m.utilization_naive <= 1.0 + 1e-9);
                prop_assert!(m.utilization_packed > 0.0 && m.utilization_packed <= 1.0 + 1e-9);
                prop_assert!(m.utilization_packed >= m.utilization_naive - 1e-12);
                // Capacity sanity: the packed placement still holds every bit.
                let capacity = m.subarrays_packed as u64 * params.subarray_bits();
                prop_assert!(capacity >= m.total_weight_bits);
            }
            // Strategy accessors agree with the raw fields.
            prop_assert_eq!(m.subarrays(MappingStrategy::Naive), m.subarrays_naive);
            prop_assert_eq!(m.subarrays(MappingStrategy::Packed), m.subarrays_packed);
        }
    }

    #[test]
    fn packing_never_worse_than_naive() {
        let params = MacroParams::rom_paper();
        for net in [zoo::vgg8(100), zoo::resnet18(100), zoo::tiny_yolo(20, 5)] {
            let m = map_network(&net, &params).unwrap();
            assert!(
                m.subarrays_packed <= m.subarrays_naive,
                "{}: packed {} vs naive {}",
                net.name,
                m.subarrays_packed,
                m.subarrays_naive
            );
            assert!(m.utilization_packed >= m.utilization_naive);
            assert!(m.utilization_packed <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn packing_helps_on_odd_sized_layers() {
        // Layers whose dimensions are not multiples of the 128x256 grid
        // leave subarrays mostly idle under the naive mapping; the paper's
        // shared-subarray scheme claws that back.
        let mut net = yoloc_models::NetworkDesc::new("odd", (20, 16, 16));
        for i in 0..8 {
            net.layers.push(yoloc_models::LayerSpec::Conv {
                name: format!("c{i}"),
                in_ch: 20,
                out_ch: 20,
                kernel: 3,
                stride: 1,
                padding: 1,
                bias: false,
            });
        }
        let m = map_network(&net, &MacroParams::rom_paper()).unwrap();
        assert!(
            m.utilization_packed > 1.3 * m.utilization_naive,
            "packed {} vs naive {}",
            m.utilization_packed,
            m.utilization_naive
        );
        assert!(m.subarrays_packed < m.subarrays_naive);
    }

    #[test]
    fn total_bits_match_lowered_matrices() {
        // The mapper stores exactly the lowered weight matrices (biases
        // are applied digitally after the ADC, not stored in arrays).
        let net = zoo::vgg8(10);
        let m = map_network(&net, &MacroParams::rom_paper()).unwrap();
        let expected: u64 = net
            .analyze()
            .unwrap()
            .iter()
            .flat_map(|r| &r.lowered)
            .map(|l| (l.ins * l.outs * 8) as u64)
            .sum();
        assert_eq!(m.total_weight_bits, expected);
        // Within bias rounding of the IR's 8-bit weight count.
        assert!(m.total_weight_bits <= net.weight_bits(8));
        assert!(m.total_weight_bits as f64 > 0.999 * net.weight_bits(8) as f64);
    }

    #[test]
    fn capacity_accounting_subarray_count() {
        // A single 128-in 32-out layer occupies exactly one subarray
        // (32 outs x 8 bits = 256 columns).
        let mut net = yoloc_models::NetworkDesc::new("one", (128, 1, 1));
        net.layers.push(yoloc_models::LayerSpec::Linear {
            name: "fc".into(),
            in_features: 128,
            out_features: 32,
            bias: false,
        });
        let m = map_network(&net, &MacroParams::rom_paper()).unwrap();
        assert_eq!(m.subarrays_naive, 1);
        assert_eq!(m.subarrays_packed, 1);
        assert!((m.utilization_naive - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sharded_mapping_partitions_contiguously_and_packs_per_die() {
        let yolo = zoo::yolo_v2(20, 5);
        for desc in [zoo::rebranched(&yolo, 4, 4), yolo] {
            let strategy = MappingStrategy::Sharded { chips: 4 };
            let m = map_network_with(&desc, &MacroParams::rom_paper(), strategy).unwrap();
            let s = m.shard.as_ref().expect("sharded mapping carries a plan");
            assert_eq!(s.chips, 4);
            assert_eq!(s.chip_of.len(), m.placements.len());
            // Contiguous in execution order: chip ids are monotone, so
            // activations cross each die boundary at most once.
            assert!(s.chip_of.windows(2).all(|w| w[0] <= w[1]));
            assert_eq!(
                s.boundary_crossings,
                s.chip_of.windows(2).filter(|w| w[0] != w[1]).count()
            );
            assert!(s.boundary_crossings <= 3);
            // A ReBranch group's four convs share a die.
            for (i, p) in m.placements.iter().enumerate() {
                if REBRANCH_CONVS[1..]
                    .iter()
                    .any(|part| p.name.ends_with(part))
                {
                    assert_eq!(s.chip_of[i], s.chip_of[i - 1], "{} split", p.name);
                }
            }
            // Per-die packing sits between global packing and naive.
            assert!(s.subarrays_total >= m.subarrays_packed);
            assert!(s.subarrays_total <= m.subarrays_naive);
            assert_eq!(m.subarrays(strategy), s.subarrays_total);
            // A YOLO-sized network populates every die.
            for c in 0..4 {
                assert!(s.chip_of.contains(&c), "chip {c} left empty");
            }
            let u = m.utilization(strategy);
            assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u}");
        }
    }

    #[test]
    fn single_chip_shard_degenerates_to_packed() {
        let desc = zoo::vgg8(10);
        let strategy = MappingStrategy::Sharded { chips: 1 };
        let m = map_network_with(&desc, &MacroParams::rom_paper(), strategy).unwrap();
        let s = m.shard.as_ref().unwrap();
        assert_eq!(s.subarrays_total, m.subarrays_packed);
        assert_eq!(s.boundary_crossings, 0);
        assert!(s.chip_of.iter().all(|&c| c == 0));
    }

    #[test]
    fn assignment_skips_dead_subarrays_deterministically() {
        let params = MacroParams::rom_paper();
        let net = zoo::vgg8(10);
        let mut m = map_network(&net, &params).unwrap();
        let total = (m.subarrays_naive as u64) * 2;
        let mut faults = FaultMap::healthy(total, total / 4);
        faults.mark_dead(0);
        faults.mark_dead(3);
        assign_subarrays(&mut m, &faults).unwrap();
        let mut seen = Vec::new();
        for p in &m.placements {
            let ids = p.subarray_ids.as_ref().expect("ids assigned");
            assert_eq!(ids.len(), p.naive_subarrays());
            for &id in ids {
                assert!(!faults.is_dead(id), "assigned a dead subarray {id}");
                assert!(id < faults.usable(), "spilled into the spare pool");
                seen.push(id);
            }
        }
        let n = seen.len();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), n, "exclusive placement never shares ids");
        assert!(!seen.contains(&0) && !seen.contains(&3));
        // Same inputs, same ids.
        let mut twin = map_network(&net, &params).unwrap();
        assign_subarrays(&mut twin, &faults).unwrap();
        assert_eq!(twin, m);
    }

    #[test]
    fn assignment_fails_cleanly_when_fabric_too_small() {
        let net = zoo::vgg8(10);
        let mut m = map_network(&net, &MacroParams::rom_paper()).unwrap();
        let needed = m.subarrays_naive as u64;
        let faults = FaultMap::healthy(needed, 1); // spare eats one slot
        let err = assign_subarrays(&mut m, &faults).unwrap_err();
        assert_eq!(
            err,
            MapFaultError::OutOfSubarrays {
                needed,
                available: needed - 1
            }
        );
        assert!(m.placements.iter().all(|p| p.subarray_ids.is_none()));
    }

    #[test]
    fn remap_touches_only_hit_placements_and_draws_spares() {
        let params = MacroParams::rom_paper();
        let net = zoo::vgg8(10);
        let mut m = map_network(&net, &params).unwrap();
        let total = (m.subarrays_naive as u64) + 8;
        let mut faults = FaultMap::healthy(total, 8);
        assign_subarrays(&mut m, &faults).unwrap();
        let before = m.clone();
        // Kill one subarray belonging to placement 1.
        let victim = before.placements[1].subarray_ids.as_ref().unwrap()[0];
        let affected = remap_placements(&mut m, &mut faults, &[victim]).unwrap();
        assert_eq!(affected, vec![1]);
        assert!(faults.is_dead(victim));
        for (i, (p, old)) in m.placements.iter().zip(&before.placements).enumerate() {
            if i == 1 {
                let ids = p.subarray_ids.as_ref().unwrap();
                assert!(!ids.contains(&victim));
                // The replacement comes from the spare region.
                let spare_used = ids.iter().any(|&id| id >= faults.usable());
                assert!(spare_used, "repair must draw from the spare pool");
            } else {
                assert_eq!(p, old, "unaffected placement {i} was rewritten");
            }
        }
        // A second failure on the same placement draws the next spare.
        let victim2 = m.placements[1].subarray_ids.as_ref().unwrap()[1];
        let affected2 = remap_placements(&mut m, &mut faults, &[victim2]).unwrap();
        assert_eq!(affected2, vec![1]);
        let ids = m.placements[1].subarray_ids.as_ref().unwrap();
        let spares: Vec<u64> = ids
            .iter()
            .copied()
            .filter(|&i| i >= faults.usable())
            .collect();
        assert_eq!(spares.len(), 2);
        assert_ne!(spares[0], spares[1]);
    }

    #[test]
    fn remap_exhausting_spares_errors_without_partial_rewrites() {
        let params = MacroParams::rom_paper();
        let net = zoo::vgg8(10);
        let mut m = map_network(&net, &params).unwrap();
        let total = (m.subarrays_naive as u64) + 1;
        let mut faults = FaultMap::healthy(total, 1);
        assign_subarrays(&mut m, &faults).unwrap();
        let before = m.clone();
        let ids: Vec<u64> = before.placements[0]
            .subarray_ids
            .as_ref()
            .unwrap()
            .iter()
            .copied()
            .take(2)
            .collect();
        assert!(ids.len() >= 2, "need two victims for this test");
        let err = remap_placements(&mut m, &mut faults, &ids).unwrap_err();
        assert_eq!(err, MapFaultError::OutOfSpares);
        // Deaths are recorded, but no placement was half-repaired.
        assert!(ids.iter().all(|&i| faults.is_dead(i)));
        assert_eq!(m.placements, before.placements);
    }

    #[test]
    fn shelf_pack_basics() {
        // Four quarter-size rectangles fit one bin.
        let rects = vec![
            Rect {
                rows: 64,
                cols: 128,
            },
            Rect {
                rows: 64,
                cols: 128,
            },
            Rect {
                rows: 64,
                cols: 128,
            },
            Rect {
                rows: 64,
                cols: 128,
            },
        ];
        assert_eq!(shelf_pack(rects, 128, 256), 1);
        // An oversize-ish pair needs two bins.
        let rects = vec![
            Rect {
                rows: 128,
                cols: 200,
            },
            Rect {
                rows: 128,
                cols: 200,
            },
        ];
        assert_eq!(shelf_pack(rects, 128, 256), 2);
    }
}
