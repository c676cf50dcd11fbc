//! # yoloc
//!
//! Facade crate for the YOLoC (DAC 2022) reproduction. Re-exports every
//! sub-crate of the workspace under one roof so examples, integration tests
//! and downstream users can depend on a single crate.
//!
//! See the workspace `ARCHITECTURE.md` for the crate map and dataflow and
//! `README.md` for the per-experiment index.
//!
//! # Examples
//!
//! ```
//! // The paper's Table I macro specification, computed from circuit
//! // parameters rather than hard-coded.
//! let spec = yoloc::cim::macro_model::MacroParams::rom_paper().spec();
//! assert!(spec.density_mb_per_mm2 > 4.0);
//! ```
//!
//! Deploying a model onto the CiM simulator and running the batched
//! inference engine end to end:
//!
//! ```
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//! use yoloc::core::compiler::{CompileOptions, CompiledNetwork};
//! use yoloc::core::engine::WorkerPool;
//! use yoloc::core::tiny_models::{Family, TinyCnn};
//! use yoloc::tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = TinyCnn::plain(Family::Vgg, 3, &[4], 2, &mut rng);
//! let x = Tensor::rand_uniform(&[4, 3, 8, 8], 0.0, 1.0, &mut rng);
//! let (desc, weights) = model.to_network((3, 8, 8));
//! let deployed = CompiledNetwork::compile(&desc, &weights, &x, CompileOptions::paper_default())?;
//! // Trunk convs run on ROM-CiM, the classifier on SRAM-CiM.
//! let (serial, report) = deployed.infer(&x, &mut rng);
//! assert!(report.rom.energy_pj > 0.0 && report.sram.energy_pj > 0.0);
//! // Serial walk and pooled batched engine are bit-identical on the
//! // (noiseless) paper datapath.
//! let (batched, _) = WorkerPool::with(2, |pool| deployed.infer_batch(&x, 1, pool));
//! assert_eq!(serial.data(), batched.data());
//! # Ok::<(), yoloc::models::NetworkError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use yoloc_cim as cim;
pub use yoloc_core as core;
pub use yoloc_data as data;
pub use yoloc_memory as memory;
pub use yoloc_models as models;
pub use yoloc_quant as quant;
pub use yoloc_tensor as tensor;
