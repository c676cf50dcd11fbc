//! # yoloc-cim
//!
//! Behavioural circuit models for the YOLoC (DAC 2022) reproduction: the
//! proposed 1T/cell ROM-CiM bit cell and macro (Fig. 4a, Fig. 5), the
//! SRAM-CiM cell zoo it is compared against (Fig. 4b–f), an analog
//! bit-line/ADC evaluation model, technology-scaling data (Fig. 1a), and
//! the computed Table I macro specification.
//!
//! These models replace the 28 nm parasitic-extraction + SPICE layer of the
//! paper: every datapath step (precharge, unary word-line pulses,
//! charge-share discharge counting, ADC digitization, shift-&-add) is
//! modelled explicitly, and with an ideal ADC the macro output is
//! bit-exact against the integer reference — the same functional
//! equivalence SPICE verifies for the real macro.
//!
//! # Examples
//!
//! ```
//! use yoloc_cim::macro_model::MacroParams;
//!
//! let spec = MacroParams::rom_paper().spec();
//! assert_eq!(spec.operation_number, 256);
//! assert!((spec.inference_time_ns - 8.9).abs() < 1e-9);
//! ```

// `deny`, not `forbid`: the `kernels::avx2` and `kernels::avx512`
// modules are the only places allowed to opt back in (scoped `allow` +
// `deny(unsafe_op_in_unsafe_fn)` + a safety comment on every intrinsic
// block). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod analog;
pub mod backend;
pub mod cells;
pub mod faults;
pub mod kernels;
pub mod macro_model;
pub mod technology;

pub use analog::{AdcModel, AnalogArray, AnalogConfig};
pub use backend::{program_backend, BackendKind};
pub use cells::{CellKind, RomCell};
pub use faults::{AdcFault, FabricGeometry, FaultContext, FaultPlan, FaultSpec, StuckKind};
pub use kernels::{
    avx2_available, avx512_available, choose_layout, transposed_pad, KernelDispatch, KernelKind,
    MatmulLayout,
};
pub use macro_model::{MacroParams, MacroSpec, MvmStats, RomMvm};
