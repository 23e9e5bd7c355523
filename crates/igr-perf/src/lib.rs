//! Performance models at paper scale.
//!
//! The paper's headline numbers live on machines with 10⁴ nodes. This crate
//! models those machines from their published parameters (Table 2 and §6.1)
//! and reproduces, at full-system scale:
//!
//! * **Table 3** — grind times (ns/cell/step) per device, scheme, precision,
//!   and memory mode, via a bandwidth-anchored roofline model
//!   ([`grind`]);
//! * **Figs. 6–8** — weak/strong scaling curves via a compute + halo /
//!   injection-bandwidth model ([`scaling`]);
//! * **Table 4** — energy per cell-step via per-device power draws
//!   ([`energy`]);
//! * **§7.2's records** — 200 T cells / 1.035×10¹⁵ DoF capacity arithmetic
//!   ([`capacity`]);
//! * **Table 1's "FLOPs" measurement mechanism** — algorithm-level FLOP
//!   accounting and achieved-rate estimates ([`flops`]).
//!
//! Model philosophy: *anchor and predict*. One measured cell per device
//! (the paper's IGR FP64 in-core grind time) calibrates a device-efficiency
//! factor; everything else — other precisions, the WENO baseline, unified
//! memory, scaling, energy — is predicted from first principles (byte
//! counts, bandwidth ratios, link models) and compared against the paper in
//! EXPERIMENTS.md. Laptop-scale *measured* runs from `igr-bench` anchor the
//! scheme-to-scheme ratios independently.

#![deny(missing_docs)]
pub mod capacity;
pub mod energy;
pub mod flops;
pub mod grind;
pub mod scaling;
pub mod systems;

pub use capacity::{CapacityModel, MemoryLayout};
pub use energy::EnergyModel;
pub use flops::FlopModel;
pub use grind::{GrindModel, MemoryMode, Precision, Scheme};
pub use scaling::{ScalingModel, ScalingPoint};
pub use systems::System;
