//! # qxmap-heuristic
//!
//! Heuristic qubit mappers — the comparison baselines of the paper's
//! evaluation:
//!
//! * [`StochasticSwapMapper`] — a reimplementation of the algorithm class
//!   behind IBM Qiskit 0.4.x's `swap_mapper` (reference \[12\] of the
//!   paper): layer-by-layer randomized greedy SWAP insertion driven by a
//!   perturbed distance matrix, best of several trials. Like the
//!   original, it is probabilistic; Table 1 reports the minimum over 5
//!   runs.
//! * [`SabreMapper`] — a SABRE-style lookahead mapper with reverse-pass
//!   layout seeding (Li, Ding & Xie, reference \[13\]).
//! * [`NaiveMapper`] — shortest-path SWAP chains per gate with no
//!   lookahead; a floor baseline.
//!
//! All mappers implement [`Mapper`], produce hardware-legal circuits
//! (validated against the coupling map), and repair CNOT directions with
//! 4 H gates exactly like the exact mapper. Every mapper routes through
//! [`Mapper::map_model`]: distances come from the
//! [`qxmap_arch::DeviceModel`]'s precomputed tables (no per-call BFS) and
//! insertions are priced with its per-edge costs
//! ([`HeuristicResult::model_cost`]). SABRE and the stochastic mapper
//! additionally observe wall-clock deadlines (`with_deadline`), and SABRE
//! a racing supervisor's cooperative stop flag (`with_stop`); both
//! degrade to cheap routing — never to invalid output — when a budget
//! fires.
//!
//! ```
//! use qxmap_arch::devices;
//! use qxmap_circuit::paper_example;
//! use qxmap_heuristic::{Mapper, StochasticSwapMapper};
//!
//! let mapper = StochasticSwapMapper::with_seed(7);
//! let result = mapper.map(&paper_example(), &devices::ibm_qx4())?;
//! // Heuristics can never beat the exact minimum of 4 (Example 7).
//! assert!(result.added_gates >= 4);
//! # Ok::<(), qxmap_heuristic::HeuristicError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod engine;
mod naive;
mod sabre;
mod stochastic;
mod traits;

pub use naive::NaiveMapper;
pub use sabre::SabreMapper;
pub use stochastic::StochasticSwapMapper;
pub use traits::{HeuristicError, HeuristicResult, Mapper, StopCheck};
