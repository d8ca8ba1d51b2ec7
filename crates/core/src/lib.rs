#![forbid(unsafe_code)]
//! # bst-core — BloomSampleTree sampling and reconstruction
//!
//! The primary contribution of *Sampling and Reconstruction Using Bloom
//! Filters* (Sengupta et al., ICDE 2017):
//!
//! * [`tree::BloomSampleTree`] — the complete tree of Definition 5.1, with
//!   the [`tree::SampleTree`] navigation trait;
//! * [`pruned::PrunedBloomSampleTree`] — the occupancy-aware variant
//!   (§5.2) with dynamic insertion;
//! * [`sampler::BstSampler`] — BSTSample (Algorithm 1) plus the one-pass
//!   multi-sampler (§5.3);
//! * [`reconstruct::BstReconstructor`] — set reconstruction (§6);
//! * [`baselines`] — DictionaryAttack and HashInvert (§4);
//! * [`metrics::OpStats`] — the intersection/membership accounting behind
//!   Figures 3–4 and 8–12;
//! * [`costmodel::CostModel`] — runtime `icost/mcost` calibration (§5.4);
//! * [`error::BstError`] — typed failure reasons for every fallible op;
//! * [`system::BstSystem`] — the `Arc`-shared, `Send + Sync` facade over
//!   a [`backend::TreeBackend`] (dense, or pruned with tree-generation-
//!   stamped occupancy mutation) and the filter store;
//! * [`store::BstStore`] — the mutable, [`store::FilterId`]-addressed
//!   database `D̄` of counting-filter-backed sets (§3.2);
//! * [`query::Query`] — the per-filter handle with amortized descent
//!   state, opened via [`system::BstSystem::query`] or (generation-
//!   stamped, mutation-safe) [`system::BstSystem::query_id`];
//! * [`wal`] — the append-only durability log: checksummed replayable
//!   mutation records, with recovery = checkpoint + tail replay.
//!
//! ## Example
//!
//! One tree serves a mutable database of filter-backed sets; per-filter
//! work goes through generation-stamped [`query::Query`] handles:
//!
//! ```
//! use bst_core::system::BstSystem;
//!
//! let system = BstSystem::builder(50_000).accuracy(0.9).build();
//!
//! // A mutable stored set, addressed by id; its handle tracks churn.
//! let community = system.create((0..300u64).map(|i| i * 11)).unwrap();
//! let query = system.query_id(community).unwrap();
//! system.insert_keys(community, [49_999u64]).unwrap();
//! assert!(query.reconstruct().unwrap().binary_search(&49_999).is_ok());
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod baselines;
pub mod costmodel;
pub mod error;
pub mod metrics;
pub mod persistence;
pub mod pruned;
pub mod query;
pub mod reconstruct;
pub mod sampler;
pub mod store;
pub mod system;
pub mod tree;
pub mod wal;

pub use backend::{TreeBackend, TreeView};
pub use error::BstError;
pub use metrics::OpStats;
pub use persistence::PersistError;
pub use pruned::PrunedBloomSampleTree;
pub use query::Query;
pub use reconstruct::{BstReconstructor, ReconstructConfig};
pub use sampler::{BstSampler, QueryMemo, SamplerConfig};
pub use store::{BstStore, FilterId};
pub use system::{BstConfig, BstSystem};
pub use tree::{BloomSampleTree, SampleTree};
pub use wal::{FsyncPolicy, Wal, WalRecord};
