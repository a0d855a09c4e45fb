//! # prescient-tempest
//!
//! Fine-grain distributed-shared-memory *substrate*, modeled on the Tempest
//! parallel-programming interface and its Blizzard implementation on the
//! Thinking Machines CM-5 (Reinhardt, Larus & Wood, ISCA '94; Schoinas et
//! al., ASPLOS VI).
//!
//! Tempest provides mechanisms, not policy:
//!
//! * a **global address space** carved into fixed-size *cache blocks*
//!   (32–1024 bytes), each with a *home node* ([`layout`]),
//! * **fine-grain access control**: every shared-memory access checks a
//!   per-block tag ([`tag::Tag`]); inappropriate accesses *fault* into a
//!   user-level protocol handler (the original Blizzard-S inserted the same
//!   software checks before shared loads and stores by editing executables —
//!   our explicit check is the identical mechanism),
//! * **messaging** between nodes ([`fabric`]), playing the role of the CM-5
//!   data network; a message's payload is interpreted by the receiving
//!   node's protocol handler, which runs on that node's one thread,
//!   mirroring Tempest active messages,
//! * per-node **block storage** ([`mem`]) backing both home memory and the
//!   remote-block cache (the "stache" region),
//! * a deterministic **virtual-time cost model** ([`cost`]) that converts
//!   observed protocol events (local hits, remote misses, bulk transfers,
//!   barrier gaps) into CM-5-calibrated time so the paper's execution-time
//!   breakdowns can be regenerated on stock hardware, and
//! * **statistics** ([`stats`]) and a virtual-time-aware **barrier**
//!   ([`barrier`]).
//!
//! Coherence *policy* lives above this crate: `prescient-stache` implements
//! the default sequentially-consistent write-invalidate protocol and
//! `prescient-core` implements the paper's predictive protocol on top of it.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod barrier;
pub mod cost;
pub mod fabric;
pub mod faults;
pub mod idmap;
pub mod json;
pub mod layout;
pub mod mem;
pub mod metrics;
pub mod nodeset;
pub mod prim;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod tag;
pub mod trace;

pub use addr::{BlockId, GAddr};
pub use barrier::{Aborted, VBarrier};
pub use cost::CostModel;
pub use fabric::{
    BatchConfig, ChannelTransport, Endpoint, Envelope, Fabric, FabricCtl, ShardEndpoint, Transport,
    TryRecv, Undeliverable, WireBatch, WirePayload,
};
pub use faults::{CrashPlan, FaultHook, FaultPlan, PartitionScope, PartitionSpec};
pub use idmap::IdMap;
pub use layout::{GlobalLayout, HomeMap, HomeView};
pub use mem::{Fault, MemCheckpoint, MemError, NodeMem};
pub use metrics::{LatencyHist, MetricsConfig, MetricsHub, PhaseRecord};
pub use nodeset::NodeSet;
pub use prim::Prim;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::{FaultStats, NodeStats, TimeBreakdown, WireSnapshot};
pub use tag::Tag;
pub use trace::{EventKind, TraceConfig, TraceDump, TraceEvent, Tracer};

/// Identifies one node (processor) of the emulated machine.
///
/// The paper's machine is a 32-processor CM-5; [`NodeSet`] supports up to 64
/// nodes, which bounds `NodeId` to `0..64`.
pub type NodeId = u16;

/// Maximum number of nodes supported by the substrate (bounded by the
/// [`NodeSet`] bitmask width).
pub const MAX_NODES: usize = 64;
