//! Cluster state: nodes, the GPU table, and allocation accounting.
//!
//! Mirrors the paper's `ClusterState` (§6.4): a per-node record (CPU,
//! memory, network, liveness) plus a tabular structure with one row per GPU
//! carrying `(node id, global gpu id, local gpu id, type, state, free
//! memory, running job)`. Policies query this table; only the execution
//! backend mutates allocations through [`ClusterState::allocate`] /
//! [`ClusterState::release`], which keeps GPU accounting in one place.
//!
//! # Maintained indexes
//!
//! The GPU table is the *source of truth*, but every query a policy makes
//! per round is answered from indexes maintained incrementally by the
//! mutation paths: a per-node free-GPU free-list, O(1) free/total GPU
//! counts over live nodes, a job → allocation map, and a node → GPU list.
//! At production scale (thousands of GPUs, thousands of active jobs) this
//! turns the round loop's per-policy full-table scans into O(changed)
//! work. Snapshots encode only the source-of-truth rows; the indexes are
//! rebuilt on decode (see [`crate::snapshot`]), and
//! [`ClusterState::check_invariants`] re-derives them from scratch to
//! verify the incremental maintenance (the property suite and the round
//! loop's debug assertions run it continuously).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{BloxError, Result};
use crate::ids::{GpuGlobalId, JobId, NodeId};
use crate::place_index::PlacementIndex;

/// One node-liveness transition recorded by the cluster's churn log.
///
/// [`ClusterState::add_node`], [`ClusterState::fail_node`], and
/// [`ClusterState::revive_node`] append events here; the round loop drains
/// them via [`ClusterState::take_churn`] into the round's
/// [`crate::delta::StateDelta`] so policies can react incrementally
/// instead of diffing node sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEvent {
    /// A node joined the cluster.
    Added(NodeId),
    /// A live node failed (its GPUs left the schedulable pool).
    Failed(NodeId),
    /// A failed node returned to service.
    Revived(NodeId),
}

/// Accelerator models the toolkit knows about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GpuType {
    /// NVIDIA K80 (oldest generation in the Gavel heterogeneity studies).
    K80,
    /// NVIDIA P100 (the original Tiresias testbed).
    P100,
    /// NVIDIA V100 (AWS p3, the paper's default).
    V100,
    /// NVIDIA A100 (hardware-evolution case study).
    A100,
    /// NVIDIA T4 (inference-class accelerator).
    T4,
}

impl GpuType {
    /// Device memory in GiB.
    pub fn mem_gb(self) -> f64 {
        match self {
            GpuType::K80 => 12.0,
            GpuType::P100 => 16.0,
            GpuType::V100 => 16.0,
            GpuType::A100 => 40.0,
            GpuType::T4 => 16.0,
        }
    }

    /// Stable lowercase name used in traces and reports.
    pub fn name(self) -> &'static str {
        match self {
            GpuType::K80 => "k80",
            GpuType::P100 => "p100",
            GpuType::V100 => "v100",
            GpuType::A100 => "a100",
            GpuType::T4 => "t4",
        }
    }

    /// Parse a trace token into a GPU type.
    pub fn parse(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "k80" => Ok(GpuType::K80),
            "p100" => Ok(GpuType::P100),
            "v100" => Ok(GpuType::V100),
            "a100" => Ok(GpuType::A100),
            "t4" => Ok(GpuType::T4),
            other => Err(BloxError::Parse(format!("unknown gpu type `{other}`"))),
        }
    }
}

/// Hardware description of one server class.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Accelerator type installed in this server.
    pub gpu_type: GpuType,
    /// Number of accelerators per server.
    pub gpus: u32,
    /// CPU cores per server.
    pub cpu_cores: u32,
    /// Host DRAM in GiB.
    pub dram_gb: f64,
    /// Cross-node interconnect bandwidth in Gbps.
    pub inter_bw_gbps: f64,
    /// Pairwise intra-node GPU bandwidth matrix in Gbps, `gpus × gpus`.
    /// Asymmetric NVLink topologies (the Blink observation that GPU0↔GPU3
    /// enjoys twice the bandwidth of GPU0↔GPU1 on p3.8xlarge) are encoded
    /// here and exploited by the bandwidth-aware intra-node placement
    /// policy (paper Table 4).
    pub intra_bw_gbps: Vec<Vec<f64>>,
}

impl NodeSpec {
    /// Uniform intra-node bandwidth matrix.
    fn uniform_matrix(gpus: u32, bw: f64) -> Vec<Vec<f64>> {
        (0..gpus)
            .map(|i| (0..gpus).map(|j| if i == j { 0.0 } else { bw }).collect())
            .collect()
    }

    /// AWS p3.8xlarge: 4× V100, 10 Gbps Ethernet, asymmetric NVLink rings.
    ///
    /// Bandwidths follow the Blink measurement quoted in the paper: the
    /// (0,3) and (1,2) pairs have double-width NVLink (≈100 Gbps) while the
    /// other pairs see ≈50 Gbps.
    pub fn v100_p3_8xlarge() -> Self {
        let mut intra = Self::uniform_matrix(4, 50.0);
        for (a, b) in [(0usize, 3usize), (1, 2)] {
            intra[a][b] = 100.0;
            intra[b][a] = 100.0;
        }
        NodeSpec {
            gpu_type: GpuType::V100,
            gpus: 4,
            cpu_cores: 32,
            dram_gb: 244.0,
            inter_bw_gbps: 10.0,
            intra_bw_gbps: intra,
        }
    }

    /// The original Tiresias testbed: 4× P100 with a 100 Gbps fabric.
    pub fn p100_tiresias() -> Self {
        NodeSpec {
            gpu_type: GpuType::P100,
            gpus: 4,
            cpu_cores: 28,
            dram_gb: 256.0,
            inter_bw_gbps: 100.0,
            intra_bw_gbps: Self::uniform_matrix(4, 80.0),
        }
    }

    /// An 8× A100 DGX-style server with a 100 Gbps fabric.
    pub fn a100_dgx() -> Self {
        NodeSpec {
            gpu_type: GpuType::A100,
            gpus: 8,
            cpu_cores: 128,
            dram_gb: 1024.0,
            inter_bw_gbps: 100.0,
            intra_bw_gbps: Self::uniform_matrix(8, 300.0),
        }
    }

    /// Bandwidth between two local GPU indices, Gbps.
    pub fn intra_bw(&self, a: u8, b: u8) -> f64 {
        self.intra_bw_gbps
            .get(a as usize)
            .and_then(|row| row.get(b as usize))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Allocation state of one GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuState {
    /// No job assigned.
    Free,
    /// A job is running (or being launched) on the GPU.
    Busy,
}

/// One row of the cluster-wide GPU table.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuRow {
    /// Cluster-global id of the GPU (row key).
    pub id: GpuGlobalId,
    /// Node hosting the GPU.
    pub node: NodeId,
    /// Index of the GPU within its node.
    pub local: u8,
    /// Accelerator type.
    pub gpu_type: GpuType,
    /// Allocation state.
    pub state: GpuState,
    /// Free device memory in GiB.
    pub free_mem_gb: f64,
    /// Job currently assigned, if any.
    pub job: Option<JobId>,
}

/// One server of the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Node id (key).
    pub id: NodeId,
    /// Hardware description.
    pub spec: NodeSpec,
    /// False once the node has failed / been removed.
    pub alive: bool,
    /// CPU cores not yet assigned to jobs (Synergy accounting).
    pub free_cpu_cores: f64,
    /// DRAM GiB not yet assigned to jobs (Synergy accounting).
    pub free_dram_gb: f64,
}

/// The shared cluster data structure.
///
/// Iteration over nodes and GPUs is in id order (deterministic), which the
/// simulator relies on for reproducibility.
#[derive(Debug, Clone, Default)]
pub struct ClusterState {
    nodes: BTreeMap<NodeId, Node>,
    gpus: BTreeMap<GpuGlobalId, GpuRow>,
    next_node: u32,
    next_gpu: u32,
    /// Index: free GPUs per live node, ascending global id. Nodes that are
    /// dead have no entry; fully busy live nodes have an empty entry.
    free_by_node: BTreeMap<NodeId, Vec<GpuGlobalId>>,
    /// Index: count of free GPUs on live nodes.
    free_count: u32,
    /// Index: count of all GPUs on live nodes.
    live_gpus: u32,
    /// Index: GPUs owned by each job, ascending global id.
    job_gpus: BTreeMap<JobId, Vec<GpuGlobalId>>,
    /// Index: all GPUs of each node (live or not), ascending global id.
    node_gpus: BTreeMap<NodeId, Vec<GpuGlobalId>>,
    /// Index: live nodes bucketed by free-GPU count (and GPU type), the
    /// engine under every placement pick strategy. Maintained by the same
    /// mutations that keep `free_by_node` fresh; persists across rounds so
    /// Place starts from buckets instead of re-scanning nodes.
    place_index: PlacementIndex,
    /// Liveness transitions since the last [`ClusterState::take_churn`].
    churn_log: Vec<NodeEvent>,
    /// Jobs [`ClusterState::fail_node`] took GPUs from since the last
    /// [`ClusterState::take_evicted`].
    evicted: BTreeSet<JobId>,
}

/// Equality is defined on the source-of-truth state only (nodes, GPU
/// table, id counters). The indexes are deterministic functions of it and
/// the churn and eviction logs are transient, so including them would
/// make a decoded snapshot compare unequal to the live state it captured.
impl PartialEq for ClusterState {
    fn eq(&self, other: &Self) -> bool {
        self.nodes == other.nodes
            && self.gpus == other.gpus
            && self.next_node == other.next_node
            && self.next_gpu == other.next_gpu
    }
}

impl ClusterState {
    /// An empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `count` nodes of the given spec; returns their ids.
    pub fn add_nodes(&mut self, spec: &NodeSpec, count: u32) -> Vec<NodeId> {
        (0..count).map(|_| self.add_node(spec.clone())).collect()
    }

    /// Add a single node, returning its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        let mut gpu_ids = Vec::with_capacity(spec.gpus as usize);
        for local in 0..spec.gpus {
            let gid = GpuGlobalId(self.next_gpu);
            self.next_gpu += 1;
            gpu_ids.push(gid);
            self.gpus.insert(
                gid,
                GpuRow {
                    id: gid,
                    node: id,
                    local: local as u8,
                    gpu_type: spec.gpu_type,
                    state: GpuState::Free,
                    free_mem_gb: spec.gpu_type.mem_gb(),
                    job: None,
                },
            );
        }
        self.free_count += spec.gpus;
        self.live_gpus += spec.gpus;
        self.free_by_node.insert(id, gpu_ids.clone());
        self.node_gpus.insert(id, gpu_ids);
        self.place_index.set_count(id, spec.gpu_type, spec.gpus);
        let node = Node {
            id,
            free_cpu_cores: spec.cpu_cores as f64,
            free_dram_gb: spec.dram_gb,
            spec,
            alive: true,
        };
        self.nodes.insert(id, node);
        self.churn_log.push(NodeEvent::Added(id));
        id
    }

    /// Mark a node as failed. Returns the jobs that were running on it so
    /// the caller (backend) can requeue them; they are also recorded for
    /// [`ClusterState::take_evicted`].
    pub fn fail_node(&mut self, id: NodeId) -> Result<Vec<JobId>> {
        let node = self.nodes.get_mut(&id).ok_or(BloxError::UnknownNode(id))?;
        let was_alive = node.alive;
        node.alive = false;
        if was_alive {
            let node_total = node.spec.gpus;
            let free_here = self.free_by_node.remove(&id).map_or(0, |v| v.len() as u32);
            self.free_count -= free_here;
            self.live_gpus -= node_total;
            self.place_index.remove_node(id);
            self.churn_log.push(NodeEvent::Failed(id));
        }
        let mut evicted = Vec::new();
        for gid in self.node_gpus.get(&id).cloned().unwrap_or_default() {
            let gpu = self.gpus.get_mut(&gid).expect("node gpus exist");
            if let Some(job) = gpu.job.take() {
                if !evicted.contains(&job) {
                    evicted.push(job);
                    self.evicted.insert(job);
                }
                // Drop the GPU from the job's allocation index; the job may
                // keep shards on other (live) nodes.
                if let Some(owned) = self.job_gpus.get_mut(&job) {
                    owned.retain(|g| *g != gid);
                    if owned.is_empty() {
                        self.job_gpus.remove(&job);
                    }
                }
            }
            gpu.state = GpuState::Free;
            gpu.free_mem_gb = gpu.gpu_type.mem_gb();
        }
        Ok(evicted)
    }

    /// Restore a previously failed node to service.
    pub fn revive_node(&mut self, id: NodeId) -> Result<()> {
        let node = self.nodes.get_mut(&id).ok_or(BloxError::UnknownNode(id))?;
        if !node.alive {
            node.alive = true;
            self.live_gpus += node.spec.gpus;
            let ty = node.spec.gpu_type;
            let free: Vec<GpuGlobalId> = self
                .node_gpus
                .get(&id)
                .map(|gpus| {
                    gpus.iter()
                        .filter(|g| self.gpus[g].state == GpuState::Free)
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
            self.free_count += free.len() as u32;
            self.place_index.set_count(id, ty, free.len() as u32);
            self.free_by_node.insert(id, free);
            self.churn_log.push(NodeEvent::Revived(id));
        }
        Ok(())
    }

    /// Drain the node-liveness events recorded since the last call. The
    /// round loop folds these into the round's
    /// [`crate::delta::StateDelta`].
    pub fn take_churn(&mut self) -> Vec<NodeEvent> {
        std::mem::take(&mut self.churn_log)
    }

    /// Drain the jobs [`ClusterState::fail_node`] took GPUs from since the
    /// last call, in id order. Backends requeue from this set in Collect
    /// instead of scanning every running job for a lost GPU; a job in it
    /// may since have been released, suspended or relaunched, so callers
    /// re-check each one.
    pub fn take_evicted(&mut self) -> BTreeSet<JobId> {
        std::mem::take(&mut self.evicted)
    }

    /// Iterate over live nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values().filter(|n| n.alive)
    }

    /// Iterate over all nodes including failed ones.
    pub fn all_nodes(&self) -> impl Iterator<Item = &Node> {
        self.nodes.values()
    }

    /// Look up a node.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(&id)
    }

    /// Iterate over every GPU row — including rows on failed nodes — in
    /// global-id order. Snapshot encoding uses this; policies should use
    /// [`ClusterState::gpus`], which hides failed hardware.
    pub fn all_gpus(&self) -> impl Iterator<Item = &GpuRow> {
        self.gpus.values()
    }

    /// Iterate over GPU rows on live nodes in global-id order.
    pub fn gpus(&self) -> impl Iterator<Item = &GpuRow> {
        self.gpus
            .values()
            .filter(|g| self.nodes.get(&g.node).map(|n| n.alive).unwrap_or(false))
    }

    /// Look up one GPU row.
    pub fn gpu(&self, id: GpuGlobalId) -> Option<&GpuRow> {
        self.gpus.get(&id)
    }

    /// Total GPUs on live nodes. O(1) from the maintained count.
    pub fn total_gpus(&self) -> u32 {
        self.live_gpus
    }

    /// Free GPUs on live nodes, in global-id order.
    ///
    /// Allocates a fresh `Vec` per call; hot paths should use
    /// [`ClusterState::free_gpu_count`], [`ClusterState::free_gpus_on`],
    /// or the per-node free map behind
    /// [`crate::place_util::FreePool`] instead. Kept (hidden) for tests
    /// and setup code.
    #[doc(hidden)]
    pub fn free_gpus(&self) -> Vec<GpuGlobalId> {
        let mut all: Vec<GpuGlobalId> = self
            .free_by_node
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Count of free GPUs on live nodes. O(1) from the maintained count.
    pub fn free_gpu_count(&self) -> u32 {
        self.free_count
    }

    /// Free GPUs on one live node, ascending global id (which equals local
    /// order). Empty for dead or unknown nodes. O(log nodes), no
    /// allocation.
    pub fn free_gpus_on(&self, node: NodeId) -> &[GpuGlobalId] {
        self.free_by_node.get(&node).map_or(&[], |v| v.as_slice())
    }

    /// Free-GPU count on one live node; zero for dead or unknown nodes.
    pub fn free_count_on(&self, node: NodeId) -> u32 {
        self.free_by_node.get(&node).map_or(0, |v| v.len() as u32)
    }

    /// The per-live-node free-GPU map backing [`Self::free_gpus_on`];
    /// placement planners seed their scratch pools from it without
    /// scanning the GPU table.
    pub fn free_map(&self) -> &BTreeMap<NodeId, Vec<GpuGlobalId>> {
        &self.free_by_node
    }

    /// The bucketed placement index (live nodes grouped by free-GPU
    /// count); [`crate::place_util::FreePool`] clones it per round so
    /// every pick strategy answers its node queries in O(log buckets)
    /// instead of scanning the free map.
    pub fn place_index(&self) -> &PlacementIndex {
        &self.place_index
    }

    /// All GPUs currently assigned to `job`, in global-id order.
    /// O(log jobs), no allocation.
    pub fn gpus_of_job(&self, job: JobId) -> &[GpuGlobalId] {
        self.job_gpus.get(&job).map_or(&[], |v| v.as_slice())
    }

    /// Number of GPUs currently assigned to `job`.
    pub fn job_gpu_count(&self, job: JobId) -> usize {
        self.job_gpus.get(&job).map_or(0, |v| v.len())
    }

    /// Whether an allocation fits entirely on one node.
    pub fn is_consolidated(&self, gpus: &[GpuGlobalId]) -> bool {
        let mut nodes = gpus.iter().filter_map(|g| self.gpus.get(g)).map(|g| g.node);
        match nodes.next() {
            None => true,
            Some(first) => nodes.all(|n| n == first),
        }
    }

    /// The set of distinct nodes an allocation touches.
    pub fn nodes_of(&self, gpus: &[GpuGlobalId]) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = gpus
            .iter()
            .filter_map(|g| self.gpus.get(g))
            .map(|g| g.node)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Lowest cross-node interconnect bandwidth among the nodes of an
    /// allocation (Gbps); `f64::INFINITY` for consolidated allocations.
    pub fn alloc_inter_bw(&self, gpus: &[GpuGlobalId]) -> f64 {
        let nodes = self.nodes_of(gpus);
        if nodes.len() <= 1 {
            return f64::INFINITY;
        }
        nodes
            .iter()
            .filter_map(|n| self.nodes.get(n))
            .map(|n| n.spec.inter_bw_gbps)
            .fold(f64::INFINITY, f64::min)
    }

    /// Mean pairwise intra-node bandwidth (Gbps) over the GPUs of an
    /// allocation that share a node. Returns `None` for single-GPU
    /// allocations. This is the metric reported in paper Table 4.
    pub fn alloc_intra_bw(&self, gpus: &[GpuGlobalId]) -> Option<f64> {
        let rows: Vec<&GpuRow> = gpus.iter().filter_map(|g| self.gpus.get(g)).collect();
        let mut sum = 0.0;
        let mut pairs = 0u32;
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                if rows[i].node == rows[j].node {
                    let spec = &self.nodes[&rows[i].node].spec;
                    sum += spec.intra_bw(rows[i].local, rows[j].local);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            None
        } else {
            Some(sum / pairs as f64)
        }
    }

    /// Assign a set of GPUs (and per-GPU host resources) to a job.
    ///
    /// Fails without mutating anything if any GPU is busy or unknown.
    pub fn allocate(&mut self, job: JobId, gpus: &[GpuGlobalId], mem_gb: f64) -> Result<()> {
        for g in gpus {
            let row = self.gpus.get(g).ok_or(BloxError::UnknownGpu(*g))?;
            if row.state == GpuState::Busy {
                return Err(BloxError::GpuBusy(*g, job));
            }
        }
        for g in gpus {
            let row = self.gpus.get_mut(g).expect("validated above");
            row.state = GpuState::Busy;
            row.job = Some(job);
            row.free_mem_gb = (row.gpu_type.mem_gb() - mem_gb).max(0.0);
            // Free list / count track live nodes only; a dead node has no
            // free-list entry and its GPUs were never counted.
            let (node, ty) = (row.node, row.gpu_type);
            if let Some(free) = self.free_by_node.get_mut(&node) {
                if let Ok(pos) = free.binary_search(g) {
                    free.remove(pos);
                    self.free_count -= 1;
                    self.place_index.set_count(node, ty, free.len() as u32);
                }
            }
        }
        let owned = self.job_gpus.entry(job).or_default();
        owned.extend_from_slice(gpus);
        owned.sort_unstable();
        // A malformed plan may repeat a GPU id; the row mutation above is
        // idempotent, so keep the allocation index set-shaped too.
        owned.dedup();
        Ok(())
    }

    /// Release every GPU owned by `job`; returns the freed GPU ids in
    /// global-id order. O(GPUs of the job) via the allocation index.
    pub fn release(&mut self, job: JobId) -> Vec<GpuGlobalId> {
        let freed = self.job_gpus.remove(&job).unwrap_or_default();
        for g in &freed {
            let row = self.gpus.get_mut(g).expect("indexed gpus exist");
            row.job = None;
            row.state = GpuState::Free;
            row.free_mem_gb = row.gpu_type.mem_gb();
            let (node, ty) = (row.node, row.gpu_type);
            if let Some(free) = self.free_by_node.get_mut(&node) {
                if let Err(pos) = free.binary_search(g) {
                    free.insert(pos, *g);
                    self.free_count += 1;
                    self.place_index.set_count(node, ty, free.len() as u32);
                }
            }
        }
        freed
    }

    /// Reserve host CPU / DRAM on a node (Synergy accounting). Values clamp
    /// at zero; Synergy's policy checks availability before placing.
    pub fn reserve_host(&mut self, node: NodeId, cpus: f64, dram_gb: f64) -> Result<()> {
        let n = self
            .nodes
            .get_mut(&node)
            .ok_or(BloxError::UnknownNode(node))?;
        n.free_cpu_cores = (n.free_cpu_cores - cpus).max(0.0);
        n.free_dram_gb = (n.free_dram_gb - dram_gb).max(0.0);
        Ok(())
    }

    /// Return host CPU / DRAM on a node.
    pub fn release_host(&mut self, node: NodeId, cpus: f64, dram_gb: f64) -> Result<()> {
        let n = self
            .nodes
            .get_mut(&node)
            .ok_or(BloxError::UnknownNode(node))?;
        n.free_cpu_cores = (n.free_cpu_cores + cpus).min(n.spec.cpu_cores as f64);
        n.free_dram_gb = (n.free_dram_gb + dram_gb).min(n.spec.dram_gb);
        Ok(())
    }

    /// The id-allocation counters `(next_node, next_gpu)`; snapshot
    /// encoding persists them so a restored cluster keeps assigning fresh
    /// ids above everything it has ever seen.
    pub(crate) fn id_counters(&self) -> (u32, u32) {
        (self.next_node, self.next_gpu)
    }

    /// Rebuild a cluster from snapshot parts. The inverse of walking
    /// [`ClusterState::all_nodes`] / [`ClusterState::all_gpus`] plus
    /// [`ClusterState::id_counters`]; used only by snapshot decoding.
    /// Snapshots carry the source of truth only — the indexes are
    /// re-derived here.
    pub(crate) fn from_snapshot_parts(
        nodes: Vec<Node>,
        gpus: Vec<GpuRow>,
        next_node: u32,
        next_gpu: u32,
    ) -> Self {
        let mut cluster = ClusterState {
            nodes: nodes.into_iter().map(|n| (n.id, n)).collect(),
            gpus: gpus.into_iter().map(|g| (g.id, g)).collect(),
            next_node,
            next_gpu,
            ..ClusterState::default()
        };
        cluster.rebuild_indexes();
        cluster
    }

    /// Recompute every maintained index from the node/GPU tables. Used by
    /// snapshot decoding; [`Self::check_invariants`] uses the same
    /// derivation to audit the incremental maintenance.
    fn rebuild_indexes(&mut self) {
        let (free_by_node, free_count, live_gpus, job_gpus, node_gpus) = self.derive_indexes();
        self.place_index = PlacementIndex::derive(&free_by_node, |n| self.nodes[&n].spec.gpu_type);
        self.free_by_node = free_by_node;
        self.free_count = free_count;
        self.live_gpus = live_gpus;
        self.job_gpus = job_gpus;
        self.node_gpus = node_gpus;
    }

    /// Derive all indexes from scratch by scanning the GPU table.
    #[allow(clippy::type_complexity)]
    fn derive_indexes(
        &self,
    ) -> (
        BTreeMap<NodeId, Vec<GpuGlobalId>>,
        u32,
        u32,
        BTreeMap<JobId, Vec<GpuGlobalId>>,
        BTreeMap<NodeId, Vec<GpuGlobalId>>,
    ) {
        let mut free_by_node: BTreeMap<NodeId, Vec<GpuGlobalId>> = self
            .nodes
            .values()
            .filter(|n| n.alive)
            .map(|n| (n.id, Vec::new()))
            .collect();
        let mut free_count = 0u32;
        let mut live_gpus = 0u32;
        let mut job_gpus: BTreeMap<JobId, Vec<GpuGlobalId>> = BTreeMap::new();
        let mut node_gpus: BTreeMap<NodeId, Vec<GpuGlobalId>> =
            self.nodes.values().map(|n| (n.id, Vec::new())).collect();
        for row in self.gpus.values() {
            if let Some(list) = node_gpus.get_mut(&row.node) {
                list.push(row.id);
            }
            let alive = self.nodes.get(&row.node).map(|n| n.alive).unwrap_or(false);
            if alive {
                live_gpus += 1;
                if row.state == GpuState::Free {
                    free_count += 1;
                    free_by_node.entry(row.node).or_default().push(row.id);
                }
            }
            if let Some(job) = row.job {
                job_gpus.entry(job).or_default().push(row.id);
            }
        }
        (free_by_node, free_count, live_gpus, job_gpus, node_gpus)
    }

    /// Verify internal invariants; used by tests and debug assertions.
    ///
    /// Checks that busy GPUs carry a job, free GPUs don't, that no two
    /// rows disagree about which node a GPU lives on, and that every
    /// maintained index matches a from-scratch derivation over the GPU
    /// table (the indexes are pure acceleration — any drift is a bug).
    pub fn check_invariants(&self) -> Result<()> {
        for row in self.gpus.values() {
            match (row.state, row.job) {
                (GpuState::Busy, None) => {
                    return Err(BloxError::Config(format!("{} busy without job", row.id)))
                }
                (GpuState::Free, Some(j)) => {
                    return Err(BloxError::Config(format!(
                        "{} free but owned by {j}",
                        row.id
                    )))
                }
                _ => {}
            }
            if !self.nodes.contains_key(&row.node) {
                return Err(BloxError::UnknownNode(row.node));
            }
        }
        let (free_by_node, free_count, live_gpus, job_gpus, node_gpus) = self.derive_indexes();
        if free_by_node != self.free_by_node {
            return Err(BloxError::Config("free-list index out of sync".into()));
        }
        let place_index = PlacementIndex::derive(&free_by_node, |n| self.nodes[&n].spec.gpu_type);
        if place_index != self.place_index {
            return Err(BloxError::Config(
                "placement bucket index out of sync".into(),
            ));
        }
        if free_count != self.free_count {
            return Err(BloxError::Config(format!(
                "free count index {} != derived {free_count}",
                self.free_count
            )));
        }
        if live_gpus != self.live_gpus {
            return Err(BloxError::Config(format!(
                "live-gpu count index {} != derived {live_gpus}",
                self.live_gpus
            )));
        }
        if job_gpus != self.job_gpus {
            return Err(BloxError::Config("job-allocation index out of sync".into()));
        }
        if node_gpus != self.node_gpus {
            return Err(BloxError::Config("node-gpu index out of sync".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    #[test]
    fn add_nodes_populates_gpu_table() {
        let c = cluster(2);
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.free_gpu_count(), 8);
        let gpus: Vec<_> = c.gpus().collect();
        assert_eq!(gpus[0].node, NodeId(0));
        assert_eq!(gpus[7].node, NodeId(1));
        assert_eq!(gpus[5].local, 1);
    }

    #[test]
    fn allocate_and_release_roundtrip() {
        let mut c = cluster(1);
        let free = c.free_gpus();
        c.allocate(JobId(1), &free[..2], 4.0).unwrap();
        assert_eq!(c.free_gpu_count(), 2);
        assert_eq!(c.gpus_of_job(JobId(1)).len(), 2);
        c.check_invariants().unwrap();
        let freed = c.release(JobId(1));
        assert_eq!(freed.len(), 2);
        assert_eq!(c.free_gpu_count(), 4);
        c.check_invariants().unwrap();
    }

    #[test]
    fn double_allocation_fails_atomically() {
        let mut c = cluster(1);
        let free = c.free_gpus();
        c.allocate(JobId(1), &free[..2], 4.0).unwrap();
        let err = c.allocate(JobId(2), &free[1..3], 4.0).unwrap_err();
        assert!(matches!(err, BloxError::GpuBusy(_, _)));
        // The non-conflicting GPU must not have been taken.
        assert_eq!(c.free_gpu_count(), 2);
    }

    #[test]
    fn duplicate_gpu_in_one_allocation_keeps_indexes_consistent() {
        // A malformed plan repeating a GPU id was harmless under the old
        // scan-based implementation; the allocation index must stay
        // set-shaped too.
        let mut c = cluster(1);
        let free = c.free_gpus();
        c.allocate(JobId(1), &[free[0], free[0]], 4.0).unwrap();
        assert_eq!(c.gpus_of_job(JobId(1)), &[free[0]]);
        assert_eq!(c.job_gpu_count(JobId(1)), 1);
        assert_eq!(c.free_gpu_count(), 3);
        c.check_invariants().unwrap();
        assert_eq!(c.release(JobId(1)), vec![free[0]]);
        assert_eq!(c.free_gpu_count(), 4);
        c.check_invariants().unwrap();
    }

    #[test]
    fn consolidation_detection() {
        let mut c = cluster(2);
        let free = c.free_gpus();
        assert!(c.is_consolidated(&free[..4]));
        assert!(!c.is_consolidated(&free[2..6]));
        c.allocate(JobId(1), &free[2..6], 4.0).unwrap();
        assert_eq!(c.nodes_of(c.gpus_of_job(JobId(1))).len(), 2);
    }

    #[test]
    fn node_failure_evicts_jobs_and_hides_gpus() {
        let mut c = cluster(2);
        let free = c.free_gpus();
        c.allocate(JobId(9), &free[..2], 4.0).unwrap();
        let evicted = c.fail_node(NodeId(0)).unwrap();
        assert_eq!(evicted, vec![JobId(9)]);
        assert_eq!(c.take_evicted().into_iter().collect::<Vec<_>>(), evicted);
        assert!(c.take_evicted().is_empty(), "the eviction log drains");
        assert_eq!(c.total_gpus(), 4);
        c.revive_node(NodeId(0)).unwrap();
        assert_eq!(c.total_gpus(), 8);
        assert_eq!(c.free_gpu_count(), 8);
    }

    #[test]
    fn intra_node_bandwidth_is_asymmetric_on_p3() {
        let spec = NodeSpec::v100_p3_8xlarge();
        assert_eq!(spec.intra_bw(0, 3), 100.0);
        assert_eq!(spec.intra_bw(0, 1), 50.0);
        assert_eq!(spec.intra_bw(1, 2), 100.0);
    }

    #[test]
    fn alloc_intra_bw_reports_pair_average() {
        let mut c = cluster(1);
        let free = c.free_gpus();
        // GPUs 0 and 3: the high-bandwidth NVLink pair.
        let pair = vec![free[0], free[3]];
        assert_eq!(c.alloc_intra_bw(&pair), Some(100.0));
        let pair_low = vec![free[0], free[1]];
        assert_eq!(c.alloc_intra_bw(&pair_low), Some(50.0));
        c.allocate(JobId(1), &pair, 4.0).unwrap();
        assert!(c.alloc_intra_bw(&[free[0]]).is_none());
    }

    #[test]
    fn host_resource_accounting_clamps() {
        let mut c = cluster(1);
        c.reserve_host(NodeId(0), 16.0, 100.0).unwrap();
        let n = c.node(NodeId(0)).unwrap();
        assert_eq!(n.free_cpu_cores, 16.0);
        c.release_host(NodeId(0), 100.0, 1000.0).unwrap();
        let n = c.node(NodeId(0)).unwrap();
        assert_eq!(n.free_cpu_cores, 32.0);
        assert_eq!(n.free_dram_gb, 244.0);
    }

    #[test]
    fn inter_bw_of_spread_alloc() {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 2);
        let free = c.free_gpus();
        assert_eq!(c.alloc_inter_bw(&[free[0], free[4]]), 10.0);
        assert!(c.alloc_inter_bw(&free[..2]).is_infinite());
    }
}
