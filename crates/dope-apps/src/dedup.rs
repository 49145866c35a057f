//! The deduplication application (dedup).
//!
//! A single-level five-stage pipeline: fragment (SEQ), refine, dedup,
//! compress (all PAR), write (SEQ). Its stages are cache-sensitive, so
//! oversubscription *hurts* (the paper's Pthreads-OS reaches only 0.89x
//! of the baseline, Figure 15); the fused task is 113 LoC in Table 4.

use crate::kernels::chunks::{content_hash, fragment, Chunk};
use crate::kernels::compress::compress_block;
use crate::pipeline_live::{LivePipeline, PipeItem, StageDef};
use crate::AppInfo;
use dope_sim::pipeline::{PipelineModel, StageProfile};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// Table 4 metadata.
#[must_use]
pub fn info() -> AppInfo {
    AppInfo {
        name: "dedup",
        description: "Deduplication of PARSEC native input",
        loop_nest_levels: 1,
        inner_dop_min: None,
    }
}

/// Calibrated simulator model. The parallel stages are roughly balanced
/// (so the even static split is already decent and oversubscription's
/// elasticity buys nothing), and the stages forward large chunk lists, so
/// the fused task — which keeps a transaction's data local to one worker
/// — runs 35% faster than the sum of its parts. That is the behaviour
/// behind Figure 15's dedup column: Pthreads-OS *loses* (0.89x) while
/// DoPE-TBF wins through fusion.
#[must_use]
pub fn sim_model() -> PipelineModel {
    let refine = 0.011;
    let dedup = 0.012;
    let compress = 0.014;
    PipelineModel::new(
        "dedup",
        vec![
            StageProfile::seq("fragment", 0.0008),
            StageProfile::par("refine", refine),
            StageProfile::par("dedup", dedup),
            StageProfile::par("compress", compress),
            StageProfile::seq("write", 0.0008),
        ],
    )
    .with_fused(vec![
        StageProfile::seq("fragment", 0.0008),
        StageProfile::par("fused", (refine + dedup + compress) * FUSION_SAVINGS),
        StageProfile::seq("write", 0.0008),
    ])
    .with_forward_overhead(0.0002)
}

/// Service-time fraction the fused task keeps: fusing removes the
/// inter-stage forwarding of chunk lists (memory-bound traffic).
pub const FUSION_SAVINGS: f64 = 0.65;

/// The fractional oversubscription service-time penalty appropriate for
/// dedup's cache-sensitive stages (used by the Figure 15 harness): with
/// ~74 runnable workers on 24 contexts, cache pollution and context
/// switching dilate every service by ~20%.
pub const OVERSUB_PENALTY: f64 = 0.20;

/// Payload states along the live pipeline.
mod payload {
    use super::Chunk;

    pub struct Stream(pub Vec<u8>);
    pub struct Chunks(pub Vec<Chunk>);
    pub struct Hashed(pub Vec<(u64, Chunk)>);
    pub struct Deduped {
        pub unique: Vec<Chunk>,
        pub duplicates: usize,
    }
    pub struct Written(pub usize);
}

/// Builds the live dedup pipeline, returning the harness, descriptor, and
/// the shared chunk store (for assertions).
#[must_use]
pub fn live_pipeline() -> (
    LivePipeline,
    Vec<dope_core::TaskSpec>,
    Arc<Mutex<HashSet<u64>>>,
) {
    let pipe = LivePipeline::new();
    let store: Arc<Mutex<HashSet<u64>>> = Arc::new(Mutex::new(HashSet::new()));

    let frag = StageDef::seq("fragment", |item: PipeItem| {
        let stream = item
            .payload
            .downcast::<payload::Stream>()
            .expect("fragment receives a stream");
        let chunks = fragment(&stream.0, 256, 4096, 0x7F);
        PipeItem {
            payload: Box::new(payload::Chunks(chunks)),
            id: item.id,
            submitted: item.submitted,
        }
    });
    let refine = StageDef::par("refine", |item: PipeItem| {
        let coarse = item
            .payload
            .downcast::<payload::Chunks>()
            .expect("refine receives chunks");
        let fine: Vec<Chunk> = coarse
            .0
            .iter()
            .flat_map(|c| {
                fragment(&c.data, 64, 1024, 0x3F)
                    .into_iter()
                    .map(move |mut f| {
                        f.offset += c.offset;
                        f
                    })
            })
            .collect();
        let hashed = fine
            .into_iter()
            .map(|c| (content_hash(&c.data), c))
            .collect();
        PipeItem {
            payload: Box::new(payload::Hashed(hashed)),
            id: item.id,
            submitted: item.submitted,
        }
    });
    let store_stage = Arc::clone(&store);
    let dedup = StageDef::par("dedup", move |item: PipeItem| {
        let hashed = item
            .payload
            .downcast::<payload::Hashed>()
            .expect("dedup receives hashes");
        let mut unique = Vec::new();
        let mut duplicates = 0usize;
        {
            let mut seen = store_stage.lock();
            for (hash, chunk) in hashed.0 {
                if seen.insert(hash) {
                    unique.push(chunk);
                } else {
                    duplicates += 1;
                }
            }
        }
        PipeItem {
            payload: Box::new(payload::Deduped { unique, duplicates }),
            id: item.id,
            submitted: item.submitted,
        }
    });
    let compress = StageDef::par("compress", |item: PipeItem| {
        let deduped = item
            .payload
            .downcast::<payload::Deduped>()
            .expect("compress receives deduped chunks");
        std::hint::black_box(deduped.duplicates);
        let bytes: usize = deduped
            .unique
            .iter()
            .map(|c| compress_block(&c.data).len())
            .sum();
        PipeItem {
            payload: Box::new(payload::Written(bytes)),
            id: item.id,
            submitted: item.submitted,
        }
    });
    let write = StageDef::seq("write", |item: PipeItem| {
        if let Some(written) = item.payload.downcast_ref::<payload::Written>() {
            std::hint::black_box(written.0);
        }
        item
    });

    // Fused: refine + dedup + compress in one parallel task.
    let store_fused = Arc::clone(&store);
    let fused = StageDef::par("fused", move |item: PipeItem| {
        let coarse = item
            .payload
            .downcast::<payload::Chunks>()
            .expect("fused receives chunks");
        let mut bytes = 0usize;
        for c in &coarse.0 {
            for f in fragment(&c.data, 64, 1024, 0x3F) {
                let h = content_hash(&f.data);
                let fresh = store_fused.lock().insert(h);
                if fresh {
                    bytes += compress_block(&f.data).len();
                }
            }
        }
        PipeItem {
            payload: Box::new(payload::Written(bytes)),
            id: item.id,
            submitted: item.submitted,
        }
    });

    let frag2 = frag.clone();
    let write2 = write.clone();
    let descriptor = pipe.descriptor(
        "dedup",
        vec![
            vec![frag, refine, dedup, compress, write],
            vec![frag2, fused, write2],
        ],
    );
    (pipe, descriptor, store)
}

/// Submits `count` stream segments of `segment_len` bytes with the given
/// duplication ratio.
pub fn submit_streams(pipe: &LivePipeline, count: u64, segment_len: usize, duplication: f64) {
    use crate::kernels::chunks::synthetic_stream;
    for id in 0..count {
        let stream = synthetic_stream(segment_len, duplication, id);
        let _ = pipe
            .source
            .enqueue(PipeItem::new(id, Box::new(payload::Stream(stream))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_model_structure() {
        let m = sim_model();
        assert_eq!(m.stages(0).len(), 5);
        assert_eq!(m.stages(1).len(), 3);
        let fused_sum: f64 = m.stages(0)[1..4].iter().map(|s| s.mean_service_secs).sum();
        let fused = m.stages(1)[1].mean_service_secs;
        assert!((fused - fused_sum * FUSION_SAVINGS).abs() < 1e-9);
    }

    #[test]
    fn live_descriptor_builds() {
        let (_pipe, descriptor, _store) = live_pipeline();
        let shape = dope_core::ProgramShape::of_specs(&descriptor);
        assert_eq!(shape.tasks[0].alternatives[0].len(), 5);
        assert_eq!(shape.tasks[0].alternatives[1].len(), 3);
    }

    #[test]
    fn stages_compose_to_dedup_a_stream() {
        use dope_core::task::NullCx;
        use dope_core::{TaskBody, TaskStatus, Work, WorkerSlot};
        let (pipe, descriptor, store) = live_pipeline();
        submit_streams(&pipe, 2, 20_000, 0.6);
        pipe.source.close();
        // Drive the unfused alternative manually, one worker per stage.
        let factories = match descriptor[0].work() {
            Work::Nest(alts) => alts[0].make_nest(0),
            Work::Leaf(_) => unreachable!(),
        };
        let mut bodies: Vec<Box<dyn TaskBody>> = factories
            .iter()
            .map(|s| match s.work() {
                Work::Leaf(f) => f.make_body(WorkerSlot { worker: 0 }),
                Work::Nest(_) => unreachable!(),
            })
            .collect();
        let mut cx = NullCx;
        for b in &mut bodies {
            b.init();
        }
        for b in &mut bodies {
            while b.invoke(&mut cx) == TaskStatus::Executing {}
            b.fini(TaskStatus::Finished);
        }
        assert_eq!(pipe.stats.completed(), 2);
        assert!(!store.lock().is_empty(), "chunks were stored");
    }
}
