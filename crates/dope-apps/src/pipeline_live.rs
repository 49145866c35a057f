//! Generic live stage pipeline (ferret/dedup shape).
//!
//! Builds a DoPE descriptor for a single-level pipeline: stages connected
//! by replica-local queues, a shared source queue in front, and the
//! completion sink at the end. The drain protocol follows the paper's
//! `FiniCB` idiom: the last worker of a stage to exit closes the next
//! queue, so downstream stages finish their residual work before
//! suspending — a globally consistent state.

use crate::service::{stage_step, ServiceStats};
use dope_core::{
    NestFactory, QueueStats, TaskBody, TaskCx, TaskKind, TaskSpec, TaskStatus, WorkerSlot,
};
use dope_workload::WorkQueue;
use std::any::Any;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// An item flowing through the pipeline.
pub struct PipeItem {
    /// Item id.
    pub id: u64,
    /// Submission time.
    pub submitted: Instant,
    /// Stage-specific payload.
    pub payload: Box<dyn Any + Send>,
}

impl std::fmt::Debug for PipeItem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipeItem")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl PipeItem {
    /// An item wrapping `payload`.
    #[must_use]
    pub fn new(id: u64, payload: Box<dyn Any + Send>) -> Self {
        PipeItem {
            id,
            submitted: Instant::now(),
            payload,
        }
    }
}

/// Definition of one pipeline stage.
#[derive(Clone)]
pub struct StageDef {
    /// Stage name.
    pub name: String,
    /// Sequential or parallel.
    pub kind: TaskKind,
    /// Extent cap, if any.
    pub max_extent: Option<u32>,
    /// The stage's transformation.
    pub work: Arc<dyn Fn(PipeItem) -> PipeItem + Send + Sync>,
}

impl std::fmt::Debug for StageDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StageDef")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl StageDef {
    /// A sequential stage.
    pub fn seq<F>(name: &str, work: F) -> Self
    where
        F: Fn(PipeItem) -> PipeItem + Send + Sync + 'static,
    {
        StageDef {
            name: name.to_string(),
            kind: TaskKind::Seq,
            max_extent: Some(1),
            work: Arc::new(work),
        }
    }

    /// A parallel stage.
    pub fn par<F>(name: &str, work: F) -> Self
    where
        F: Fn(PipeItem) -> PipeItem + Send + Sync + 'static,
    {
        StageDef {
            name: name.to_string(),
            kind: TaskKind::Par,
            max_extent: None,
            work: Arc::new(work),
        }
    }
}

/// A live pipeline application: its source queue and statistics sink.
#[derive(Debug)]
pub struct LivePipeline {
    /// Items enter here.
    pub source: WorkQueue<PipeItem>,
    /// Completions are recorded here.
    pub stats: Arc<ServiceStats>,
}

impl Default for LivePipeline {
    fn default() -> Self {
        LivePipeline::new()
    }
}

impl LivePipeline {
    /// A fresh pipeline harness.
    #[must_use]
    pub fn new() -> Self {
        LivePipeline {
            source: WorkQueue::new(),
            stats: ServiceStats::new(),
        }
    }

    /// The DoPE descriptor: a nest named `name` whose alternatives are
    /// the given stage lists (alternative 1, when present, is the fused
    /// variant registered for TBF).
    #[must_use]
    pub fn descriptor(&self, name: &str, alternatives: Vec<Vec<StageDef>>) -> Vec<TaskSpec> {
        assert!(!alternatives.is_empty(), "pipeline needs one descriptor");
        let factories: Vec<Arc<dyn NestFactory>> = alternatives
            .into_iter()
            .map(|stages| {
                let source = self.source.clone();
                let stats = Arc::clone(&self.stats);
                Arc::new(move |_replica: u32| {
                    build_stage_specs(&stages, source.clone(), Arc::clone(&stats))
                }) as Arc<dyn NestFactory>
            })
            .collect();
        vec![TaskSpec::nest_choice(name, TaskKind::Par, factories).with_max_extent(1)]
    }

    /// A probe for `DopeBuilder::queue_probe`.
    pub fn queue_probe(&self) -> impl Fn() -> QueueStats + Send + Sync + 'static {
        crate::service::queue_probe(&self.source, &self.stats)
    }
}

enum StageOut {
    Queue(WorkQueue<PipeItem>),
    Sink(Arc<ServiceStats>),
}

fn build_stage_specs(
    stages: &[StageDef],
    source: WorkQueue<PipeItem>,
    stats: Arc<ServiceStats>,
) -> Vec<TaskSpec> {
    let n = stages.len();
    let queues: Vec<WorkQueue<PipeItem>> =
        (0..n.saturating_sub(1)).map(|_| WorkQueue::new()).collect();
    stages
        .iter()
        .enumerate()
        .map(|(s, def)| {
            let input = if s == 0 {
                source.clone()
            } else {
                queues[s - 1].clone()
            };
            let output = if s + 1 < n {
                StageOut::Queue(queues[s].clone())
            } else {
                StageOut::Sink(Arc::clone(&stats))
            };
            stage_spec(def, s == 0, input, output)
        })
        .collect()
}

fn stage_spec(
    def: &StageDef,
    is_inlet: bool,
    input: WorkQueue<PipeItem>,
    output: StageOut,
) -> TaskSpec {
    let work = Arc::clone(&def.work);
    let active = Arc::new(AtomicU32::new(0));
    let output = Arc::new(output);
    let load_q = input.clone();
    let mut spec = TaskSpec::leaf(def.name.clone(), def.kind, move |_slot: WorkerSlot| {
        Box::new(StageBody {
            input: input.clone(),
            output: Arc::clone(&output),
            work: Arc::clone(&work),
            active: Arc::clone(&active),
            is_inlet,
        }) as Box<dyn TaskBody>
    })
    .with_load(move || load_q.occupancy());
    if let Some(cap) = def.max_extent {
        spec = spec.with_max_extent(cap);
    }
    spec
}

struct StageBody {
    input: WorkQueue<PipeItem>,
    output: Arc<StageOut>,
    work: Arc<dyn Fn(PipeItem) -> PipeItem + Send + Sync>,
    active: Arc<AtomicU32>,
    is_inlet: bool,
}

impl TaskBody for StageBody {
    fn init(&mut self) {
        self.active.fetch_add(1, Ordering::AcqRel);
    }

    fn invoke(&mut self, cx: &mut dyn TaskCx) -> TaskStatus {
        // Only the inlet honours the suspend directive directly; inner
        // stages drain until their queue closes (paper §3.2 step 5).
        stage_step(cx, self.is_inlet, &self.input, |item| {
            let item = (self.work)(item);
            match &*self.output {
                StageOut::Queue(q) => {
                    let _ = q.enqueue(item);
                }
                StageOut::Sink(stats) => stats.record_completion(item.submitted),
            }
        })
    }

    fn fini(&mut self, _status: TaskStatus) {
        // Last worker out closes the downstream queue so the next stage
        // drains and terminates (the paper's sentinel cascade).
        if self.active.fetch_sub(1, Ordering::AcqRel) == 1 {
            if let StageOut::Queue(q) = &*self.output {
                q.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dope_core::{ProgramShape, Work};

    fn passthrough(name: &str) -> StageDef {
        StageDef::par(name, |item| item)
    }

    #[test]
    fn descriptor_exposes_alternatives() {
        let pipe = LivePipeline::new();
        let specs = pipe.descriptor(
            "ferret",
            vec![
                vec![
                    StageDef::seq("load", |i| i),
                    passthrough("seg"),
                    StageDef::seq("out", |i| i),
                ],
                vec![StageDef::seq("load", |i| i), passthrough("fused")],
            ],
        );
        let shape = ProgramShape::of_specs(&specs);
        assert_eq!(shape.tasks[0].alternatives.len(), 2);
        assert_eq!(shape.tasks[0].alternatives[0].len(), 3);
        assert_eq!(shape.tasks[0].alternatives[1].len(), 2);
        assert_eq!(shape.tasks[0].max_extent, Some(1));
    }

    #[test]
    fn stages_pass_items_to_sink() {
        let pipe = LivePipeline::new();
        let doubled = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&doubled);
        let stages = vec![
            StageDef::seq("in", |i| i),
            StageDef::par("work", move |item| {
                d.fetch_add(1, Ordering::SeqCst);
                item
            }),
        ];
        let specs = build_stage_specs(&stages, pipe.source.clone(), Arc::clone(&pipe.stats));
        // Run bodies manually: enqueue two items, drain.
        pipe.source.enqueue(PipeItem::new(0, Box::new(()))).unwrap();
        pipe.source.enqueue(PipeItem::new(1, Box::new(()))).unwrap();
        pipe.source.close();
        let mut bodies: Vec<Box<dyn TaskBody>> = specs
            .iter()
            .map(|s| match s.work() {
                Work::Leaf(f) => f.make_body(WorkerSlot { worker: 0 }),
                Work::Nest(_) => unreachable!(),
            })
            .collect();
        let mut cx = dope_core::task::NullCx;
        for b in &mut bodies {
            b.init();
        }
        // Inlet drains the source, then its fini closes the next queue.
        while bodies[0].invoke(&mut cx) == TaskStatus::Executing {}
        bodies[0].fini(TaskStatus::Finished);
        while bodies[1].invoke(&mut cx) == TaskStatus::Executing {}
        bodies[1].fini(TaskStatus::Finished);
        assert_eq!(doubled.load(Ordering::SeqCst), 2);
        assert_eq!(pipe.stats.completed(), 2);
    }

    #[test]
    fn queue_probe_reports_source() {
        let pipe = LivePipeline::new();
        pipe.source
            .enqueue(PipeItem::new(0, Box::new(5u32)))
            .unwrap();
        let probe = pipe.queue_probe();
        assert_eq!(probe().occupancy, 1.0);
    }
}
