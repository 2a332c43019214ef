//! Heap-allocation counting for the benchmark suite.
//!
//! Behind the `count-allocs` feature this module installs a global
//! allocator that wraps the system allocator and counts every
//! allocation, letting the trajectory report **allocations per
//! operation** and this module's tests gate the zero-copy codec's "no
//! per-message heap allocation in steady state" claim (DESIGN.md §10,
//! §12, §16) — timing belongs to the wall-clock ledger, allocation counts
//! are exact and belong here. It also keeps a per-thread balance of live
//! heap bytes, which gates what a protocol instance holds (DESIGN.md
//! §14). Without the feature the module compiles to a no-op whose probes
//! report `None` (the gates then pass vacuously), so callers need no
//! `cfg` of their own and the default build keeps the workspace-wide
//! `unsafe` ban.
//!
//! ```text
//! cargo test -p urb-bench --features count-allocs
//! ```

/// Number of heap allocations observed so far by the counting allocator,
/// or `None` when the `count-allocs` feature is off.
pub fn allocation_count() -> Option<u64> {
    imp::current()
}

/// Runs `f` and returns `(result, allocations performed while f ran)` —
/// by **every** thread, so work `f` fans out to a pool is counted (and so
/// is whatever unrelated threads did meanwhile). The count is `None` when
/// the `count-allocs` feature is off.
pub fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = allocation_count();
    let out = f();
    let after = allocation_count();
    (out, before.zip(after).map(|(b, a)| a - b))
}

/// Runs `f` and returns `(result, allocations performed by the calling
/// thread)` — exact for single-threaded code whatever the rest of the
/// process is doing, which is what a "this path allocates nothing" gate
/// needs when the test harness runs other tests beside it. `None` when
/// the `count-allocs` feature is off.
pub fn count_thread_allocations<T>(f: impl FnOnce() -> T) -> (T, Option<u64>) {
    let before = imp::current_thread();
    let out = f();
    let after = imp::current_thread();
    (out, before.zip(after).map(|(b, a)| a - b))
}

/// Runs `f` and returns `(result, (bytes, blocks) of heap the calling
/// thread allocated and did not free while f ran)`: what the result holds,
/// when `f` builds it and drops everything else. Requested sizes, not the
/// allocator's rounded-up blocks. `None` when the `count-allocs` feature
/// is off.
#[cfg(test)]
fn count_thread_live_heap<T>(f: impl FnOnce() -> T) -> (T, Option<(i64, i64)>) {
    let before = imp::live_thread_heap();
    let out = f();
    let after = imp::live_thread_heap();
    (out, before.zip(after).map(|(b, a)| (a.0 - b.0, a.1 - b.1)))
}

#[cfg(feature = "count-allocs")]
#[allow(unsafe_code)]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Const-initialised and without a destructor, so touching them
        // from inside the allocator neither allocates nor registers
        // anything.
        static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        static THREAD_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
        static THREAD_LIVE_BLOCKS: Cell<i64> = const { Cell::new(0) };
    }

    fn count_one() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // `try_with`: an allocation during thread teardown is not counted
        // per thread rather than panicking inside the allocator.
        let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    }

    /// Moves the calling thread's live-byte balance by `grown - freed`.
    fn count_bytes(grown: usize, freed: usize) {
        let delta = grown as i64 - freed as i64;
        let _ = THREAD_LIVE_BYTES.try_with(|c| c.set(c.get() + delta));
    }

    /// Moves the calling thread's live-block balance by `delta`.
    fn count_blocks(delta: i64) {
        let _ = THREAD_LIVE_BLOCKS.try_with(|c| c.set(c.get() + delta));
    }

    /// System allocator with counters bolted on. Allocation counts see
    /// only `alloc`-family calls (frees do not), since that claim is about
    /// *creating* heap blocks on the hot path; the live-byte and
    /// live-block balances see frees too, and a `realloc` moves bytes but
    /// not blocks. A block freed by another thread than the one that
    /// allocated it moves both threads' balances.
    struct CountingAllocator;

    // SAFETY: defers verbatim to `System`, which upholds the GlobalAlloc
    // contract; the counter side effects do not touch the memory.
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_one();
            let ptr = System.alloc(layout);
            if !ptr.is_null() {
                count_bytes(layout.size(), 0);
                count_blocks(1);
            }
            ptr
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            count_bytes(0, layout.size());
            count_blocks(-1);
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_one();
            let moved = System.realloc(ptr, layout, new_size);
            if !moved.is_null() {
                count_bytes(new_size, layout.size());
            }
            moved
        }
    }

    #[global_allocator]
    static GLOBAL: CountingAllocator = CountingAllocator;

    pub(super) fn current() -> Option<u64> {
        Some(ALLOCATIONS.load(Ordering::Relaxed))
    }

    pub(super) fn current_thread() -> Option<u64> {
        Some(THREAD_ALLOCATIONS.with(Cell::get))
    }

    #[cfg(test)]
    pub(super) fn live_thread_heap() -> Option<(i64, i64)> {
        Some((
            THREAD_LIVE_BYTES.with(Cell::get),
            THREAD_LIVE_BLOCKS.with(Cell::get),
        ))
    }
}

#[cfg(not(feature = "count-allocs"))]
mod imp {
    pub(super) fn current() -> Option<u64> {
        None
    }

    pub(super) fn current_thread() -> Option<u64> {
        None
    }

    #[cfg(test)]
    pub(super) fn live_thread_heap() -> Option<(i64, i64)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::hint::black_box;
    use urb_core::Algorithm;
    use urb_engine::{MuxBuffers, StepInput, TopicEngine};
    use urb_types::{
        encode_mux_frame_into, BufPool, FdSnapshot, Label, LabelSet, MuxBatch, Payload,
        RandomSource, SplitMix64, Tag, TagAck, TopicId, WireMessage,
    };

    #[test]
    fn probe_matches_feature_state() {
        for probe in [count_allocations, count_thread_allocations] {
            let (value, counted) = probe(|| black_box(vec![1u8; 64]));
            assert_eq!(value.len(), 64);
            if cfg!(feature = "count-allocs") {
                assert!(counted.expect("feature on") >= 1, "the Vec allocation");
            } else {
                assert!(counted.is_none());
            }
        }
        let (value, live) = count_thread_live_heap(|| {
            let mut kept = Vec::with_capacity(8);
            kept.extend_from_slice(&[1u64; 5]);
            drop(black_box(vec![0u8; 4096]));
            kept.reserve_exact(12); // realloc: 8 → 17 slots
            kept
        });
        assert_eq!(value.len(), 5);
        if cfg!(feature = "count-allocs") {
            assert_eq!(
                live,
                Some((17 * 8, 1)),
                "what is kept, not what passed through"
            );
        } else {
            assert!(live.is_none());
        }
    }

    /// Heap `(bytes, blocks)` one Algorithm 2 instance holds after it
    /// received the MSG for one tag carrying `payload()` and three labelled
    /// ACKs, delivered, and was pruned by one tick — `None` without the
    /// counting allocator. The payload is built inside the count, so
    /// whatever of it the instance keeps counts too.
    fn settled_alg2_record_heap(payload: impl FnOnce() -> Payload) -> Option<(i64, i64)> {
        use urb_types::{Context, FdPair, FdView};
        let labels = [Label(10), Label(11), Label(12)];
        let view = FdView::from_pairs(labels.map(|label| FdPair { label, number: 3 }));
        let fd = FdSnapshot::new(view.clone(), view);
        let mut rng = SplitMix64::new(3);
        let (mut outbox, mut deliveries) = (Vec::with_capacity(8), Vec::with_capacity(8));
        let (proc, held) = count_thread_live_heap(|| {
            let mut proc = Algorithm::Quiescent.instantiate(3);
            let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
            let payload = payload();
            proc.on_receive(
                WireMessage::Msg {
                    tag: Tag(7),
                    payload: payload.clone(),
                },
                &mut ctx,
            );
            for ta in 0..3 {
                proc.on_receive(
                    WireMessage::Ack {
                        tag: Tag(7),
                        tag_ack: TagAck(ta),
                        payload: payload.clone(),
                        labels: Some(LabelSet::from_iter(labels)),
                    },
                    &mut ctx,
                );
            }
            proc.on_tick(&mut ctx);
            outbox.clear();
            deliveries.clear();
            proc
        });
        assert!(proc.is_quiescent(), "delivered and pruned");
        assert_eq!(
            (proc.stats().delivered, proc.stats().all_ack_entries),
            (1, 3)
        );
        held
    }

    /// The per-instance footprint at topic scale (DESIGN.md §14): a topic
    /// that saw one broadcast keeps one settled Algorithm 2 record, 400 B
    /// with its instance; the bound leaves 4 %. With a B-tree per table it
    /// held ≈ 2.7 KB, and with the record's evidence as two `Vec`s in its
    /// row 496 B.
    #[test]
    fn a_settled_alg2_record_holds_under_a_kibibyte_when_counted() {
        if let Some((held, _)) = settled_alg2_record_heap(|| Payload::from("settled")) {
            assert!(held <= 416, "one settled record holds {held} B of heap");
        }
    }

    /// The same record is four blocks: the instance, the record map's and
    /// `MSG_i`'s one-slot vectors, and the evidence box, which at `n = 3`
    /// holds the three ACK entries and their counters in place (five
    /// blocks when the entries and the counters were a `Vec` each).
    #[test]
    fn a_settled_alg2_record_is_four_blocks_when_counted() {
        if let Some((_, blocks)) = settled_alg2_record_heap(|| Payload::from("settled")) {
            assert!(blocks <= 4, "one settled record holds {blocks} blocks");
        }
    }

    /// A settled record lets its payload go (DESIGN.md D2): one that
    /// received 64 KiB holds no more than one that received seven bytes.
    #[test]
    fn a_settled_alg2_record_lets_a_64_kib_payload_go_when_counted() {
        if let Some((held, _)) = settled_alg2_record_heap(|| Payload::from(vec![7u8; 64 << 10])) {
            assert!(
                held < 1024,
                "a settled 64 KiB record holds {held} B of heap"
            );
        }
    }

    /// An idle instance is its box: empty tables allocate nothing, and the
    /// bounded-memory state is a pointer until memory is configured (176 B
    /// when that state was inline).
    #[test]
    fn an_idle_instance_holds_at_most_96_bytes_when_counted() {
        for alg in [Algorithm::Quiescent, Algorithm::Majority] {
            let (_idle, held) = count_thread_live_heap(|| alg.instantiate(3));
            if let Some((held, _)) = held {
                assert!(held <= 96, "an idle {} holds {held} B", alg.name());
            }
        }
    }

    #[test]
    fn mux_codec_is_allocation_free_in_steady_state_when_counted() {
        // The topic plane's zero-alloc claim (DESIGN.md §12): encoding a
        // multiplexed frame into a warm pooled buffer and decoding it
        // with shared payloads into warm scratch allocates nothing per
        // frame or per message. MSG-only corpus — ACK label sets own
        // their storage and legitimately allocate.
        let mut rng = SplitMix64::new(41);
        let entries: Vec<(TopicId, WireMessage)> = (0..3u32)
            .flat_map(|t| {
                let tag = Tag(rng.next_u128());
                (0..8).map(move |i| {
                    (
                        TopicId(t),
                        WireMessage::Msg {
                            tag: Tag(tag.0 ^ i),
                            payload: Payload::from("steady-state payload"),
                        },
                    )
                })
            })
            .collect();
        let pool = BufPool::new(2);
        let mut scratch: Vec<(TopicId, WireMessage)> = Vec::new();
        // Warm-up: grow the pooled buffer and the scratch to capacity,
        // and materialize the frame bytes once.
        let frame = {
            let mut buf = pool.acquire();
            encode_mux_frame_into(&entries, &mut buf);
            let frame = Bytes::copy_from_slice(&buf);
            MuxBatch::decode_shared_into(&frame, &mut scratch).unwrap();
            frame
        };
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..64 {
                let mut buf = pool.acquire();
                encode_mux_frame_into(black_box(&entries), &mut buf);
                black_box(&buf);
                drop(buf);
                MuxBatch::decode_shared_into(black_box(&frame), &mut scratch).unwrap();
                black_box(&scratch);
            }
        });
        if let Some(allocs) = allocs {
            assert_eq!(allocs, 0, "warm mux encode+decode must not allocate");
        }
    }

    /// The 100k-topic steady-state zero-alloc gate (DESIGN.md §16): with
    /// 100 000 live topics, receiving a multiplexed frame of duplicate
    /// MSGs (the steady-state ingress shape — payload views are
    /// refcounted, ACK replies carry no label set under Algorithm 1)
    /// allocates nothing once the scratch buffers are warm. The
    /// directory probe itself is allocation-free by construction; this
    /// pins the whole `receive_mux_frame` path around it.
    #[test]
    fn mux_ingress_at_100k_topics_is_allocation_free_when_counted() {
        let topics = 100_000u32;
        let mut engine = TopicEngine::new(
            (0..topics)
                .map(|_| Algorithm::Majority.instantiate(3))
                .collect(),
            SplitMix64::new(23),
        );
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        // Broadcast once on a spread of topics (low, middle, top of the
        // dense range) to seed tags, then rebuild their MSGs as one
        // ascending multi-run frame.
        let mut entries: Vec<(TopicId, WireMessage)> = Vec::new();
        for &t in &[0u32, 49_999, 99_999] {
            let tag = engine
                .step_mux(
                    TopicId(t),
                    StepInput::Broadcast(Payload::from("steady")),
                    &fd,
                    &mut mux,
                )
                .expect("broadcast assigns a tag");
            for _ in 0..8 {
                entries.push((
                    TopicId(t),
                    WireMessage::Msg {
                        tag,
                        payload: Payload::from("steady"),
                    },
                ));
            }
        }
        let pool = BufPool::new(2);
        let frame = {
            let mut buf = pool.acquire();
            encode_mux_frame_into(&entries, &mut buf);
            Bytes::copy_from_slice(&buf)
        };
        // Warm-up: grow every scratch/outbox/state structure to its
        // steady-state capacity.
        for _ in 0..4 {
            mux.clear();
            engine
                .receive_mux_frame(&frame, &mut mux, |_, _| FdSnapshot::none())
                .expect("well-formed frame");
        }
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..32 {
                mux.clear();
                engine
                    .receive_mux_frame(black_box(&frame), &mut mux, |_, _| FdSnapshot::none())
                    .expect("well-formed frame");
                black_box(&mux);
            }
        });
        if let Some(allocs) = allocs {
            assert_eq!(
                allocs, 0,
                "steady-state mux ingress at 100k topics must not allocate"
            );
        }
    }

    /// Algorithm 2 ingress allocates nothing in steady state (DESIGN.md
    /// §10): under a live 3-label `a_theta`/`a_p*` view, a warm frame of
    /// MSGs and labelled ACKs for tags already delivered and pruned — on
    /// topics holding one record and one holding 40, past the sorted
    /// vector — is received with a fresh clone of the view per entry, as
    /// a driver's closure hands it out. Each received MSG is acknowledged
    /// with the view's label set, each ACK's decoded set is reconciled
    /// and purged against it. Conservative compaction is on, so every tick
    /// fingerprints the view once per instance.
    #[test]
    fn alg2_ingress_under_a_live_view_is_allocation_free_when_counted() {
        use urb_types::{FdPair, FdView, MemoryConfig};
        let labels = [Label(10), Label(11), Label(12)];
        let view = FdView::from_pairs(labels.map(|label| FdPair { label, number: 3 }));
        let fd = FdSnapshot::new(view.clone(), view);
        let mut engine = TopicEngine::new(
            (0..4)
                .map(|_| Algorithm::Quiescent.instantiate(3))
                .collect(),
            SplitMix64::new(31),
        );
        engine.configure_memory(MemoryConfig {
            grace_ticks: u32::MAX,
            conservative: true,
            ..MemoryConfig::default()
        });
        let mut mux = MuxBuffers::new();
        let payload = Payload::from("settled");
        let copies = |tag: Tag| {
            let acks = (0..3u128).map(move |ta| WireMessage::Ack {
                tag,
                tag_ack: TagAck(ta),
                payload: Payload::from("settled"),
                labels: Some(LabelSet::from_iter(labels)),
            });
            std::iter::once(WireMessage::Msg {
                tag,
                payload: Payload::from("settled"),
            })
            .chain(acks)
        };
        // Topics 0–2 settle one tag each, topic 3 settles 40; the frame
        // carries every copy of topics 0–2 and of every fifth tag of 3.
        let mut entries: Vec<(TopicId, WireMessage)> = Vec::new();
        for t in 0..4u32 {
            let topic = TopicId(t);
            for k in 0..if t == 3 { 40 } else { 1 } {
                let tag = engine
                    .step_mux(topic, StepInput::Broadcast(payload.clone()), &fd, &mut mux)
                    .expect("broadcast assigns a tag");
                for msg in copies(tag) {
                    engine.step_mux(topic, StepInput::Receive(msg), &fd, &mut mux);
                }
                if k % 5 == 0 {
                    entries.extend(copies(tag).map(|msg| (topic, msg)));
                }
            }
        }
        mux.clear();
        engine.tick_all(&fd, &mut mux);
        let stats = engine.stats();
        assert_eq!(
            (stats.delivered, stats.msg_set),
            (43, 0),
            "delivered, pruned"
        );
        let pool = BufPool::new(2);
        let frame = {
            let mut buf = pool.acquire();
            encode_mux_frame_into(&entries, &mut buf);
            Bytes::copy_from_slice(&buf)
        };
        let receive_and_tick = |engine: &mut TopicEngine, mux: &mut MuxBuffers| {
            engine
                .receive_mux_frame(black_box(&frame), mux, |_, _| fd.clone())
                .expect("well-formed frame");
            assert_eq!(mux.outbox.len(), 11, "every MSG is acknowledged");
            mux.clear();
            engine.tick_all(black_box(&fd), mux);
            black_box(&mux);
        };
        // Warm-up: grow the scratch, outbox and active index.
        for _ in 0..4 {
            receive_and_tick(&mut engine, &mut mux);
        }
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..32 {
                receive_and_tick(&mut engine, &mut mux);
            }
        });
        let stats = engine.stats();
        assert_eq!((stats.delivered, stats.msg_set), (43, 0), "nothing moved");
        assert_eq!(engine.counters().reclaimed, 0, "the grace period holds");
        if let Some(allocs) = allocs {
            assert_eq!(allocs, 0, "warm Algorithm 2 ingress must not allocate");
        }
    }

    /// The node tick sweeps the engine's active index, not its slots
    /// (DESIGN.md §16): with 100 000 topics of which 1 000 hold a message,
    /// a warm `tick_all` re-sends exactly those 1 000, ascending by topic
    /// whatever order they were activated in, and allocates nothing — the
    /// index is sorted in place and walked without being rebuilt.
    #[test]
    fn tick_all_at_100k_topics_is_allocation_free_when_counted() {
        let topics = 100_000u32;
        let mut engine = TopicEngine::new(
            (0..topics)
                .map(|_| Algorithm::Majority.instantiate(3))
                .collect(),
            SplitMix64::new(29),
        );
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        // 7 919 is coprime to 100 000: 1 000 distinct topics, scattered.
        for k in 0..1_000u32 {
            let topic = TopicId(k * 7_919 % topics);
            engine.step_mux(
                topic,
                StepInput::Broadcast(Payload::from("held")),
                &fd,
                &mut mux,
            );
        }
        // Warm-up: the first tick sorts the index and grows the outbox.
        engine.tick_all(&fd, &mut mux);
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..8 {
                engine.tick_all(black_box(&fd), &mut mux);
                black_box(&mux);
            }
        });
        assert_eq!(mux.outbox.len(), 1_000, "Alg 1 never prunes: all re-sent");
        assert!(mux.outbox.windows(2).all(|w| w[0].0 < w[1].0), "ascending");
        assert_eq!(engine.counters().ticks, 9 * u64::from(topics));
        if let Some(allocs) = allocs {
            assert_eq!(allocs, 0, "a warm tick_all must not allocate");
        }
    }

    /// Algorithm 2's Task 1 walks `MSG`, not history, and collects
    /// nothing: with 10 000 delivered-and-pruned tags settled in the table
    /// and a few undelivered ones still in `MSG`, a warm tick re-sends
    /// exactly those few and allocates nothing.
    #[test]
    fn alg2_tick_over_settled_history_is_allocation_free_when_counted() {
        use urb_types::{Context, FdPair, FdView};
        let view = FdView::from_pairs([FdPair {
            label: Label(10),
            number: 1,
        }]);
        let fd = FdSnapshot::new(view.clone(), view);
        let mut proc = Algorithm::Quiescent.instantiate(3);
        let mut rng = SplitMix64::new(7);
        let (mut outbox, mut deliveries) = (Vec::new(), Vec::new());
        let payload = Payload::from("settled");
        for t in 0..10_008u128 {
            let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
            proc.on_receive(
                WireMessage::Msg {
                    tag: Tag(t),
                    payload: payload.clone(),
                },
                &mut ctx,
            );
            // The last 8 tags are never acknowledged: they stay in MSG.
            if t < 10_000 {
                proc.on_receive(
                    WireMessage::Ack {
                        tag: Tag(t),
                        tag_ack: TagAck(t),
                        payload: payload.clone(),
                        labels: Some(LabelSet::from_iter([Label(10)])),
                    },
                    &mut ctx,
                );
            }
            outbox.clear();
        }
        assert_eq!(deliveries.len(), 10_000);
        // First tick: line-57 prunes the delivered tags, warms the outbox.
        proc.on_tick(&mut Context::new(
            &mut rng,
            &fd,
            &mut outbox,
            &mut deliveries,
        ));
        assert_eq!(proc.stats().msg_set, 8);
        assert_eq!(proc.stats().delivered, 10_000);
        outbox.clear();
        let (_, allocs) = count_thread_allocations(|| {
            proc.on_tick(&mut Context::new(
                &mut rng,
                &fd,
                &mut outbox,
                &mut deliveries,
            ));
        });
        assert_eq!(outbox.len(), 8, "Task 1 re-sends what is still in MSG");
        if let Some(allocs) = allocs {
            assert_eq!(allocs, 0, "an Alg 2 tick must not allocate");
        }
    }

    /// A checker node tick is the engine's: `Choice::Tick` steps
    /// `tick_all` into the state's own buffers and routes straight out of
    /// them — no per-tick topic list, no per-topic copy of the effects. On
    /// a warm 3-topic state, applying the choice allocates exactly what
    /// enumerating the enabled choices (which `apply` does first, to
    /// validate it) allocates: the sweep itself adds nothing.
    #[test]
    fn checker_tick_on_a_warm_state_is_allocation_free_when_counted() {
        use urb_check::{CheckModel, Choice};
        let spec = urb_sim::ScenarioSpec::from_toml_str(
            "name = \"warm-tick\"\nn = 3\nalgorithm = \"majority\"\nseed = 5\n\
             [topics]\ncount = 3\n\
             [[workload]]\ntopic = 0\ncount = 1\nspacing = 10\nstart = 10\n\
             [[workload]]\ntopic = 1\ncount = 1\nspacing = 10\nstart = 11\n\
             [[workload]]\ntopic = 2\ncount = 1\nspacing = 10\nstart = 12\n\
             [check]\ntick_budget = 8\n",
        )
        .unwrap();
        let model = CheckModel::from_spec(&spec, None).unwrap();
        let mut st = model.initial();
        // Every broadcast issued, every copy delivered: each engine holds
        // one MSG per topic, nothing is pending.
        let settle = |st: &mut urb_check::CheckState<'_>| {
            while let Some(c) = st
                .enabled_choices()
                .into_iter()
                .find(|c| matches!(c, Choice::Broadcast | Choice::Deliver { .. }))
            {
                st.apply(c).unwrap();
            }
        };
        settle(&mut st);
        // Warm-up: one tick grows the buffers and the pending list.
        st.apply(Choice::Tick { pid: 0 }).unwrap();
        settle(&mut st);
        assert!(st.pending().is_empty());

        let (enabled, enumerating) = count_thread_allocations(|| st.enabled_choices());
        assert!(enabled.contains(&Choice::Tick { pid: 0 }));
        let (applied, applying) = count_thread_allocations(|| st.apply(Choice::Tick { pid: 0 }));
        applied.unwrap();
        assert_eq!(
            st.pending().len(),
            9,
            "3 topics re-sent one MSG each to 3 destinations"
        );
        if let (Some(enumerating), Some(applying)) = (enumerating, applying) {
            assert_eq!(
                applying, enumerating,
                "the tick's sweep and routing must not allocate"
            );
        }
    }

    /// A label set past the inline capacity — `a_theta` in a system of
    /// more than three processes — is one block. Decoding a labelled ACK
    /// that carries one allocates that block and nothing else, as the
    /// sorted `Vec` it replaced did; restoring a record whose three ACKers
    /// reported such a set allocates one block per ACKer more than
    /// restoring three-label sets does, however large the set. (The
    /// restored label counters are held in place up to three; past that
    /// they are one sorted `Vec` of `n` pairs that grows as one pushed to
    /// from empty does. That growth is the same either way and is taken
    /// out.)
    #[test]
    fn label_sets_past_the_inline_capacity_cost_one_block_when_counted() {
        use urb_types::{Context, FdPair, FdView};
        // (allocations over 64 decodes, allocations of one restore)
        let costs = |n: u32| {
            let labels: Vec<Label> = (0..u64::from(n)).map(|l| Label(10 + l)).collect();
            let ack = |ta: u128| WireMessage::Ack {
                tag: Tag(7),
                tag_ack: TagAck(ta),
                payload: Payload::from("settled"),
                labels: Some(LabelSet::from_iter(labels.iter().copied())),
            };
            let frame = MuxBatch::from_entries(&[(TopicId::ZERO, ack(0))]).encode();
            let mut out = Vec::new();
            MuxBatch::decode_shared_into(&frame, &mut out).unwrap(); // warm scratch
            let (_, decode) = count_thread_allocations(|| {
                for _ in 0..64 {
                    MuxBatch::decode_shared_into(black_box(&frame), &mut out).unwrap();
                }
            });
            let view = FdView::from_pairs(labels.iter().map(|&label| FdPair { label, number: n }));
            let fd = FdSnapshot::new(view.clone(), view);
            let mut rng = SplitMix64::new(3);
            let (mut outbox, mut deliveries) = (Vec::new(), Vec::new());
            let mut proc = Algorithm::Quiescent.instantiate(3);
            let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
            let msg = WireMessage::Msg {
                tag: Tag(7),
                payload: Payload::from("settled"),
            };
            proc.on_receive(msg, &mut ctx);
            for ta in 0..3 {
                proc.on_receive(ack(ta), &mut ctx);
            }
            assert_eq!(proc.stats().all_ack_entries, 3);
            let body = proc.save_state().expect("Algorithm 2 saves its state");
            let mut fresh = Algorithm::Quiescent.instantiate(n as usize);
            let (restored, restore) = count_thread_allocations(|| fresh.restore_state(&body));
            restored.expect("restores");
            assert_eq!(fresh.save_state(), Some(body), "{n} labels round-trip");
            let (_, counters) = count_thread_allocations(|| {
                let mut counters = Vec::new();
                if labels.len() > 3 {
                    for &label in &labels {
                        counters.push((label, 3u32));
                    }
                }
                counters
            });
            decode.zip(restore.zip(counters).map(|(all, counters)| all - counters))
        };
        let Some((decode, inline_restore)) = costs(3) else {
            return;
        };
        assert_eq!(decode, 0, "a three-label set decodes inline");
        for n in [4, 5, 32] {
            let (decode, restore) = costs(n).expect("counted");
            assert_eq!(decode, 64, "{n} labels: one block per decoded ACK");
            assert_eq!(
                restore,
                inline_restore + 3,
                "{n} labels: one block per ACKer's set"
            );
        }
    }

    #[test]
    fn shared_decode_scratch_is_allocation_free_when_counted() {
        // Traffic-shaped frames: MSGs, ACKs with and without label sets,
        // a heartbeat, payloads of assorted lengths.
        let payload = |i: u64| Payload::from(vec![i as u8; (i * 37 % 128) as usize]);
        let entries: Vec<(TopicId, WireMessage)> = (0..32u64)
            .map(|i| {
                let msg = match i % 4 {
                    0 | 1 => WireMessage::Msg {
                        tag: Tag(i as u128),
                        payload: payload(i),
                    },
                    2 => WireMessage::Ack {
                        tag: Tag(i as u128),
                        tag_ack: TagAck(i as u128 + 1),
                        payload: payload(i),
                        labels: (i % 8 == 2).then(|| LabelSet::from_iter((0..i % 7).map(Label))),
                    },
                    _ => WireMessage::Heartbeat {
                        label: Label(i),
                        seq: i,
                    },
                };
                (TopicId::ZERO, msg)
            })
            .collect();
        let frame = MuxBatch::from_entries(&entries).encode();
        let mut out: Vec<(TopicId, WireMessage)> = Vec::new();
        MuxBatch::decode_shared_into(&frame, &mut out).unwrap(); // warm scratch
        let (_, allocs) = count_thread_allocations(|| {
            for _ in 0..64 {
                MuxBatch::decode_shared_into(black_box(&frame), &mut out).unwrap();
                black_box(out.len());
            }
        });
        if let Some(allocs) = allocs {
            // A label set of at most three labels is stored inline; the
            // frame's 4- and 5-label sets allocate one shared block each,
            // so a frame costs two allocations (four when every non-empty
            // set was a `Vec`). Payload bytes never allocate. The measured
            // rate must therefore be far below one allocation *per
            // message* (a copying decode's floor).
            let per_message = allocs as f64 / (64 * entries.len()) as f64;
            assert!(per_message < 1.0, "shared decode allocs/msg: {per_message}");
        }
    }
}
