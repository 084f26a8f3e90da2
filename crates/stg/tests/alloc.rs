//! Proves the packed-marking hot path performs zero per-state heap
//! allocations for safe nets with ≤ 64 places, and pins the footprint of
//! cloning an STG (the flat `PetriNet` layout is a dozen allocations).
//!
//! A counting global allocator wraps `System`; the test plays thousands
//! of transition firings through `is_enabled_packed` /
//! `fire_packed_into` and asserts the allocation counter never moves.
//! (Whole-exploration allocation is amortized — table growth — so the
//! guarantee that matters, and the one the ISSUE pins, is that *firing
//! and interning an already-seen state* allocates nothing.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocation_count() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations made and bytes requested while running `work`.
fn measure<T>(work: impl FnOnce() -> T) -> (usize, usize) {
    let (allocs, bytes) = (allocation_count(), BYTES.load(Ordering::Relaxed));
    drop(std::hint::black_box(work()));
    (
        allocation_count() - allocs,
        BYTES.load(Ordering::Relaxed) - bytes,
    )
}

use rt_stg::marking::{MarkingArena, MarkingLayout, PackedMarking};
use rt_stg::models;

// This target runs without the libtest harness (`harness = false` in
// Cargo.toml): the counter is process-global, so even the harness's own
// bookkeeping threads would bleed allocations into the measured regions.
fn main() {
    firing_safe_net_transitions_never_allocates();
    interning_known_markings_never_allocates();
    cloning_an_stg_is_a_few_flat_allocations();
    println!("alloc: ok (packed hot path performed zero heap allocations)");
}

fn firing_safe_net_transitions_never_allocates() {
    let stg = models::fifo_stg();
    let net = stg.net();
    assert!(
        net.place_count() <= 64,
        "fifo model must fit the inline word"
    );

    let layout = MarkingLayout::new(net.place_count(), Some(1));
    let mut current = PackedMarking::pack(&layout, &stg.initial_marking());
    let mut scratch = PackedMarking::zero(&layout);

    // Warm up (first enabled-scan may lazily touch nothing, but keep the
    // measured region clean of one-time effects).
    for t in net.transitions() {
        std::hint::black_box(net.is_enabled_packed(t, &current, &layout));
    }

    let before = allocation_count();
    let mut fired = 0u32;
    while fired < 10_000 {
        let mut advanced = false;
        for t in net.transitions() {
            if net.is_enabled_packed(t, &current, &layout) {
                net.fire_packed_into(t, &current, &layout, Some(1), &mut scratch)
                    .expect("safe net stays within bound");
                std::mem::swap(&mut current, &mut scratch);
                fired += 1;
                advanced = true;
                break;
            }
        }
        assert!(
            advanced,
            "fifo spec is live; some transition is always enabled"
        );
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "firing {fired} transitions on a ≤64-place safe net must not allocate"
    );
}

fn interning_known_markings_never_allocates() {
    let stg = models::fifo_stg();
    let net = stg.net();
    let layout = MarkingLayout::new(net.place_count(), Some(1));
    // Pre-size generously so the measured region cannot trigger growth.
    let mut arena = MarkingArena::with_capacity(layout, 1 << 12);
    let mut current = PackedMarking::pack(&layout, &stg.initial_marking());
    let mut scratch = PackedMarking::zero(&layout);

    // First pass: discover a cycle's worth of markings (may allocate in
    // the items vector, amortized).
    let mut trail = Vec::new();
    for _ in 0..64 {
        arena.intern(current.clone());
        trail.push(current.clone());
        let t = net
            .transitions()
            .find(|&t| net.is_enabled_packed(t, &current, &layout))
            .expect("live spec");
        net.fire_packed_into(t, &current, &layout, Some(1), &mut scratch)
            .expect("safe");
        std::mem::swap(&mut current, &mut scratch);
    }

    // Second pass: every marking is already interned; lookups must be
    // allocation-free.
    let before = allocation_count();
    for m in &trail {
        let (_, fresh) = arena.intern_ref(m);
        assert!(!fresh, "second pass only revisits known markings");
    }
    let after = allocation_count();
    assert_eq!(
        after - before,
        0,
        "re-interning known markings must not allocate"
    );
}

fn cloning_an_stg_is_a_few_flat_allocations() {
    let stg = models::ring_stg(52, 51);
    let (net_allocs, net_bytes) = measure(|| stg.net().clone());
    let (stg_allocs, stg_bytes) = measure(|| stg.clone());
    println!(
        "alloc: ring_stg(52, 51) net clone {net_allocs} allocations / {net_bytes} B, \
         stg clone {stg_allocs} allocations / {stg_bytes} B"
    );
    // Four name/offset pairs and four arc/offset pairs of CSR rows.
    assert!(
        net_allocs <= 12,
        "cloning the net took {net_allocs} allocations; the flat layout needs at most 12"
    );
    assert!(
        stg_bytes <= 14_000,
        "cloning the STG requested {stg_bytes} B; the flat layout needs at most 14,000"
    );
}
