//! Seeded request streams for the three workloads, with the ground
//! truth every answer is checked against.
//!
//! The program under test only ever sees the generated [`Request`]s.
//! References come from the explicit engine (`rt_stg::explore`) on the
//! *base* structure, computed here when the stream is built, or from
//! verdicts known for the in-repo netlist/spec pairs — never from the
//! symbolic path, the service or the wire that the benchmark measures.
//!
//! Signal names are salted per request, so no two requests of one run
//! share a memo-cache key (`Stg::content_hash` covers signal names).
//! `cold_mix` and `wide_symbolic` also never repeat a *structure* for the
//! BDD-dominated kinds (summary, csc_check): a warm pooled manager would
//! answer a repeated structure from its op caches whatever the names.

use std::collections::HashSet;

use rt_netlist::{cells, fifo, Netlist};
use rt_service::Request;
use rt_stg::stg::SignalDecl;
use rt_stg::{corpus, explore, models, SignalId, Stg};
use rt_synth::csc::CscOptions;
use rt_verify::{extract_requirements, NetOrdering, Verdict};

/// Request kinds, in wire-discriminant order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Summary,
    CscCheck,
    Resolve,
    Verify,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Summary => "summary",
            Kind::CscCheck => "csc_check",
            Kind::Resolve => "resolve",
            Kind::Verify => "verify",
        }
    }
}

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMix,
    HotRepeat,
    WideSymbolic,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "cold_mix" => Some(Workload::ColdMix),
            "hot_repeat" => Some(Workload::HotRepeat),
            "wide_symbolic" => Some(Workload::WideSymbolic),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::HotRepeat => "hot_repeat",
            Workload::WideSymbolic => "wide_symbolic",
        }
    }
}

/// Explicit-engine facts about one base structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub markings: u64,
    pub conflicts: u64,
    pub deadlock_free: bool,
    pub strongly_connected: bool,
}

impl Reference {
    fn of(stg: &Stg) -> Reference {
        let sg = explore(stg).expect("every benchmark structure explores explicitly");
        Reference {
            markings: sg.state_count() as u64,
            conflicts: sg.csc_conflicts().len() as u64,
            deadlock_free: sg.deadlock_states().is_empty(),
            strongly_connected: sg.is_strongly_connected(),
        }
    }
}

/// What a correct answer must satisfy.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    /// Summary and csc_check: the base structure's explicit facts.
    Reach(Reference),
    /// Resolve: a CSC-free result with at most this many inserted signals.
    Resolve { max_signals: usize },
    /// Verify: the pair's known verdict.
    Verify(Verdict),
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Item {
    pub kind: Kind,
    /// Base structure, before salting (e.g. `ring6_2`).
    pub base: String,
    pub request: Request,
    pub expect: Expect,
}

/// A workload's generated inputs.
pub struct Stream {
    pub items: Vec<Item>,
    /// Indices into `items` in the order the clients draw them. Finite
    /// for `cold_mix`/`wide_symbolic` (every structure once); a long
    /// seeded replay of the working set for `hot_repeat`.
    pub play: Vec<usize>,
    /// `hot_repeat` only: every item once, untimed, to fill the cache.
    pub warmup: bool,
    /// Play positions where a lap starts: one pass over the workload's
    /// structures under fresh salts and a fresh order.
    pub laps: Vec<usize>,
    /// Play positions where the run switches to a fresh daemon: every
    /// lap start, so that no structure repeats within one daemon's
    /// lifetime, and every [`WIDE_SEGMENT`] requests of `wide_symbolic`.
    pub breaks: Vec<usize>,
}

/// `wide_symbolic` restarts its daemon after this many requests. Pooled
/// engines never collect their BDD managers, so one daemon serving the
/// whole wide stream reaches 1.6–3.5 GB of peak RSS, bimodal on which
/// worker crosses a unique-table doubling first. A fresh pool per
/// segment bounds memory and keeps requests landing on a manager warmed
/// by a few, not dozens of, earlier nets.
pub const WIDE_SEGMENT: usize = 12;

/// CSC resolution options of every resolve request.
pub fn resolve_options() -> CscOptions {
    CscOptions {
        threads: 1,
        ..CscOptions::default()
    }
}

/// SplitMix64: a tiny, dependency-free seeded generator.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `stg` with signal `s` renamed `name_of(s)`; the net, labels,
/// marking and initial values are reused verbatim.
fn renamed(stg: &Stg, name_of: impl Fn(SignalId) -> String) -> Stg {
    let signals = stg
        .signals()
        .map(|s| SignalDecl {
            name: name_of(s),
            kind: stg.signal_kind(s),
        })
        .collect();
    let labels = stg.net().transitions().map(|t| stg.label(t)).collect();
    let marking = stg.initial_marking();
    let tokens = stg.net().places().map(|p| marking.tokens(p)).collect();
    let values = stg.signals().map(|s| stg.initial_value(s)).collect();
    Stg::from_parts(
        stg.name().to_string(),
        stg.net().clone(),
        signals,
        labels,
        tokens,
        values,
    )
    .expect("renaming keeps an STG well-formed")
}

/// `stg` with every signal renamed `<name>_<salt>`.
pub fn salted_stg(stg: &Stg, salt: &str) -> Stg {
    renamed(stg, |s| format!("{}_{salt}", stg.signal_name(s)))
}

/// `netlist` with every net renamed `<name>_<salt>` — the same renaming
/// [`salted_stg`] applies, so name-based net matching is preserved.
pub fn salted_netlist(netlist: &Netlist, salt: &str) -> Netlist {
    let mut out = Netlist::new(netlist.name());
    for net in netlist.nets() {
        out.add_net(
            format!("{}_{salt}", netlist.net_name(net)),
            netlist.net_kind(net),
        );
    }
    for gate in netlist.gates() {
        let gate = netlist.gate(gate);
        out.add_gate(
            gate.name.clone(),
            gate.kind.clone(),
            gate.inputs.clone(),
            gate.output,
        );
    }
    out
}

/// The content hash of `stg` with its signals renamed canonically: equal
/// for two structures that differ only in signal names.
pub fn structure_key(stg: &Stg) -> u64 {
    renamed(stg, |s| format!("v{}", s.index())).content_hash()
}

type Structure = (&'static str, String, Stg);

/// `cold_mix` structures: the parameterised families of `rt_stg` with
/// ≤ 16 signals, capped so no explicit reference or symbolic call runs
/// long (calibrated at well under 200 ms cold each).
fn small_structures() -> Vec<Structure> {
    let mut out: Vec<Structure> = Vec::new();
    for n in 2..=16usize {
        let ks: Vec<usize> = if n <= 8 {
            (1..n).collect()
        } else {
            vec![1, 2, n - 2, n - 1]
        };
        for k in ks {
            out.push(("ring", format!("ring{n}_{k}"), models::ring_stg(n, k)));
        }
    }
    for n in 1..=15 {
        out.push(("chain", format!("chain{n}"), models::chain_stg(n)));
    }
    for (stages, max_depth) in [(2, 50), (3, 22), (4, 13), (5, 8), (6, 6), (7, 4), (8, 2)] {
        for depth in 0..=max_depth {
            out.push((
                "adder",
                format!("adder{stages}_{depth}"),
                corpus::adder_rt_with_links(stages, depth),
            ));
        }
    }
    for (rows, cols, max_depth) in [(2, 2, 6), (2, 3, 1), (3, 2, 1), (2, 4, 0), (4, 2, 0)] {
        for depth in 0..=max_depth {
            out.push((
                "fabric",
                format!("fabric{rows}x{cols}_{depth}"),
                corpus::fabric_stg(rows, cols, depth),
            ));
        }
    }
    for (name, text) in corpus::all() {
        let stg = corpus::parse(text).expect("corpus entry parses");
        out.push(("corpus", name.to_string(), stg));
    }
    out.push(("corpus", "handshake".into(), models::handshake_stg()));
    out.push(("corpus", "fifo".into(), models::fifo_stg()));
    out.push(("corpus", "fifo_csc".into(), models::fifo_stg_csc()));
    out.push(("corpus", "celement".into(), models::celement_stg()));
    out
}

/// `wide_symbolic` structures: 24–64 signals, capped so that no request
/// comes near cold `fabric4x4` csc_check (calibrated at ≤ ~1 s cold each)
/// and a lap holds more than 100 of them.
fn wide_structures() -> Vec<Structure> {
    let mut out: Vec<Structure> = Vec::new();
    for n in 24..=52usize {
        out.push(("ring", format!("ring{n}_1"), models::ring_stg(n, 1)));
        out.push((
            "ring",
            format!("ring{n}_{}", n - 1),
            models::ring_stg(n, n - 1),
        ));
    }
    for (stages, max_depth) in [(12..=16, 5), (17..=20, 3), (21..=22, 1), (23..=26, 0)] {
        for s in stages {
            for depth in 0..=max_depth {
                out.push((
                    "adder",
                    format!("adder{s}_{depth}"),
                    corpus::adder_rt_with_links(s, depth),
                ));
            }
        }
    }
    for (rows, cols) in [(2, 6), (6, 2)] {
        out.push((
            "fabric",
            format!("fabric{rows}x{cols}_0"),
            corpus::fabric_stg(rows, cols, 0),
        ));
    }
    out
}

/// Conflicted specs whose resolution succeeds within the default
/// `max_signals` (repeated across a run under fresh salts; the search
/// is dominated by explicit candidate graphs, not the BDD manager).
fn resolve_specs() -> Vec<Structure> {
    let mut out: Vec<Structure> = Vec::new();
    for (n, k) in [
        (2, 1),
        (3, 1),
        (3, 2),
        (4, 1),
        (4, 2),
        (4, 3),
        (5, 1),
        (5, 4),
        (6, 1),
        (6, 5),
    ] {
        out.push(("ring", format!("ring{n}_{k}"), models::ring_stg(n, k)));
    }
    out.push((
        "adder",
        "adder2_0".into(),
        corpus::adder_rt_with_links(2, 0),
    ));
    out.push((
        "adder",
        "adder3_0".into(),
        corpus::adder_rt_with_links(3, 0),
    ));
    for name in ["vme_read", "pipeline_stage"] {
        let text = corpus::all()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, text)| text)
            .expect("corpus entry exists");
        out.push((
            "corpus",
            name.to_string(),
            corpus::parse(text).expect("parses"),
        ));
    }
    out.push(("corpus", "fifo".into(), models::fifo_stg()));
    out
}

/// An in-repo netlist, its spec, the orderings assumed, and the verdict
/// documented for the pair.
struct VerifyPair {
    name: &'static str,
    netlist: Netlist,
    spec: Stg,
    orderings: Vec<NetOrdering>,
    verdict: Verdict,
}

fn verify_pairs() -> Vec<VerifyPair> {
    let (celement, _) = cells::majority_celement();
    let spec = models::celement_stg();
    // Section 5: the majority C-element fails under unbounded delays and
    // conforms once the extracted relative-timing orderings are assumed.
    let sg = explore(&spec).expect("celement spec explores");
    let orderings = extract_requirements(&celement, &sg, &[]).orderings;
    let (si, _) = fifo::si_fifo();
    vec![
        VerifyPair {
            name: "celement_unbounded",
            netlist: celement.clone(),
            spec: spec.clone(),
            orderings: Vec::new(),
            verdict: Verdict::Fails,
        },
        VerifyPair {
            name: "celement_rt",
            netlist: celement,
            spec,
            orderings,
            verdict: Verdict::Conforms,
        },
        // Figure 4: the speed-independent FIFO cell conforms with no
        // timing assumptions at all.
        VerifyPair {
            name: "si_fifo",
            netlist: si,
            spec: models::fifo_stg_csc(),
            orderings: Vec::new(),
            verdict: Verdict::Conforms,
        },
    ]
}

/// Per-run salt prefix: distinct seeds give distinct names.
fn salt(seed: u64, index: usize) -> String {
    format!("{:x}_{index}", seed & 0xffff_ffff)
}

fn reach_item(kind: Kind, (_, base, stg): &Structure, reference: Reference, salt: &str) -> Item {
    let stg = salted_stg(stg, salt);
    let request = match kind {
        Kind::Summary => Request::summary(stg),
        Kind::CscCheck => Request::csc_check(stg),
        _ => unreachable!("reach items are summary or csc_check"),
    };
    Item {
        kind,
        base: base.clone(),
        request,
        expect: Expect::Reach(reference),
    }
}

fn resolve_item((_, base, stg): &Structure, salt: &str) -> Item {
    let options = resolve_options();
    let max_signals = options.max_signals;
    Item {
        kind: Kind::Resolve,
        base: base.clone(),
        request: Request::resolve_csc(salted_stg(stg, salt), options),
        expect: Expect::Resolve { max_signals },
    }
}

fn verify_item(pair: &VerifyPair, salt: &str) -> Item {
    Item {
        kind: Kind::Verify,
        base: pair.name.to_string(),
        request: Request::verify(
            salted_netlist(&pair.netlist, salt),
            salted_stg(&pair.spec, salt),
            pair.orderings.clone(),
        ),
        expect: Expect::Verify(pair.verdict),
    }
}

/// Distinct structures (by [`structure_key`]) with their references,
/// grouped by family and sorted by a cost proxy within each family.
fn distinct_with_references(structures: Vec<Structure>) -> Vec<Vec<(Structure, Reference)>> {
    let mut seen = HashSet::new();
    let mut families: Vec<Vec<(Structure, Reference)>> = Vec::new();
    let mut family_names: Vec<&'static str> = Vec::new();
    for structure in structures {
        if !seen.insert(structure_key(&structure.2)) {
            continue;
        }
        let reference = Reference::of(&structure.2);
        let slot = match family_names.iter().position(|f| *f == structure.0) {
            Some(slot) => slot,
            None => {
                family_names.push(structure.0);
                families.push(Vec::new());
                families.len() - 1
            }
        };
        families[slot].push((structure, reference));
    }
    for family in &mut families {
        family.sort_by(|(a, ra), (b, rb)| {
            let cost =
                |s: &Structure, r: &Reference| r.markings as f64 * s.2.net().place_count() as f64;
            cost(a, ra)
                .total_cmp(&cost(b, rb))
                .then_with(|| a.1.cmp(&b.1))
        });
    }
    families
}

/// Cuts every family (sorted by cost) into groups of cost neighbours,
/// one structure per entry of `kinds`, and interleaves families in
/// proportion to their size, so that any prefix of the result is a
/// representative sample. Kinds rotate by group rank, so each kind sees
/// a near-identical cost distribution and every seed asks the same
/// question of each structure; the seed orders the groups and salts the
/// names.
fn grouped_reach_items(
    families: &[Vec<(Structure, Reference)>],
    kinds: &[Kind],
    rng: &mut Rng,
    seed: u64,
    next_salt: &mut usize,
) -> Vec<Vec<Item>> {
    let mut keyed: Vec<(f64, usize, Vec<Item>)> = Vec::new();
    for (family_index, family) in families.iter().enumerate() {
        // A short last group takes a prefix of the rotated kinds.
        let mut groups: Vec<(usize, &[(Structure, Reference)])> =
            family.chunks(kinds.len()).enumerate().collect();
        rng.shuffle(&mut groups);
        let offset = rng.unit();
        let count = groups.len() as f64;
        for (rank, (cost_rank, group)) in groups.into_iter().enumerate() {
            let items = group
                .iter()
                .enumerate()
                .map(|(i, (structure, reference))| {
                    let kind = kinds[(i + cost_rank) % kinds.len()];
                    *next_salt += 1;
                    reach_item(kind, structure, *reference, &salt(seed, *next_salt))
                })
                .collect();
            keyed.push(((rank as f64 + offset) / count, family_index, items));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, items)| items).collect()
}

/// Laps generated for `cold_mix` and `wide_symbolic`: more than any
/// allowed run length consumes at the reference container's speed.
const LAPS: usize = 8;

/// Builds the seeded stream of `workload`.
pub fn build(workload: Workload, seed: u64) -> Stream {
    let mut rng = Rng::new(seed);
    let mut next_salt = 0usize;
    let mut items: Vec<Item> = Vec::new();
    let mut laps = Vec::new();
    let mut breaks = Vec::new();
    match workload {
        Workload::ColdMix => {
            let families = distinct_with_references(small_structures());
            let resolve = resolve_specs();
            let verify = verify_pairs();
            for _ in 0..LAPS {
                laps.push(items.len());
                breaks.push(items.len());
                let pairs = grouped_reach_items(
                    &families,
                    &[Kind::Summary, Kind::CscCheck],
                    &mut rng,
                    seed,
                    &mut next_salt,
                );
                let mut resolve_order: Vec<usize> = (0..resolve.len()).collect();
                let mut verify_order: Vec<usize> = (0..verify.len()).collect();
                rng.shuffle(&mut resolve_order);
                rng.shuffle(&mut verify_order);
                // Blocks of 25: 10 structure pairs (10 summary + 10
                // csc_check), 3 resolve and 2 verify, shuffled within the
                // block (the last block may be short).
                let mut pairs = pairs.into_iter().peekable();
                let mut block = 0;
                while pairs.peek().is_some() {
                    let mut slots: Vec<Item> = pairs.by_ref().take(10).flatten().collect();
                    for r in 0..3 {
                        let spec = &resolve[resolve_order[(block * 3 + r) % resolve.len()]];
                        next_salt += 1;
                        slots.push(resolve_item(spec, &salt(seed, next_salt)));
                    }
                    for v in 0..2 {
                        let pair = &verify[verify_order[(block * 2 + v) % verify.len()]];
                        next_salt += 1;
                        slots.push(verify_item(pair, &salt(seed, next_salt)));
                    }
                    rng.shuffle(&mut slots);
                    items.extend(slots);
                    block += 1;
                }
            }
        }
        Workload::WideSymbolic => {
            let families = distinct_with_references(wide_structures());
            for _ in 0..LAPS {
                let start = items.len();
                laps.push(start);
                // Four summaries to one csc_check: csc_check costs ~5x a
                // summary on these nets, and a lap must hold >= 100.
                let groups = grouped_reach_items(
                    &families,
                    &[
                        Kind::Summary,
                        Kind::Summary,
                        Kind::Summary,
                        Kind::Summary,
                        Kind::CscCheck,
                    ],
                    &mut rng,
                    seed,
                    &mut next_salt,
                );
                items.extend(groups.into_iter().flatten());
                breaks.extend((start..items.len()).step_by(WIDE_SEGMENT));
            }
        }
        Workload::HotRepeat => {
            items = hot_set(seed);
            let mut play = Vec::new();
            // Enough seeded passes over the set for any run length the
            // benchmark allows, at any plausible reply rate.
            for _ in 0..4000 {
                let mut pass: Vec<usize> = (0..items.len()).collect();
                rng.shuffle(&mut pass);
                play.extend(pass);
            }
            return Stream {
                items,
                play,
                warmup: true,
                laps: vec![0],
                breaks: Vec::new(),
            };
        }
    }
    let play = (0..items.len()).collect();
    breaks.retain(|&position| position > 0);
    Stream {
        items,
        play,
        warmup: false,
        laps,
        breaks,
    }
}

/// The `hot_repeat` working set: 16 requests of all four kinds from the
/// small corpus, far below the memo cache's 256 entries.
fn hot_set(seed: u64) -> Vec<Item> {
    let corpus = small_structures();
    let find = |name: &str| -> Stg {
        corpus
            .iter()
            .find(|(_, base, _)| base == name)
            .map(|(_, _, stg)| stg.clone())
            .expect("hot-set structure exists")
    };
    let mut items = Vec::new();
    let mut index = 0usize;
    let mut next = || {
        index += 1;
        salt(seed, index)
    };
    for (kind, names) in [
        (
            Kind::Summary,
            ["fifo", "celement", "chain4", "ring6_2", "vme_read"],
        ),
        (
            Kind::CscCheck,
            ["fifo_csc", "handshake", "xyz", "arbiter2", "pipeline_stage"],
        ),
    ] {
        for name in names {
            let stg = find(name);
            let reference = Reference::of(&stg);
            items.push(reach_item(
                kind,
                &("corpus", name.to_string(), stg),
                reference,
                &next(),
            ));
        }
    }
    for spec in resolve_specs()
        .iter()
        .filter(|(_, base, _)| ["fifo", "vme_read", "pipeline_stage"].contains(&base.as_str()))
    {
        items.push(resolve_item(spec, &next()));
    }
    for pair in verify_pairs() {
        items.push(verify_item(&pair, &next()));
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded(stream: &Stream) -> Vec<u8> {
        let mut out = Vec::new();
        for &index in &stream.play {
            out.extend(rt_service::proto::encode_request(
                &stream.items[index].request,
            ));
        }
        out
    }

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        for workload in [
            Workload::ColdMix,
            Workload::HotRepeat,
            Workload::WideSymbolic,
        ] {
            let a = encoded(&build(workload, 7));
            let b = encoded(&build(workload, 7));
            assert_eq!(a, b, "{}", workload.name());
            let c = encoded(&build(workload, 8));
            assert_ne!(a, c, "{}: the seed must matter", workload.name());
        }
    }

    #[test]
    fn cold_streams_never_repeat_a_content_hash_or_a_structure_per_daemon() {
        for workload in [Workload::ColdMix, Workload::WideSymbolic] {
            let stream = build(workload, 11);
            let mut hashes = HashSet::new();
            let mut structures = HashSet::new();
            for (position, &index) in stream.play.iter().enumerate() {
                if stream.breaks.contains(&position) {
                    structures.clear();
                }
                let item = &stream.items[index];
                let stg = match &item.request.payload {
                    rt_service::RequestPayload::Summary { stg }
                    | rt_service::RequestPayload::CscCheck { stg } => {
                        assert!(
                            structures.insert(structure_key(stg)),
                            "{}: structure {} repeats within one daemon",
                            workload.name(),
                            item.base
                        );
                        stg
                    }
                    rt_service::RequestPayload::ResolveCsc { stg, .. } => stg,
                    rt_service::RequestPayload::Verify { spec, .. } => spec,
                };
                assert!(
                    hashes.insert((item.kind, stg.content_hash())),
                    "{}: content hash of {} repeats",
                    workload.name(),
                    item.base
                );
            }
            assert!(stream
                .laps
                .iter()
                .all(|lap| *lap == 0 || stream.breaks.contains(lap)));
        }
    }

    #[test]
    fn signal_budgets_hold() {
        for (workload, range) in [
            (Workload::ColdMix, 1..=16),
            (Workload::WideSymbolic, 24..=64),
        ] {
            for item in build(workload, 3).items {
                if let rt_service::RequestPayload::Summary { stg }
                | rt_service::RequestPayload::CscCheck { stg } = &item.request.payload
                {
                    assert!(range.contains(&stg.signal_count()), "{}", item.base);
                }
            }
        }
    }

    #[test]
    fn hot_set_is_sixteen_requests_of_every_kind() {
        let stream = build(Workload::HotRepeat, 5);
        assert_eq!(stream.items.len(), 16);
        for kind in [Kind::Summary, Kind::CscCheck, Kind::Resolve, Kind::Verify] {
            assert!(stream.items.iter().any(|item| item.kind == kind));
        }
    }

    #[test]
    fn salting_preserves_structure_and_changes_names() {
        let stg = models::fifo_stg();
        let salted = salted_stg(&stg, "x1");
        assert_eq!(structure_key(&stg), structure_key(&salted));
        assert_ne!(stg.content_hash(), salted.content_hash());
        assert_eq!(Reference::of(&stg), Reference::of(&salted));
    }
}
