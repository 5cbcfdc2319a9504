//! The benchmark's own seeded input generator.
//!
//! Everything the system under test receives is made here from `--seed`: the
//! corpus as a [`LogOp`] stream, the query lists as DSL text, and the write
//! batches.  The same seed gives the same inputs, byte for byte.  The generator
//! keeps a small model of what it has emitted ([`World`]) so that every op it
//! produces is valid — no operation of a workload is allowed to fail — and sums
//! the user payload bytes the disk-amplification metric divides by.
//!
//! This is the only module besides `sut.rs`/`layers.rs` that names a repo type,
//! and it names only the loggable write surface (`LogOp`, `LogReferent`,
//! `Marker`, `DataType`, `DublinCore`, `Value`, the id newtypes).

use graphitti_core::ontology::ConceptId;
use graphitti_core::relstore::Value;
use graphitti_core::xmlstore::DublinCore;
use graphitti_core::{DataType, LogOp, LogReferent, Marker, ObjectId, ReferentId};

/// Ops per ingest batch while loading the corpus.
pub const INGEST_BATCH: usize = 64;
/// Coordinate domains the sequences are spread over.
pub const DOMAINS: usize = 8;
/// Coordinate systems the images are spread over.
pub const SYSTEMS: usize = 2;
/// Size of the Dublin Core vocabulary.
pub const VOCAB: usize = 400;
/// Edge of the square image canvas.
pub const CANVAS: u64 = 1_000;
/// Query templates in every mix (equal weight).
pub const TEMPLATES: usize = 7;
/// Distinct queries in the hot list — fits the 256-entry result cache.
pub const HOT_QUERIES: usize = 64;
/// Ops per durable commit in the write path.
pub const COMMIT_OPS: usize = 2;

/// splitmix64: small, seedable, and the benchmark's own (a change to the repo's
/// `datagen` must not change the benchmark's inputs).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so adding draws to one
    /// stream never shifts another.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Skewed draw from `[0, n)`: low indexes are much likelier (u² law — a
    /// fifth of the draws land in the first 4 %).
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((u * u * n as f64) as usize).min(n - 1)
    }
}

/// How big the corpus is.  The default is the benchmark's; `--quick` shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct CorpusSize {
    /// Ontology terms defined up front.
    pub terms: usize,
    /// Sequence objects.
    pub sequences: usize,
    /// Image objects.
    pub images: usize,
    /// Annotations.
    pub annotations: usize,
}

impl CorpusSize {
    /// The measured corpus.  Its size is capped by set-up cost, not taste:
    /// `Checkpoint::decode` is quadratic in checkpoint bytes, and a run sets up
    /// and recovers several times (see README, "Findings").
    pub const FULL: CorpusSize =
        CorpusSize { terms: 64, sequences: 120, images: 60, annotations: 1_200 };
    /// The `--quick` smoke corpus.
    pub const QUICK: CorpusSize =
        CorpusSize { terms: 64, sequences: 40, images: 20, annotations: 240 };
}

#[derive(Debug, Clone, Copy)]
enum ObjectKind {
    Sequence { length: u64 },
    Image,
}

/// What the generator has emitted so far — enough to keep every later op valid
/// (known object ids and kinds, committed referent ids, defined terms).
#[derive(Debug, Clone)]
pub struct World {
    objects: Vec<ObjectKind>,
    referents: u64,
    terms: u32,
    /// User payload bytes emitted so far: object names + metadata text +
    /// annotation field text + 8 per marker coordinate + 4 per cited term.
    pub user_bytes: u64,
}

/// Deterministic two-syllable vocabulary word (never a DSL clause keyword).
pub fn word(index: usize) -> String {
    const SYLLABLES: [&str; 20] = [
        "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na", "pe", "qi", "ro", "su",
        "ta", "ve", "wi", "xo", "zu",
    ];
    let index = index % VOCAB;
    format!("{}{}n", SYLLABLES[index % 20], SYLLABLES[index / 20])
}

/// Name of a coordinate domain.
pub fn domain(index: usize) -> String {
    format!("chr{}", index % DOMAINS + 1)
}

/// Name of a coordinate system.
pub fn system(index: usize) -> String {
    format!("atlas{}", index % SYSTEMS + 1)
}

impl World {
    fn new() -> World {
        World { objects: Vec::new(), referents: 0, terms: 0, user_bytes: 0 }
    }

    fn define_term(&mut self, name: String) -> LogOp {
        self.terms += 1;
        self.user_bytes += name.len() as u64;
        LogOp::DefineTerm { name }
    }

    fn register_sequence(&mut self, rng: &mut Rng) -> LogOp {
        let id = self.objects.len();
        let length = rng.range(2_000, 10_000);
        let name = format!("seq-{id:05}");
        let dom = domain(id);
        // Name + the two text columns `register_sequence` fills + the domain.
        self.user_bytes += (name.len() + "unknown".len() + dom.len()) as u64;
        self.objects.push(ObjectKind::Sequence { length });
        LogOp::register_sequence(name, DataType::DnaSequence, length, dom)
    }

    fn register_image(&mut self) -> LogOp {
        let id = self.objects.len();
        let name = format!("img-{id:05}");
        let modality = "confocal";
        let cs = system(id);
        self.user_bytes += (name.len() + modality.len() + cs.len()) as u64;
        self.objects.push(ObjectKind::Image);
        // The row `Graphitti::register_image` builds: width, height, modality, system.
        LogOp::Register {
            data_type: DataType::Image,
            name,
            metadata: vec![
                Value::Int(CANVAS as i64),
                Value::Int(CANVAS as i64),
                Value::text(modality),
                Value::text(cs.clone()),
            ],
            payload: Vec::new(),
            domain: cs,
        }
    }

    /// A new mark on a skew-chosen object.  Interval starts cluster around four
    /// hot spots per sequence so that consecutive-interval chains exist.
    fn mark(&mut self, rng: &mut Rng, want_region: bool) -> LogReferent {
        // Find an object of the wanted kind near a skewed position.
        let n = self.objects.len();
        let mut at = rng.skewed(n);
        for _ in 0..n {
            let is_image = matches!(self.objects[at], ObjectKind::Image);
            if is_image == want_region {
                break;
            }
            at = (at + 1) % n;
        }
        let marker = match self.objects[at] {
            ObjectKind::Sequence { length } => {
                let spot = rng.below(4) * (length / 4);
                let start = (spot + rng.below(length / 8)).min(length - 210);
                let len = rng.range(20, 200);
                self.user_bytes += 16;
                Marker::interval(start, start + len)
            }
            ObjectKind::Image => {
                let x = rng.below(CANVAS - 100) as f64;
                let y = rng.below(CANVAS - 100) as f64;
                let w = rng.range(10, 100) as f64;
                let h = rng.range(10, 100) as f64;
                self.user_bytes += 32;
                Marker::region(x, y, x + w, y + h)
            }
        };
        self.referents += 1;
        LogReferent::New { object: ObjectId(at as u64), marker }
    }

    /// One annotation: 1–3 referents (≈60 % interval / 40 % region marks, a
    /// quarter of the annotations reuse one committed referent — never more
    /// than one, so the op is valid at any shard count), six skewed words plus
    /// the marker phrases, and a skew-chosen cited term on half of them.
    fn annotate(&mut self, rng: &mut Rng) -> LogOp {
        let mut referents = Vec::new();
        let count = rng.range(1, 4) as usize;
        if self.referents > 0 && rng.chance(0.25) {
            referents.push(LogReferent::Existing(ReferentId(rng.below(self.referents))));
        }
        while referents.len() < count {
            let want_region = rng.chance(0.4);
            referents.push(self.mark(rng, want_region));
        }

        let mut text = String::new();
        for i in 0..6 {
            if i > 0 {
                text.push(' ');
            }
            text.push_str(&word(rng.skewed(VOCAB)));
        }
        if rng.chance(0.20) {
            text.push_str(" protease cleavage site");
        }
        if rng.chance(0.15) {
            text.push_str(" protein TP53");
        }
        let creator = format!("curator-{}", rng.below(8));
        self.user_bytes += (text.len() + creator.len()) as u64;
        let content = DublinCore::new().description(text).creator(creator);

        let mut terms = Vec::new();
        if self.terms > 0 && rng.chance(0.5) {
            terms.push(ConceptId(rng.skewed(self.terms as usize) as u32));
            self.user_bytes += 4;
        }
        LogOp::Annotate { content, referents, terms }
    }
}

/// The generated corpus: ingest batches plus the world they leave behind.
pub struct Corpus {
    /// The `LogOp` stream, already cut into ingest batches of [`INGEST_BATCH`].
    pub batches: Vec<Vec<LogOp>>,
    /// Generator state after the corpus (write batches continue from it).
    pub world: World,
}

impl Corpus {
    /// Generate the corpus for `seed`.
    pub fn generate(seed: u64, size: CorpusSize) -> Corpus {
        let mut rng = Rng::new(seed, 1);
        let mut world = World::new();
        let mut ops = Vec::new();
        for t in 0..size.terms {
            ops.push(world.define_term(format!("term-{t:03}")));
        }
        // Spread the images evenly among the sequences (Bresenham), so a skewed
        // object draw meets both kinds.
        let objects = size.sequences + size.images;
        for i in 0..objects {
            if (i + 1) * size.images / objects > i * size.images / objects {
                ops.push(world.register_image());
            } else {
                ops.push(world.register_sequence(&mut rng));
            }
        }
        for _ in 0..size.annotations {
            ops.push(world.annotate(&mut rng));
        }
        let batches = ops.chunks(INGEST_BATCH).map(<[LogOp]>::to_vec).collect();
        Corpus { batches, world }
    }

    /// Total ops in the corpus.
    pub fn op_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

/// One query of a list: its DSL text and which template (0-based) made it.
#[derive(Debug, Clone)]
pub struct QueryOp {
    /// The DSL text sent over the wire.
    pub text: String,
    /// Template index, `0..TEMPLATES` (`T1` is 0).
    pub template: usize,
}

fn rect_text(rng: &mut Rng) -> String {
    let x = rng.below(CANVAS - 500);
    let y = rng.below(CANVAS - 500);
    let w = rng.range(200, 500);
    let h = rng.range(200, 500);
    format!("{x} {y} {} {}", x + w, y + h)
}

/// Instantiate template `template`.  `u` in `[0, 1)` places the template's
/// popularity-like parameter (which word, which term, which domain): low `u` is
/// the popular end; `v` and `w` place the start and the width of `T5`'s
/// interval window.  `term` is the cited term of the two templates (`T2`, `T7`)
/// whose only parameter it is.  Everything else is drawn from `rng`.
fn instantiate(
    template: usize,
    rng: &mut Rng,
    size: &CorpusSize,
    [u, v, w]: [f64; 3],
    term: usize,
) -> String {
    // Skewed like the corpus text: frequent words are likelier, so conjunctions
    // find something.
    let skewed = |n: usize| ((u * u * n as f64) as usize).min(n - 1);
    match template {
        0 => {
            let first = word((u * VOCAB as f64) as usize);
            if rng.chance(0.4) {
                format!(
                    "SELECT contents WHERE content keywords {first} {}",
                    word(rng.skewed(VOCAB))
                )
            } else {
                format!("SELECT contents WHERE content keywords {first}")
            }
        }
        1 => format!(
            "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term {term}"
        ),
        2 => format!(
            "SELECT graphs WHERE content contains \"protein TP53\" AND ontology term {} \
             AND constraint regions 2 {} {}",
            skewed(size.terms),
            system(rng.below(SYSTEMS as u64) as usize),
            rect_text(rng)
        ),
        3 => format!(
            "SELECT referents WHERE content keywords protease {} AND constraint consecutive 2 2000",
            word(skewed(VOCAB))
        ),
        4 => {
            let start = (v * 8_000.0) as u64;
            format!(
                "SELECT graphs WHERE content contains \"protease\" AND referent interval {} {start} {}",
                domain((u * DOMAINS as f64) as usize),
                start + 500 + (w * 2_500.0) as u64
            )
        }
        5 => format!(
            "SELECT referents WHERE referent region {} {} AND content contains \"protein TP53\"",
            system(rng.below(SYSTEMS as u64) as usize),
            rect_text(rng)
        ),
        _ => format!("SELECT graphs WHERE ontology term {term}"),
    }
}

/// Rounds (one query of each template) a text must stay away from its own
/// recurrence: 64 rounds = 448 list positions, all distinct in between — more
/// than the 256-entry LRU keeps.
const RECURRENCE_ROUNDS: usize = 64;

/// How a list places each query's popularity-like parameter.
#[derive(Clone, Copy, PartialEq)]
enum Placement {
    /// Independent draws: fine for a long list, whose mix converges by itself.
    Random,
    /// Round `i` of `n` draws each coordinate inside one of `n` equal strata
    /// (each coordinate visits the strata in its own order), and the term-only
    /// templates take evenly spaced term ranks: a short list then has the same
    /// popular-to-rare profile, and its interval windows the same spread of
    /// positions and widths, on every seed.  Measured on the 64-query hot list:
    /// the seed-to-seed spread of `query_p10_ms` was 16 % with nothing
    /// stratified and is 5–15 % so; what is left is nearly all `T5`, whose
    /// answers double (≈ 125 µs against ≈ 235 µs) on the seeds where a popular
    /// sequence's hot spots fall inside the windows.
    Stratified,
}

/// A query list of `per_template × TEMPLATES` entries, templates interleaved
/// `T1 T2 … T7 T1 …`.  No text recurs within [`RECURRENCE_ROUNDS`] rounds, also
/// across the wrap when the list is replayed cyclically: the two term-only
/// templates walk the terms (a seeded permutation of them, or evenly spaced
/// ranks), so `per_template` must be a multiple of the term count, or at most
/// it; the others are redrawn while they collide with a neighbour in that window.
fn query_list(
    seed: u64,
    stream: u64,
    size: &CorpusSize,
    per_template: usize,
    placement: Placement,
) -> Vec<QueryOp> {
    assert!(per_template <= size.terms || per_template.is_multiple_of(size.terms));
    let mut rng = Rng::new(seed, stream);
    let mut perm: Vec<usize> = (0..size.terms).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut by_template: Vec<Vec<String>> = vec![Vec::new(); TEMPLATES];
    let mut list = Vec::with_capacity(per_template * TEMPLATES);
    for round in 0..per_template {
        for (template, history) in by_template.iter_mut().enumerate() {
            // Strides coprime with the hot list's 10 rounds, so that each
            // coordinate meets every stratum once.
            let place = |rng: &mut Rng| {
                [1, 3, 7].map(|stride| match placement {
                    Placement::Random => rng.unit(),
                    Placement::Stratified => {
                        ((round * stride % per_template) as f64 + rng.unit()) / per_template as f64
                    }
                })
            };
            let term = match placement {
                Placement::Random => perm[round % perm.len()],
                Placement::Stratified => (2 * round + 1) * size.terms / (2 * per_template),
            };
            let at = place(&mut rng);
            let mut text = instantiate(template, &mut rng, size, at, term);
            if template != 1 && template != 6 {
                let behind = round.saturating_sub(RECURRENCE_ROUNDS - 1);
                let ahead = (round + RECURRENCE_ROUNDS).saturating_sub(per_template).min(behind);
                while history[behind..].contains(&text) || history[..ahead].contains(&text) {
                    let at = place(&mut rng);
                    text = instantiate(template, &mut rng, size, at, term);
                }
            }
            history.push(text.clone());
            list.push(QueryOp { text, template });
        }
    }
    list
}

/// Entries per template in the cold list: 9 walks of the 64 terms.
pub const COLD_PER_TEMPLATE: usize = 576;

/// The cold list: 4 032 queries (7 × 576) that never repeat within 448
/// positions, so replayed cyclically a 256-entry LRU cannot hit.
pub fn cold_queries(seed: u64, size: &CorpusSize) -> Vec<QueryOp> {
    query_list(seed, 2, size, COLD_PER_TEMPLATE, Placement::Random)
}

/// The hot list: 64 distinct queries (9 per template, plus one more `T1`),
/// stratified from each template's popular end to its rare end.
pub fn hot_queries(seed: u64, size: &CorpusSize) -> Vec<QueryOp> {
    let mut list = query_list(seed, 3, size, HOT_QUERIES / TEMPLATES + 1, Placement::Stratified);
    list.truncate(HOT_QUERIES);
    list
}

/// The one `constraint path` query the traced run times on its own: every
/// object marked by a "protease" annotation, kept if some such annotation
/// reaches it within 6 hops of the a-graph.
pub fn path_query() -> &'static str {
    "SELECT graphs WHERE content contains \"protease\" AND constraint path 6"
}

/// The write-batch generator: an endless, deterministic stream of 2-op commits
/// whose kinds cycle ingest : ontology : annotation = 6 : 1 : 3.
pub struct WriteStream {
    rng: Rng,
    world: World,
    next: usize,
}

/// Commit kinds, in the order their latencies are grouped.
pub const COMMIT_KINDS: [&str; 3] = ["ingest", "ontology", "annotation"];

/// Kind of each commit in the cycle (indexes into [`COMMIT_KINDS`]): the
/// `datagen::mixed` ratios, 6 : 1 : 3.
const KIND_CYCLE: [usize; 10] = [0, 0, 2, 0, 1, 0, 2, 0, 0, 2];

impl WriteStream {
    /// Continue from the corpus's world with the seed's write stream.
    pub fn new(seed: u64, corpus: &Corpus) -> WriteStream {
        WriteStream { rng: Rng::new(seed, 5), world: corpus.world.clone(), next: 0 }
    }

    /// The next commit: its kind (index into [`COMMIT_KINDS`]) and its ops.
    pub fn next_batch(&mut self) -> (usize, Vec<LogOp>) {
        let kind = KIND_CYCLE[self.next % KIND_CYCLE.len()];
        let serial = self.next;
        self.next += 1;
        let ops = (0..COMMIT_OPS)
            .map(|i| match kind {
                0 if (serial + i).is_multiple_of(3) => self.world.register_image(),
                0 => self.world.register_sequence(&mut self.rng),
                1 => self.world.define_term(format!("curated-{serial:05}-{i}")),
                _ => self.world.annotate(&mut self.rng),
            })
            .collect();
        (kind, ops)
    }

    /// User payload bytes emitted so far, corpus included.
    pub fn user_bytes(&self) -> u64 {
        self.world.user_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = Corpus::generate(7, CorpusSize::QUICK);
        let b = Corpus::generate(7, CorpusSize::QUICK);
        assert_eq!(a.batches, b.batches);
        assert_eq!(a.world.user_bytes, b.world.user_bytes);
        assert_ne!(a.batches, Corpus::generate(8, CorpusSize::QUICK).batches);
    }

    #[test]
    fn cold_list_never_recurs_within_the_lru_horizon() {
        let list = cold_queries(11, &CorpusSize::FULL);
        assert_eq!(list.len(), COLD_PER_TEMPLATE * TEMPLATES);
        let horizon = RECURRENCE_ROUNDS * TEMPLATES;
        for (i, op) in list.iter().enumerate() {
            assert_eq!(op.template, i % TEMPLATES);
            for d in 1..horizon {
                assert_ne!(
                    op.text,
                    list[(i + d) % list.len()].text,
                    "position {i} recurs after {d}"
                );
            }
        }
    }

    #[test]
    fn hot_list_is_64_distinct_queries() {
        let list = hot_queries(11, &CorpusSize::FULL);
        assert_eq!(list.len(), HOT_QUERIES);
        let distinct: std::collections::HashSet<&str> =
            list.iter().map(|q| q.text.as_str()).collect();
        assert_eq!(distinct.len(), HOT_QUERIES);
    }
}
