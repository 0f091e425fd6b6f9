// Package modelcheck explores the complete state space of small generalized
// dining-philosopher systems and analyses it as a Markov decision process
// (MDP): the adversary chooses which philosopher moves, the random draws of
// the algorithms resolve probabilistically.
//
// The paper's positive and negative results are statements about this MDP:
//
//   - Theorems 1 and 2 assert that, on suitable topologies, there EXISTS a
//     fair adversary under which LR1 (respectively LR2) makes no progress
//     with positive probability.
//   - Theorems 3 and 4 assert that under EVERY fair adversary GDP1 makes
//     progress (and GDP2 serves every philosopher) with probability 1.
//
// The corresponding verifiable structure is an end component of the
// "no protected philosopher eats" sub-MDP that offers an allowed action for
// every philosopher: inside such a component the adversary can stay forever
// with probability 1 while scheduling every philosopher infinitely often
// (fairness), so its existence is exactly the negative result, and its
// absence on every reachable part of the state space certifies the positive
// result for the explored instance. FindStarvationTrap computes it. The
// graph and game algorithms themselves live in internal/graphalg and operate
// on the read-only graphalg.StateView interface, which StateSpace
// implements; this package owns only the storage and the exploration.
//
// # Sharded storage
//
// The explored MDP is stored in 2^k independently-owned shards (Options.
// Shards). Each shard holds its own intern table (canonical key → id), key
// arena and flat trans/succs/probs arrays; a state belongs to the shard
// selected by a deterministic FNV-1a hash of its canonical key, and its
// shard-internal address is the packed id shard<<localBits | local. During
// exploration every shard is written by exactly one goroutine at a time, so
// interning and appending need no locks and no global merge.
//
// On top of the shards sits the dense view: states are also numbered
// 0..NumStates-1 in exploration (breadth-first discovery) order, which is
// the numbering every exported method and analysis uses. The dense order is
// identical for every (workers, shards) combination — it equals the
// numbering of a state-by-state breadth-first search — so verdicts,
// witnesses and counterexample traces never depend on how the exploration
// was parallelized; only the internal shard layout does. The tests in
// golden_test.go pin both against the reference exploration in
// modelchecktest.
//
// # Exploration order and parallelism
//
// Explore is a level-synchronous breadth-first search. Each BFS level runs
// four phases:
//
//  1. Expand: workers expand disjoint contiguous chunks of the level against
//     the read-only shard intern tables and record, per chunk, the outcome
//     probabilities and successor references: dense ids for known states,
//     pending entries (key bytes and origin) for the others.
//  2. Intern: one goroutine per shard replays every chunk's pending keys in
//     (chunk, encounter) order and interns the ones hashing to its shard,
//     assigning packed ids and copying each created state's key into the
//     shard's key arena — disjoint shards, no lock, no global merge. The
//     first entry of a key creates its state; later entries resolve to it.
//  3. Gather: workers assign the new states their dense ids — the (chunk,
//     encounter) order of the creating entries is exactly breadth-first
//     discovery order — rebuild their worlds, record state labels, and
//     build the next frontier.
//  4. Rows: one goroutine per shard writes the transition rows of the level
//     states it owns, in frontier order, resolving pending references
//     through the intern results.
//
// There is one code path for every (workers, shards) pair: at workers = 1
// the phases run inline on the calling goroutine. Duplicates within a level
// are resolved by the intern phase alone, so the expand phase keeps only the
// key bytes of a locally new successor, and the gather phase recomputes the
// world of each state that was actually created from its parent.
//
// A level whose creations would cross Options.MaxStates is cut between the
// intern and gather phases: prefix sums of the per-frontier-state created
// counts give the first frontier state after whose expansion the cap is
// crossed, the creations of later frontier states are withdrawn from their
// shards, and only the states up to the cut are expanded. This is the point
// at which a state-by-state breadth-first search stops, for every (workers,
// shards) pair.
//
// The program's Outcomes and Apply run inside the expand and gather phases,
// on worker goroutines when workers > 1. A panic there — programs may be
// registered from outside the repository — is recovered and returned as
// Explore's error, naming the phase and the frontier state being expanded
// ("modelcheck: expand phase, state 17 panicked: ..."). The state is the
// lowest-numbered one whose expansion panicked, so the error is the same for
// every (workers, shards) pair.
package modelcheck

import (
	"fmt"
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/sim"
)

// Options configures an exploration.
type Options struct {
	// MaxStates caps the number of distinct states explored; beyond it the
	// exploration stops and the result is marked Truncated. Zero means
	// DefaultMaxStates.
	MaxStates int
	// Protected is the set of philosophers whose meals count as "bad" for the
	// starvation-trap analysis; nil or empty means all philosophers.
	Protected []graph.PhilID
	// Hunger overrides the AlwaysHungry workload (rarely useful: the paper's
	// progress analysis assumes saturated demand). When set, exploration
	// clones carry the full run metrics so that metric-reading models
	// (sim.NeverHungryAgainAfter) keep working; the default workload uses
	// the faster protocol-only clones.
	Hunger sim.HungerModel
	// KeepKeys retains the canonical key of every state for debugging and
	// witness extraction (StateSpace.KeyOf, Trap.WitnessKey). Off by default:
	// on large instances the per-state key copies dominate the exploration's
	// memory footprint, and the analyses never need them.
	KeepKeys bool
	// Interrupt is polled periodically during exploration when non-nil; a
	// non-nil return aborts Explore with that error. It is how context
	// cancellation reaches the exploration loop.
	Interrupt func() error
	// Workers bounds the exploration goroutines (0 = one per CPU; 1 runs
	// every phase inline on the calling goroutine). The explored space is
	// identical for every value; only wall-clock changes.
	Workers int
	// Shards is the number of independently-owned state stores (rounded up
	// to a power of two, capped at MaxShards; 0 = match the resolved worker
	// count). Workers intern and append into disjoint shards, with no
	// global per-level merge; the dense state numbering — and therefore
	// every analysis, verdict and counterexample — is identical for every
	// value. Negative values are an error.
	Shards int
	// Symmetry, when non-nil and non-trivial, interns orbit-canonical keys
	// (sim.World.AppendCanonicalKey) instead of plain keys, quotienting the
	// state space by the canonicalizer's automorphism group: each stored
	// state is the first-discovered (representative) world of its orbit, and
	// the dense discovery-order numbering stays deterministic for every
	// (workers, shards) pair. Off (nil) by default; the nil path is
	// byte-identical to the unreduced exploration. The caller is responsible
	// for only quotienting by groups the program is equivariant under (see
	// dining.WithSymmetry for the gating) and for the canonicalizer matching
	// the explored topology. Crashed philosophers need no special casing:
	// the crashed flag rides in the permuted key image, so a crash pattern
	// only collides with its genuine automorphic images.
	Symmetry *graph.OrbitCanonicalizer
}

// DefaultMaxStates bounds explorations when Options.MaxStates is zero.
const DefaultMaxStates = 2_000_000

// maskablePhils is the philosopher-count ceiling for the per-state eating
// bitmasks behind FindStarvationTrapAgainst. Instances beyond it (far larger
// than anything exhaustively explorable) simply skip the masks.
const maskablePhils = 64

const (
	// localBits is the width of the shard-local index inside a packed state
	// id: packed = shard<<localBits | local.
	localBits = 25
	// localMask extracts the shard-local index from a packed id.
	localMask = 1<<localBits - 1
	// MaxShards is the shard-count ceiling. MaxShards<<localBits is exactly
	// 1<<31, so every packed id fits an int32.
	MaxShards = 64
)

// transition is one (state, philosopher) action: a window into the owning
// shard's succs/probs backing arrays. Storing offsets instead of per-action
// slices keeps each shard's MDP fragment in three flat allocations instead
// of ~2·NumPhils+1 small ones per state.
type transition struct {
	// off is the offset of the action's first outcome in succs/probs.
	off int32
	// n is the number of outcomes.
	n int32
}

// shardStore is one independently-owned fragment of the explored MDP. All
// per-state arrays are indexed by the shard-local index of the packed id;
// succs holds dense state ids, so reading a transition row never needs a
// cross-shard translation.
type shardStore struct {
	// index dedupes states by canonical key; the value is the packed id.
	// During a parallel expansion phase the map is strictly read-only
	// (workers probe it concurrently with the no-copy string(buf) idiom);
	// all writes happen in the per-shard intern phase between levels.
	index map[string]int32
	// dense maps the shard-local index to the state's dense id.
	dense []int32
	// trans holds NumPhils consecutive transitions per state: the transition
	// of philosopher a from local state l is trans[l*NumPhils+a].
	trans []transition
	// succs and probs are the flat backing arrays shared by every transition
	// of this shard: succs[t.off+i] is the dense id of the state reached by
	// outcome i and probs[t.off+i] its probability.
	succs []int32
	probs []float64
	// keys holds the canonical key of every state (local-index-aligned).
	// Retained only when Options.KeepKeys is set; nil otherwise.
	keys []string
}

// StateSpace is the explored MDP: 2^k shard stores plus the dense
// exploration-order view over them. It implements graphalg.StateView; all
// exported state indices are dense ids.
type StateSpace struct {
	topo   *graph.Topology
	prog   sim.Program
	hunger sim.HungerModel

	// NumPhils is the number of philosophers (actions per state).
	NumPhils int
	// shards are the per-shard stores; len(shards) is a power of two.
	shards []shardStore
	// shardMask is len(shards)-1, the mask applied to the key hash.
	shardMask uint32
	// order maps dense ids to packed ids — the remap between the analysis
	// view and the sharded storage.
	order []int32
	// bad[s] reports whether a protected philosopher is eating in dense
	// state s.
	bad []bool
	// anyEating[s] reports whether any philosopher is eating in state s.
	anyEating []bool
	// eating[s] is the bitmask of philosophers eating in state s, backing
	// FindStarvationTrapAgainst; nil when NumPhils > maskablePhils.
	eating []uint64
	// expanded[s] reports whether state s had its outgoing transitions fully
	// computed. States discovered but not expanded (possible only when
	// Truncated) are excluded from the safety analyses so that truncation can
	// never fabricate a trap.
	expanded []bool
	// hasKeys records whether the exploration retained canonical keys.
	hasKeys bool
	// Truncated reports whether MaxStates was hit; analyses on a truncated
	// space are only valid for the explored fragment. It shares the padding
	// slot of hasKeys, which keeps the struct inside the allocation size
	// class it occupied before the symmetry surface was added.
	Truncated bool
	// sym carries the symmetry-quotient surface behind one pointer, so an
	// unreduced space pays a single word and keeps its pre-symmetry
	// allocation size class; nil when the space is unreduced (including
	// trivial-group requests).
	sym *symSpace
	// initial is the dense index of the initial state (always 0).
	initial int
	// workers is the resolved exploration worker count; the lazily built
	// predecessor index reuses it for its parallel construction.
	workers int
	// predOnce/pred cache the reverse-CSR predecessor index shared by every
	// analysis of this space (see PredecessorIndex).
	predOnce sync.Once
	pred     *graphalg.PredecessorIndex
}

// PredecessorIndex returns the reverse-CSR predecessor index of the explored
// MDP, building it on first use (in parallel over state chunks, with the
// exploration's worker count) and caching it on the space — all worklist
// analyses of one space, including every property of one Engine.Check run
// and the per-philosopher trap checks of lockout-freedom, share the one
// index. The index is immutable and safe for concurrent use.
func (ss *StateSpace) PredecessorIndex() *graphalg.PredecessorIndex {
	ss.predOnce.Do(func() {
		ss.pred = graphalg.NewPredecessorIndex(ss, ss.workers)
	})
	return ss.pred
}

// NumStates returns the number of distinct states explored.
func (ss *StateSpace) NumStates() int { return len(ss.bad) }

// NumActions returns the number of actions per state (one per philosopher).
// It implements graphalg.StateView.
func (ss *StateSpace) NumActions() int { return ss.NumPhils }

// Initial returns the dense index of the initial state.
func (ss *StateSpace) Initial() int { return ss.initial }

// NumShards returns the number of shard stores the space is split into.
func (ss *StateSpace) NumShards() int { return len(ss.shards) }

// locate resolves a dense id to its owning shard store and local index.
func (ss *StateSpace) locate(s int) (*shardStore, int32) {
	p := ss.order[s]
	return &ss.shards[p>>localBits], p & localMask
}

// Succs returns the dense ids of the successor states of philosopher a's
// action from dense state s. The returned slice aliases the owning shard's
// backing array and must not be modified. It implements graphalg.StateView.
func (ss *StateSpace) Succs(s, a int) []int32 {
	st, l := ss.locate(s)
	t := st.trans[int(l)*ss.NumPhils+a]
	return st.succs[t.off : t.off+t.n]
}

// Probs returns the outcome probabilities of philosopher a's action from
// dense state s, aligned with Succs. The returned slice aliases the owning
// shard's backing array and must not be modified.
func (ss *StateSpace) Probs(s, a int) []float64 {
	st, l := ss.locate(s)
	t := st.trans[int(l)*ss.NumPhils+a]
	return st.probs[t.off : t.off+t.n]
}

// Bad reports whether a protected philosopher is eating in state s. It
// implements graphalg.StateView.
func (ss *StateSpace) Bad(s int) bool { return ss.bad[s] }

// Expanded reports whether state s had its outgoing transitions fully
// computed (false only on truncated explorations). It implements
// graphalg.StateView.
func (ss *StateSpace) Expanded(s int) bool { return ss.expanded[s] }

// KeyOf returns the intern key of state s — under a symmetry quotient the
// orbit-canonical key, otherwise the plain world key — or "" when the
// exploration did not retain keys (Options.KeepKeys).
func (ss *StateSpace) KeyOf(s int) string {
	if !ss.hasKeys {
		return ""
	}
	st, l := ss.locate(s)
	return st.keys[l]
}

// symSpace is the symmetry-quotient surface of a StateSpace, allocated only
// for reduced explorations so the unreduced struct layout — and with it the
// byte-identical symmetry-off exploration — is preserved.
type symSpace struct {
	// canon is the orbit canonicalizer the space was quotiented by.
	canon *graph.OrbitCanonicalizer
	// repKeys holds, per dense state, the plain (unreduced) key of the
	// orbit's representative world — the first-discovered concrete state.
	// Retained only when Options.KeepKeys is also set.
	repKeys []string
}

// Symmetric reports whether the space was explored under a symmetry quotient
// (Options.Symmetry with a non-trivial group).
func (ss *StateSpace) Symmetric() bool { return ss.sym != nil }

// Canonicalizer returns the orbit canonicalizer the space was quotiented by,
// or nil for an unreduced space.
func (ss *StateSpace) Canonicalizer() *graph.OrbitCanonicalizer {
	if ss.sym == nil {
		return nil
	}
	return ss.sym.canon
}

// RepresentativeKeyOf returns the plain (unreduced) key of the representative
// world of dense state s — the first concrete state of its orbit in discovery
// order. Retained only on symmetry-quotient explorations with
// Options.KeepKeys; "" otherwise.
func (ss *StateSpace) RepresentativeKeyOf(s int) string {
	if ss.sym == nil || ss.sym.repKeys == nil {
		return ""
	}
	return ss.sym.repKeys[s]
}

// denseOf returns the dense id of the state interned under key, or -1 when
// the key was never interned.
func (ss *StateSpace) denseOf(key []byte) int32 {
	st := &ss.shards[ss.shardOf(key)]
	packed, ok := st.index[string(key)]
	if !ok {
		return -1
	}
	return st.dense[packed&localMask]
}

// NumTransitions returns the total number of (state, philosopher) actions.
func (ss *StateSpace) NumTransitions() int { return ss.NumStates() * ss.NumPhils }

// NumBadStates returns the number of states in which a protected philosopher
// is eating.
func (ss *StateSpace) NumBadStates() int {
	n := 0
	for _, b := range ss.bad {
		if b {
			n++
		}
	}
	return n
}

// fnvShard hashes a canonical key with FNV-1a over little-endian 64-bit
// words (bytes for the tail) — a fixed, seedless hash, so the shard layout
// is deterministic across runs and processes (unlike Go's randomized map
// hash). Hashing words rather than bytes keeps the per-successor hash cheap
// on the parallel path; the shard comes from the top bits, which every key
// bit reaches through the multiplies. One generic body serves both key
// representations; exploration hashes the scratch []byte, tests and tools
// the interned string.
func fnvShard[T ~string | ~[]byte](key T, mask uint32) uint32 {
	if mask == 0 {
		return 0
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	i := 0
	for ; i+8 <= len(key); i += 8 {
		w := uint64(key[i]) | uint64(key[i+1])<<8 | uint64(key[i+2])<<16 | uint64(key[i+3])<<24 |
			uint64(key[i+4])<<32 | uint64(key[i+5])<<40 | uint64(key[i+6])<<48 | uint64(key[i+7])<<56
		h = (h ^ w) * prime
	}
	for ; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	return uint32(h>>58) & mask // MaxShards = 64 needs at most the top 6 bits
}

// shardOf returns the owning shard of a canonical key.
func (ss *StateSpace) shardOf(key []byte) uint32 { return fnvShard(key, ss.shardMask) }

// shardOfString is shardOf for an already-materialized key string.
func (ss *StateSpace) shardOfString(key string) uint32 { return fnvShard(key, ss.shardMask) }

// byteArena interns byte strings into large shared chunks: the returned
// string views the arena's backing array directly, so interning a key costs
// an amortized chunk allocation instead of one string copy per state. A
// chunk is never reallocated once strings point into it (growth switches to
// a fresh chunk), so the returned strings stay valid for the lifetime of
// whatever retains them.
type byteArena struct {
	buf []byte
}

// Chunk sizes of byteArena: the first chunk holds arenaMinChunk bytes and
// each next one twice the previous, up to arenaChunkSize, so a small state
// space does not pay for a full chunk.
const (
	arenaMinChunk  = 1 << 12
	arenaChunkSize = 1 << 16
)

// intern copies b into the arena and returns a stable string view of it.
func (a *byteArena) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if cap(a.buf)-len(a.buf) < len(b) {
		size := min(max(2*cap(a.buf), arenaMinChunk), arenaChunkSize)
		a.buf = make([]byte, 0, max(size, len(b)))
	}
	off := len(a.buf)
	a.buf = append(a.buf, b...)
	return unsafe.String(&a.buf[off], len(b))
}

// frontEntry is one state of the current BFS level: its world and its packed
// id. The dense id is implicit — the level's states are dense-contiguous, so
// the dense id of front[i] is levelStart+i.
type frontEntry struct {
	w      *sim.World
	packed int32
}

// pending is one successor that missed the shard index during expansion,
// recorded in encounter order. Duplicates within a level are recorded once
// per encounter; the intern phase resolves them. The fields are written
// only by the expand phase, so the later phases read them concurrently.
type pending struct {
	// end is the end offset of the canonical key in scratch.pkeys; the key
	// starts at the previous entry's end.
	end int32
	// parent is the chunk-local index of the frontier state, and phil and
	// outcome the action and outcome, that produced the successor — enough
	// for the gather phase to recompute its world.
	parent, phil, outcome int32
	// shard is the owning shard, hashed once at expansion.
	shard uint8
}

// scratch is the reusable per-chunk state of the expand and gather phases:
// key and outcome buffers, a world free-list, and the chunk's expansion
// record awaiting the per-shard phases.
type scratch struct {
	keyBuf     []byte
	obuf, sbuf []sim.Outcome
	// tmp is the world each successor is computed into during expansion; a
	// successor is never retained there, so one world per worker suffices.
	tmp *sim.World
	// free recycles protocol-clone worlds: the gather phase returns each
	// frontier world once its last created child is built, and takes the
	// created worlds from here. Disabled (noRecycle) under a custom hunger
	// model, whose full clones carry metric slices the protocol-clone path
	// must not reuse.
	free      []*sim.World
	noRecycle bool
	// arena holds the representative keys the gather phase records under a
	// symmetry quotient with Options.KeepKeys.
	arena byteArena

	// Expansion record, flattened in (state, action, outcome) order.
	counts    []int32   // per (state, action): number of outcomes
	probs     []float64 // per outcome: probability
	refs      []int32   // per outcome: >= 0 dense state id, else ^pending index
	shardOuts []int     // per shard: outcomes of this chunk's states it owns
	pkeys     []byte    // canonical keys of the pending entries, concatenated
	pend      []pending
	// Intern results, one per pending entry, each written by the owning
	// shard's goroutine: resolve holds the packed id of the entry's state and
	// created whether this entry created it.
	resolve []int32
	created []bool
	err     error
	// at is the chunk-local index of the frontier state being expanded, or
	// whose child is being rebuilt, so a panic can name the state.
	at int
}

func (s *scratch) takeFree() *sim.World {
	if n := len(s.free); n > 0 {
		w := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return w
	}
	return nil
}

func (s *scratch) putFree(w *sim.World) {
	if !s.noRecycle {
		s.free = append(s.free, w)
	}
}

// key returns the canonical key of pending entry li.
func (s *scratch) key(li int) []byte {
	start := int32(0)
	if li > 0 {
		start = s.pend[li-1].end
	}
	return s.pkeys[start:s.pend[li].end]
}

// shardScratch is the per-shard intern-phase state.
type shardScratch struct {
	// arena holds the canonical keys of the shard's states; the intern
	// phase copies only the keys of states it creates into it.
	arena byteArena
	// newPerChunk[ci] counts the states this shard created from chunk ci's
	// pendings in the last intern phase.
	newPerChunk []int
	err         error
}

// phase names one of the four per-level phases.
type phase uint8

const (
	phaseExpand phase = iota
	phaseIntern
	phaseGather
	phaseRows
)

// explorer carries the shared state of one Explore call.
type explorer struct {
	ss *StateSpace
	// opts is the caller's Options with every knob normalized in place —
	// MaxStates resolved against the default, Symmetry trivial-group
	// requests cleared to nil — so the explorer carries no duplicate
	// resolved fields.
	opts      Options
	protected map[graph.PhilID]bool
	workers   int

	scratches []scratch      // one per chunk
	shardScr  []shardScratch // one per shard
	wg        sync.WaitGroup

	// front holds the current BFS level in discovery order; nextFront
	// collects the next level in the gather phase. levelStart is the dense
	// id of front[0], d0 the dense id of the level's first creation.
	front      []frontEntry
	nextFront  []frontEntry
	levelStart int
	d0         int
	// The level is split into active contiguous chunks: chunk ci is
	// front[chunkLo[ci]:chunkLo[ci+1]]. chunkNew[ci] counts the states its
	// pendings created and chunkBase[ci] is their dense offset from d0.
	active    int
	chunkLo   []int
	chunkNew  []int
	chunkBase []int
}

// isProtected reports whether p's meals count as "bad".
func (e *explorer) isProtected(p graph.PhilID) bool {
	return len(e.protected) == 0 || e.protected[p]
}

// appendKey appends the intern key of w: the orbit-canonical encoding under a
// symmetry quotient, the plain encoding otherwise. The nil-canon branch keeps
// the unreduced path byte-identical to a plain AppendKey call.
func (e *explorer) appendKey(w *sim.World, buf []byte) []byte {
	if c := e.opts.Symmetry; c != nil {
		return w.AppendCanonicalKey(c, buf)
	}
	return w.AppendKey(buf)
}

// keepRepKeys reports whether the exploration records the plain key of each
// orbit's representative world alongside the canonical ones.
func (e *explorer) keepRepKeys() bool {
	return e.opts.Symmetry != nil && e.opts.KeepKeys
}

// clone copies src for one explored transition, reusing spare when possible.
// With a custom hunger model the clones must carry run metrics (the model
// may read them, e.g. NeverHungryAgainAfter reads EatsBy), so fall back to
// full Clone and skip recycling.
func (e *explorer) clone(src, spare *sim.World) *sim.World {
	if e.opts.Hunger != nil {
		return src.Clone()
	}
	return src.CloneProtocolInto(spare)
}

// successor computes outcome i of philosopher pid's n-outcome action from w
// into a clone of w (reusing spare when possible). The outcome set is
// recomputed on the clone and must match the parent's in size.
func (e *explorer) successor(s *scratch, w, spare *sim.World, pid graph.PhilID, i, n int) (*sim.World, error) {
	prog := e.ss.prog
	succ := e.clone(w, spare)
	succOut := prog.Outcomes(succ, pid, s.sbuf[:0])
	s.sbuf = succOut
	if len(succOut) != n {
		return nil, fmt.Errorf("modelcheck: %s produced unstable outcome sets for P%d", prog.Name(), pid)
	}
	succOut[i].Do(succ, pid)
	succ.Step++
	return succ, nil
}

// label records the per-state labels of the new dense state d, whose world
// is w.
func (e *explorer) label(s *scratch, d int, w *sim.World) {
	ss := e.ss
	var bad, eat bool
	var mask uint64
	for p := range w.Phils {
		if w.Phils[p].Phase == sim.Eating {
			eat = true
			if p < maskablePhils {
				mask |= 1 << uint(p)
			}
			if e.isProtected(graph.PhilID(p)) {
				bad = true
			}
		}
	}
	ss.bad[d] = bad
	ss.anyEating[d] = eat
	if ss.eating != nil {
		ss.eating[d] = mask
	}
	if e.keepRepKeys() {
		// The creating world is the orbit representative: first
		// encountered in discovery order.
		s.keyBuf = w.AppendKey(s.keyBuf[:0])
		ss.sym.repKeys[d] = s.arena.intern(s.keyBuf)
	}
}

// create interns key as a new state of shard g and returns its packed id;
// its dense id is assigned by the caller.
func (e *explorer) create(g uint32, key []byte) (int32, error) {
	st := &e.ss.shards[g]
	local := int32(len(st.dense))
	if local > localMask {
		return 0, fmt.Errorf("modelcheck: shard %d overflowed %d states; raise Options.Shards", g, localMask+1)
	}
	packed := int32(g)<<localBits | local
	k := e.shardScr[g].arena.intern(key)
	st.index[k] = packed
	st.dense = append(reserve(st.dense, 1), -1)
	st.trans = grow(st.trans, e.ss.NumPhils)
	if e.opts.KeepKeys {
		st.keys = append(reserve(st.keys, 1), k)
	}
	return packed, nil
}

// growDense extends every dense-view array by n states.
func (e *explorer) growDense(n int) {
	ss := e.ss
	ss.order = grow(ss.order, n)
	ss.bad = grow(ss.bad, n)
	ss.anyEating = grow(ss.anyEating, n)
	ss.expanded = grow(ss.expanded, n)
	if ss.NumPhils <= maskablePhils {
		ss.eating = grow(ss.eating, n)
	}
	if e.keepRepKeys() {
		ss.sym.repKeys = grow(ss.sym.repKeys, n)
	}
}

// resolveShards normalizes an Options.Shards value against the resolved
// worker count: 0 matches workers, everything is rounded up to a power of
// two and capped at MaxShards.
func resolveShards(shards, workers int) int {
	if shards <= 0 {
		shards = workers
	}
	k := 1
	for k < shards && k < MaxShards {
		k <<= 1
	}
	return k
}

// Explore builds the complete reachable state space of prog on topo.
func Explore(topo *graph.Topology, prog sim.Program, opts Options) (*StateSpace, error) {
	if topo == nil || prog == nil {
		return nil, fmt.Errorf("modelcheck: Explore requires a topology and a program")
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("modelcheck: Options.Shards must be >= 0, got %d", opts.Shards)
	}
	maxStates := opts.MaxStates
	if maxStates <= 0 {
		maxStates = DefaultMaxStates
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := resolveShards(opts.Shards, workers)
	canon := opts.Symmetry
	if canon != nil {
		if canon.Topology() != topo {
			return nil, fmt.Errorf("modelcheck: Options.Symmetry canonicalizer is for topology %q, not %q",
				canon.Topology().Name(), topo.Name())
		}
		if canon.Trivial() {
			canon = nil // the identity quotient is the unreduced exploration
		}
	}
	// The explorer carries the normalized options — resolved state cap,
	// trivial-group symmetry cleared — instead of duplicate resolved fields.
	opts.MaxStates = maxStates
	opts.Symmetry = canon

	ss := &StateSpace{
		topo:      topo,
		prog:      prog,
		hunger:    opts.Hunger,
		NumPhils:  topo.NumPhilosophers(),
		shards:    make([]shardStore, shards),
		shardMask: uint32(shards - 1),
		hasKeys:   opts.KeepKeys,
		workers:   workers,
	}
	if canon != nil {
		ss.sym = &symSpace{canon: canon}
	}
	for i := range ss.shards {
		ss.shards[i].index = make(map[string]int32)
	}
	e := &explorer{
		ss:        ss,
		opts:      opts,
		workers:   workers,
		scratches: make([]scratch, workers),
		shardScr:  make([]shardScratch, shards),
	}
	for i := range e.scratches {
		e.scratches[i].noRecycle = opts.Hunger != nil
	}
	if len(opts.Protected) > 0 {
		e.protected = make(map[graph.PhilID]bool, len(opts.Protected))
		for _, p := range opts.Protected {
			e.protected[p] = true
		}
	}

	initial := sim.NewWorld(topo)
	if opts.Hunger != nil {
		initial.Hunger = opts.Hunger
	}
	prog.Init(initial)

	w0 := e.clone(initial, nil)
	s0 := &e.scratches[0]
	s0.keyBuf = e.appendKey(w0, s0.keyBuf[:0])
	g0 := ss.shardOf(s0.keyBuf)
	packed0, err := e.create(g0, s0.keyBuf)
	if err != nil {
		return nil, err
	}
	ss.shards[g0].dense[0] = 0
	e.growDense(1)
	ss.order[0] = packed0
	e.label(s0, 0, w0)
	ss.initial = 0
	e.front = append(e.front, frontEntry{w: w0, packed: packed0})

	if err := e.explore(); err != nil {
		return nil, err
	}

	// States left unexpanded (zero-width transitions) get self-loops so that
	// the analyses remain well defined on truncated spaces.
	for s := 0; s < ss.NumStates(); s++ {
		if ss.expanded[s] {
			continue
		}
		st, l := ss.locate(s)
		base := int(l) * ss.NumPhils
		st.succs = reserve(st.succs, ss.NumPhils)
		st.probs = reserve(st.probs, ss.NumPhils)
		for a := 0; a < ss.NumPhils; a++ {
			st.trans[base+a] = transition{off: int32(len(st.succs)), n: 1}
			st.succs = append(st.succs, int32(s))
			st.probs = append(st.probs, 1)
		}
	}
	return ss, nil
}

// interruptCheckInterval is how often (in expanded states) Options.Interrupt
// is polled.
const interruptCheckInterval = 1024

// minCap is the smallest capacity reserve allocates, so that small arrays
// skip the first few doublings.
const minCap = 64

// reserve returns s with room for n more elements. When the capacity runs
// out it at least doubles: append grows large slices by only 1.25×, which
// would reallocate each flat per-state array about five times its final
// size over an exploration.
func reserve[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	ns := make([]T, len(s), max(len(s)+n, 2*cap(s), minCap))
	copy(ns, s)
	return ns
}

// grow extends s by n zeroed elements, growing its capacity as reserve does.
func grow[T any](s []T, n int) []T {
	s = reserve(s, n)
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

// explore runs the BFS level by level through the four phases described in
// the package comment. Every phase is parallel — over chunks (expand,
// gather) or over shards (intern, rows) — and every write target is owned by
// exactly one goroutine, so the only synchronization is the barrier between
// phases.
func (e *explorer) explore() error {
	ss := e.ss
	for len(e.front) > 0 {
		if e.opts.Interrupt != nil {
			if err := e.opts.Interrupt(); err != nil {
				return err
			}
		}
		e.d0 = ss.NumStates()
		n := len(e.front)
		chunk := (n + e.workers - 1) / e.workers
		e.chunkLo = e.chunkLo[:0]
		for lo := 0; lo < n; lo += chunk {
			e.chunkLo = append(e.chunkLo, lo)
		}
		e.active = len(e.chunkLo)
		e.chunkLo = append(e.chunkLo, n)

		// Phase 1: expand. The first error in chunk order keeps error
		// reporting deterministic (each chunk's contents are deterministic,
		// so so is its error).
		e.run(phaseExpand, e.active)
		for ci := range e.active {
			if err := e.scratches[ci].err; err != nil {
				return err
			}
		}

		// Phase 2: intern.
		e.run(phaseIntern, len(ss.shards))
		for g := range e.shardScr {
			if err := e.shardScr[g].err; err != nil {
				return err
			}
		}
		e.chunkNew = grow(e.chunkNew[:0], e.active)
		total := 0
		for ci := range e.chunkNew {
			for g := range e.shardScr {
				e.chunkNew[ci] += e.shardScr[g].newPerChunk[ci]
			}
			total += e.chunkNew[ci]
		}
		truncated := e.d0+total > e.opts.MaxStates
		if truncated {
			total = e.cut()
		}

		// Dense-id bases: chunk ci's creations become dense ids
		// d0+chunkBase[ci].. in pending order — the global first-encounter
		// order, which is exactly breadth-first discovery order.
		e.chunkBase = e.chunkBase[:0]
		base := 0
		for _, c := range e.chunkNew[:e.active] {
			e.chunkBase = append(e.chunkBase, base)
			base += c
		}
		e.growDense(total)
		e.nextFront = grow(e.nextFront[:0], total)

		// Phase 3: gather.
		e.run(phaseGather, e.active)
		for ci := range e.active {
			if err := e.scratches[ci].err; err != nil {
				return err
			}
		}

		// Phase 4: rows.
		e.run(phaseRows, len(ss.shards))
		for g := range e.shardScr {
			if err := e.shardScr[g].err; err != nil {
				return err
			}
		}
		if truncated {
			ss.Truncated = true
			return nil
		}
		e.front, e.nextFront = e.nextFront, e.front
		e.levelStart = e.d0
	}
	return nil
}

// run executes phase p for indices 0..n-1 (chunks or shards). With one
// worker it runs them inline; otherwise min(n, workers) goroutines take the
// indices in strides.
func (e *explorer) run(p phase, n int) {
	if e.workers == 1 || n == 1 {
		for i := range n {
			e.step(p, i)
		}
		return
	}
	k := min(n, e.workers)
	e.wg.Add(k)
	for j := range k {
		go e.stride(p, j, k, n)
	}
	e.wg.Wait()
}

// stride runs phase p for indices j, j+k, j+2k, ... below n on one goroutine.
func (e *explorer) stride(p phase, j, k, n int) {
	defer e.wg.Done()
	for i := j; i < n; i += k {
		e.step(p, i)
	}
}

// phaseNames names the phases in panic errors.
var phaseNames = [...]string{phaseExpand: "expand", phaseIntern: "intern", phaseGather: "gather", phaseRows: "rows"}

// step runs phase p for chunk or shard i. A panic becomes the error of the
// chunk or shard, which the phase's caller checks in index order like every
// other error, so the reported one does not depend on the worker count.
func (e *explorer) step(p phase, i int) {
	defer func() {
		r := recover()
		switch {
		case r == nil:
		case p == phaseExpand || p == phaseGather:
			state := e.levelStart + e.chunkLo[i] + e.scratches[i].at
			e.scratches[i].err = fmt.Errorf("modelcheck: %s phase, state %d panicked: %v", phaseNames[p], state, r)
		default:
			e.shardScr[i].err = fmt.Errorf("modelcheck: %s phase panicked: %v", phaseNames[p], r)
		}
	}()
	switch p {
	case phaseExpand:
		e.expandChunk(&e.scratches[i], e.front[e.chunkLo[i]:e.chunkLo[i+1]])
	case phaseIntern:
		e.internShard(uint32(i))
	case phaseGather:
		e.gatherChunk(i)
	case phaseRows:
		e.writeRows(uint32(i))
	}
}

// expandChunk computes the outcome record of one contiguous chunk of the
// current level. It only reads shared state (the shard intern tables, the
// program, the frontier worlds of its own chunk) and writes the worker-local
// scratch. A successor already interned is recorded by dense id; any other
// is recorded as a pending entry carrying its key bytes and origin, and its
// world is dropped.
func (e *explorer) expandChunk(s *scratch, entries []frontEntry) {
	ss := e.ss
	s.counts = s.counts[:0]
	s.probs = s.probs[:0]
	s.refs = s.refs[:0]
	s.shardOuts = grow(s.shardOuts[:0], len(ss.shards))
	s.pkeys = s.pkeys[:0]
	s.pend = s.pend[:0]
	s.err = nil
	for k := range entries {
		if e.opts.Interrupt != nil && k%interruptCheckInterval == 0 {
			if err := e.opts.Interrupt(); err != nil {
				s.err = err
				return
			}
		}
		s.at = k
		w := entries[k].w
		outs := len(s.refs)
		s.counts = reserve(s.counts, ss.NumPhils)
		for a := 0; a < ss.NumPhils; a++ {
			pid := graph.PhilID(a)
			// Outcomes must not mutate the world they are computed from, so
			// the frontier world is probed directly; each outcome is then
			// applied to the scratch clone.
			outcomes := ss.prog.Outcomes(w, pid, s.obuf[:0])
			s.obuf = outcomes
			n := len(outcomes)
			s.counts = append(s.counts, int32(n))
			s.probs = reserve(s.probs, n)
			s.refs = reserve(s.refs, n)
			for i := range outcomes {
				succ, err := e.successor(s, w, s.tmp, pid, i, n)
				if err != nil {
					s.err = err
					return
				}
				s.tmp = succ
				s.keyBuf = e.appendKey(succ, s.keyBuf[:0])
				s.probs = append(s.probs, outcomes[i].Prob)
				g := ss.shardOf(s.keyBuf)
				st := &ss.shards[g]
				// The string(keyBuf) map probe is the no-copy idiom: probing
				// a seen state allocates nothing.
				if gid, ok := st.index[string(s.keyBuf)]; ok {
					s.refs = append(s.refs, st.dense[gid&localMask])
					continue
				}
				s.refs = append(s.refs, ^int32(len(s.pend)))
				s.pkeys = append(reserve(s.pkeys, len(s.keyBuf)), s.keyBuf...)
				s.pend = append(reserve(s.pend, 1), pending{
					end:     int32(len(s.pkeys)),
					parent:  int32(k),
					phil:    int32(a),
					outcome: int32(i),
					shard:   uint8(g),
				})
			}
		}
		s.shardOuts[uint32(entries[k].packed)>>localBits] += len(s.refs) - outs
	}
	s.resolve = grow(s.resolve[:0], len(s.pend))
	s.created = grow(s.created[:0], len(s.pend))
}

// internShard interns, into shard g, every pending state hashing to g, in
// (chunk, encounter) order — the restriction of breadth-first discovery
// order to this shard, so shard-local numbering is deterministic for every
// worker count. The first entry of a key creates its state; later entries
// of the same key, from this chunk or a later one, resolve to it. Dense ids
// are left to the gather phase.
func (e *explorer) internShard(g uint32) {
	st := &e.ss.shards[g]
	sc := &e.shardScr[g]
	sc.newPerChunk = grow(sc.newPerChunk[:0], e.active)
	sc.err = nil
	for ci := range e.active {
		s := &e.scratches[ci]
		for li := range s.pend {
			if uint32(s.pend[li].shard) != g {
				continue
			}
			key := s.key(li)
			if packed, ok := st.index[string(key)]; ok {
				s.resolve[li] = packed
				continue
			}
			packed, err := e.create(g, key)
			if err != nil {
				sc.err = err
				return
			}
			s.resolve[li] = packed
			s.created[li] = true
			sc.newPerChunk[ci]++
		}
	}
}

// cut truncates the current level at the first frontier state after whose
// expansion the state count exceeds MaxStates — where a state-by-state
// breadth-first search stops. Creations by later frontier states are
// withdrawn from their shards (each shard created its states in pending
// order, so they are a suffix of every shard), the chunks are shortened to
// end at the cut, and chunkNew is recounted. It returns the number of
// states the level keeps.
func (e *explorer) cut() int {
	ss := e.ss
	budget := e.opts.MaxStates - e.d0 // creations that keep the count at the cap
	cutChunk, cutState := -1, -1
	kept := 0
	for ci := range e.active {
		s := &e.scratches[ci]
		e.chunkNew[ci] = 0
		for li := range s.pend {
			if !s.created[li] {
				continue
			}
			p := &s.pend[li]
			if cutChunk < 0 {
				budget--
				if budget < 0 {
					// This creation crosses the cap: its parent is the last
					// frontier state expanded.
					cutChunk, cutState = ci, int(p.parent)
				}
			}
			if cutChunk >= 0 && (ci > cutChunk || int(p.parent) > cutState) {
				g := p.shard
				st := &ss.shards[g]
				delete(st.index, string(s.key(li)))
				local := len(st.dense) - 1
				st.dense = st.dense[:local]
				st.trans = st.trans[:local*ss.NumPhils]
				if e.opts.KeepKeys {
					st.keys = st.keys[:local]
				}
				s.created[li] = false
				continue
			}
			e.chunkNew[ci]++
			kept++
		}
	}
	e.chunkLo[cutChunk+1] = e.chunkLo[cutChunk] + cutState + 1
	e.active = cutChunk + 1
	return kept
}

// gatherChunk walks one chunk's pendings in encounter order and, for each
// entry that created its state, rebuilds the state's world from its parent,
// assigns the next dense id, records the state labels and frontier entry,
// and completes the shard's local→dense map. A frontier world returns to
// the free list once its last created child is built. Chunks write disjoint
// dense-id ranges, so the phase is parallel.
func (e *explorer) gatherChunk(ci int) {
	ss := e.ss
	s := &e.scratches[ci]
	s.err = nil
	entries := e.front[e.chunkLo[ci]:e.chunkLo[ci+1]]
	d := e.d0 + e.chunkBase[ci]
	nf := e.nextFront[e.chunkBase[ci]:]
	done := 0 // entries[:done] have no further created children
	j := 0
	for li := range s.pend {
		if !s.created[li] {
			continue
		}
		p := &s.pend[li]
		for ; done < int(p.parent); done++ {
			s.putFree(entries[done].w)
		}
		s.at = int(p.parent)
		n := int(s.counts[int(p.parent)*ss.NumPhils+int(p.phil)])
		w, err := e.successor(s, entries[p.parent].w, s.takeFree(), graph.PhilID(p.phil), int(p.outcome), n)
		if err != nil {
			s.err = err
			return
		}
		packed := s.resolve[li]
		ss.shards[packed>>localBits].dense[packed&localMask] = int32(d)
		ss.order[d] = packed
		e.label(s, d, w)
		nf[j] = frontEntry{w: w, packed: packed}
		j++
		d++
	}
	for ; done < len(entries); done++ {
		s.putFree(entries[done].w)
	}
}

// writeRows replays every chunk's record in frontier order and appends the
// transition rows of the level states owned by shard g into g's flat arrays,
// resolving pending successor references through the intern results. Rows
// land in deterministic (frontier, philosopher, outcome) order per shard.
func (e *explorer) writeRows(g uint32) {
	ss := e.ss
	st := &ss.shards[g]
	need := 0
	for ci := range e.active {
		need += e.scratches[ci].shardOuts[g]
	}
	st.succs = reserve(st.succs, need)
	st.probs = reserve(st.probs, need)
	for ci := range e.active {
		s := &e.scratches[ci]
		lo, hi := e.chunkLo[ci], e.chunkLo[ci+1]
		ri, kk := 0, 0
		for k, fe := range e.front[lo:hi] {
			if uint32(fe.packed)>>localBits != g {
				// Skip the state's record: it belongs to another shard.
				for range ss.NumPhils {
					ri += int(s.counts[kk])
					kk++
				}
				continue
			}
			base := int(fe.packed&localMask) * ss.NumPhils
			for a := 0; a < ss.NumPhils; a++ {
				cnt := s.counts[kk]
				kk++
				off := int32(len(st.succs))
				for range cnt {
					sid := s.refs[ri]
					if sid < 0 {
						packed := s.resolve[^sid]
						sid = ss.shards[packed>>localBits].dense[packed&localMask]
					}
					st.succs = append(st.succs, sid)
					st.probs = append(st.probs, s.probs[ri])
					ri++
				}
				st.trans[base+a] = transition{off: off, n: cnt}
			}
			ss.expanded[e.levelStart+lo+k] = true
		}
	}
}
