package machine

import (
	"math/rand"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
	"cwnsim/internal/workload"
)

// Machine wires a topology, a job source and a strategy into one
// runnable simulation. Build with New (the paper's one-tree closed
// system) or NewStream (an open system under arrival traffic), run once
// with Run.
//
// Every Machine is one shard of a shard group (see doc.go, "Sharded
// execution"): it owns the PE index block [peLo, peHi) — the whole
// machine on a one-shard group — with its own event engine, free lists
// and statistics.
type Machine struct {
	eng    *sim.Engine
	topo   *topology.Topology
	cfg    Config
	strat  Strategy
	source JobSource

	// pes[i] points at PE i (nil for PEs owned by other shards). The PE
	// structs themselves live contiguously in peBlock — one slab per
	// machine, indexed by lx = id - peLo — so walking the owned block
	// walks memory linearly instead of chasing a million scattered
	// allocations.
	pes     []*PE
	peBlock []PE

	// Struct-of-arrays hot state: the per-event scalars every service
	// start/completion and every load tick touches live in machine-level
	// parallel slices indexed by PE.lx, not in the (much colder) PE
	// struct, so the event loop's working set is a few dense arrays.
	// peQueue and pePending are the ready-queue length and the count of
	// tasks awaiting responses — the two inputs of the advertised load
	// (loadOf) — owned here, not by the ring and the pending list.
	// peFailed is the owned block's window of the group's failure map
	// (shardGroup.failed). peSpeed stays nil while every PE runs at
	// nominal speed — the unscripted homogeneous fast path allocates and
	// reads nothing.
	peBusy       []bool
	peFailed     []bool
	peQueue      []int32
	pePending    []int32
	peServiceEnd []sim.Time
	peBusyTime   []sim.Time
	peSpeed      []float64

	// chans and hot hold each channel's cold and hot state by value in
	// two parallel slices (see chanState and chanHot). Neither grows
	// after construction, so interior pointers stay valid for the life
	// of the run; member lists are subslices of one flat backing array.
	chans []chanState
	hot   []chanHot
	// chanIdx/chanIDs are the sparse channel map of a multi-shard
	// machine: chanIdx[global] is the index into chans (-1 when no
	// owned PE attaches to the channel), chanIDs[local] maps back.
	// Both nil on a one-shard group, where chans is dense and globally
	// indexed.
	chanIdx []int32
	chanIDs []int32

	// fan is the flat broadcast fan-out table: owned PE lx's attached
	// channels are fan[fanOff[lx]:fanOff[lx+1]], each entry the
	// channel's local index and the PE's row of its receiver slots, so
	// a load tick reaches its channels without touching the PE struct.
	fan    []fanEntry
	fanOff []int32

	// nbrLoad and nbrDown are the flat backings of every owned PE's
	// per-neighbor views: the load word last heard (-1 until the first,
	// as loads are never negative; nil on a blind machine, which keeps
	// no load view) and the availability last heard (environment
	// broadcasts). PE.nbrLoad is a subslice. slots is the
	// receiver-slot table that addresses them: a channel of span s owns
	// the s·(s-1) entries from its chanState's slot offset, one block of
	// s-1 per sending member in member order, each entry the backing
	// index of one receiving member's view of the sender (receivers in
	// member order, the sender skipped), or -1 where this shard does not
	// own the receiver. Every load word delivered on a channel writes its
	// view by slot, without searching the receiver's neighbor list.
	nbrLoad []int32
	nbrDown []bool
	slots   []int32

	// blind is set when the strategy is LoadBlind: there is no load
	// view to write or read, and every load-word delivery is a tally,
	// not an event.
	blind bool
	// words and batches are the Actions of every load-word delivery on
	// a machine that is not blind (see broadcastLoad): one value each,
	// each event's payload naming its row (words, one word) or its run
	// of fan entries (batches, consecutive words of one broadcast due
	// at one instant). batchExtra counts the words batched events
	// delivered beyond their first, so Stats.Events counts every
	// delivery (finalize).
	words      wordSink
	batches    wordBatch
	batchExtra uint64
	// ticks is the Action of every owned PE's periodic load broadcast:
	// one value, each event's payload naming its PE (see loadTick).
	ticks loadTick
	// procs is the Action of every other periodic process — strategy
	// processes (NewTicker) and the utilization sampler — and holds
	// their callbacks; each event's payload names its callback and
	// period (see procTick).
	procs procTick
	// arrivals is the Action of the armed next arrival (see pump).
	arrivals arrival

	// chScratch is the reusable candidate buffer for per-hop channel
	// selection (AppendChannelsBetween): implicit topologies compute the
	// list into it, materialized ones copy their cached pair list — either
	// way the routing hot path allocates nothing. Valid until the next
	// routing call.
	chScratch []int

	stats *Stats

	nextGoalID int64
	srcRng     *rand.Rand
	obsRng     *rand.Rand //simlint:obsstream observer (sampling) phases; nil unless sampling
	srcDone    bool       // the source has been exhausted
	started    bool
	result     int64

	nextTree *workload.Tree // the tree the armed arrival injects
	rateMul  float64        // scenario LoadShock multiplier on the offered rate (1 = nominal)

	// lossy is set when the scenario contains crash (state-loss)
	// events: it arms the epoch staleness checks and tolerates orphaned
	// responses. Never set otherwise, so blackout-only and unscripted
	// runs keep the strict lost-goal panics.
	lossy bool
	// ckpt is set when the scenario contains checkpoint ticks: it arms
	// the per-job progress bookkeeping on the execution hot path (see
	// jobState). Never set otherwise — unscripted and blackout-only
	// runs pay nothing.
	ckpt bool
	// lastCkptAt stamps the most recent checkpoint tick (-1 before the
	// first): a job whose ckptSeen equals it holds that tick's snapshot.
	lastCkptAt sim.Time
	// liveJobs is the home shard's registry of injected-but-unfinished
	// jobs, kept on checkpoint runs: the coordinator walks it at each
	// tick's barrier to snapshot every live job's position. Entries are
	// appended at injection and compacted — dead jobs have a nil tree —
	// during the same barrier walk, the only reader.
	liveJobs []*jobState
	// retryPending counts crash retries armed on a backoff timer but
	// not yet re-injected, so stall detection doesn't mistake the quiet
	// backoff gap for a lost-goal deadlock.
	retryPending int64

	// sojLog is the shard's completion log: each job completing here, in
	// completion order, as its injection time and sojourn. Only a
	// scripted, sampled run (a Scenario and SampleInterval > 0) keeps it;
	// it is nil on every other. Both windowed sojourn series, which
	// recovery analysis reads, come from it: each sample records the
	// log's length, and shardGroup.mergeSamples pools the entries since
	// the previous sample (sojPooled up to that length) into a
	// Stats.SojournWindows point; at finalize shardGroup.mergeInjSoj
	// buckets the whole log by injection window into
	// Stats.InjSojournWindows.
	sojLog    []completion
	sojPooled int

	// The hot path recycles wire messages, goals, pending tasks and job
	// states through these pools instead of allocating per message or
	// goal (see pool).
	msgs  pool[wireMsg]
	goals pool[Goal]
	pends pool[pendingTask]
	jobs  pool[jobState]

	prevBusySample sim.Time
	prevSampleAt   sim.Time
	prevBusyPerPE  []sim.Time
	frameBuf       []float64
	warmupBusy     sim.Time

	// goalsInTransit/respsInTransit count payload messages currently on
	// a channel, so a run that hits MaxTime can tell a lost goal (jobs
	// in flight but nothing anywhere the machine can see) from genuine
	// saturation (work still queued or moving).
	goalsInTransit int64
	respsInTransit int64

	// Sharding. Shard shardID of grp owns the PE index block
	// [peLo, peHi): pes and stats keep full-length arrays with remote
	// entries nil/zero, chans holds this shard's own copy of every
	// channel it touches (occupancy accrues per side), and xout[d]
	// queues wire messages addressed to shard d until the coordinator
	// drains them at the next window barrier. lastDone is this shard's
	// latest job completion and lastLeft its latest completion or
	// abandonment, for the group's result and finish rules
	// (shardGroup.finalize).
	grp      *shardGroup
	shardID  int
	peLo     int
	peHi     int
	xout     [][]xmsg
	lastDone sim.Time
	lastLeft sim.Time

	// Shard-local observability capture. The Sink contract is
	// single-goroutine, so no shard calls Record live: each appends its
	// events to traceBuf in its own engine order and the coordinator
	// replays the union, merged by (At, shard, buffer index), at
	// finalize. shardSamples holds the shard's sampling partials the
	// same way — one entry per globally synchronized sample instant,
	// folded into full-machine series points by shardGroup.mergeSamples
	// once every shard has reached the instant.
	traceBuf     []trace.Event
	shardSamples []shardSample
}

// traceChunk is how many buffered trace events a one-shard run holds
// before replaying them into the Sink.
const traceChunk = 4096

// emit buffers a trace event if tracing is enabled; the Sink sees the
// coordinator's merged replay (shardGroup.replayTrace) at finalize — or,
// on one shard, whose buffer already is the merged order, a chunk at a
// time, so a streaming sink's run stays in bounded memory.
func (m *Machine) emit(kind trace.Kind, pe, other int, goal int64) {
	if m.cfg.Trace == nil {
		return
	}
	m.traceBuf = append(m.traceBuf, trace.Event{At: m.eng.Now(), Kind: kind, PE: pe, Other: other, Goal: goal})
	if len(m.traceBuf) == traceChunk && m.grp.k == 1 {
		m.grp.replayTrace()
	}
}

// New constructs a closed-system machine executing one tree to
// completion — the paper's experiment. The tree and topology are
// read-only and may be shared across machines; the strategy value must
// be fresh per run if it carries mutable global state (the core package
// strategies are stateless templates and safe to reuse).
func New(topo *topology.Topology, tree *workload.Tree, strat Strategy, cfg Config) *Machine {
	return NewStream(topo, NewSingleJob(tree), strat, cfg)
}

// NewStream constructs an open-system machine: source injects root
// goals over virtual time and the run completes when the source is
// exhausted and every injected job has delivered its root response.
// The source must be a fresh value per run (sources are iterators).
//
// The returned Machine is shard 0 of a shard group: Config.Shards 0 and
// 1 both build one shard owning every PE, larger counts partition the
// PE space. Run executes the conservative-lookahead window protocol
// across all shards (see doc.go, "Sharded execution") and returns the
// merged statistics.
func NewStream(topo *topology.Topology, source JobSource, strat Strategy, cfg Config) *Machine {
	if err := cfg.Validate(topo.Size()); err != nil {
		panic(err)
	}
	if err := cfg.ValidateLinks(func() *topology.Topology { return topo }); err != nil {
		panic(err)
	}
	return newShardGroup(topo, source, strat, cfg).machines[0]
}

// newMachine builds shard number shard of grp: a machine owning only its
// partition block of PEs, drawing its event engine's stream from a
// per-shard salted seed (shard 0 keeps the plain seed).
func newMachine(topo *topology.Topology, source JobSource, strat Strategy, cfg Config, grp *shardGroup, shard int) *Machine {
	seed := cfg.Seed
	if shard > 0 {
		seed = cfg.Seed ^ int64(shard)*shardSeedSalt
	}
	m := &Machine{
		eng:        sim.NewEngine(seed),
		topo:       topo,
		cfg:        cfg,
		strat:      strat,
		source:     source,
		rateMul:    1,
		lastCkptAt: -1,
		grp:        grp,
		shardID:    shard,
		peLo:       grp.part.Starts[shard],
		peHi:       grp.part.Starts[shard+1],
		xout:       make([][]xmsg, grp.k),
		// Goal IDs are banded per shard so concurrently minted goals stay
		// globally unique without synchronization.
		nextGoalID: int64(shard) << 40,
	}
	_, m.blind = strat.(LoadBlind)
	m.words.m = m
	m.batches.m = m
	m.ticks.m = m
	m.procs.m = m
	m.arrivals.m = m
	if shard == grp.home {
		// Only the shard owning RootPE pulls from the source.
		m.srcRng = newSourceRng(cfg.Seed)
	}
	m.stats = newStats(topo, source.Name(), strat.Name())
	if cfg.SojournBound > 0 {
		m.stats.SteadySojourn.Bound(cfg.SojournBound)
	}
	if cfg.SeriesBound > 0 {
		m.stats.Timeline.Bound(cfg.SeriesBound)
		m.stats.QueueLen.Bound(cfg.SeriesBound)
		m.stats.QueueImbalance.Bound(cfg.SeriesBound)
		m.stats.SojournWindows.Bound(cfg.SeriesBound)
		m.stats.InjSojournWindows.Bound(cfg.SeriesBound)
		m.stats.Monitor.Bound(cfg.SeriesBound)
	}

	block := m.peHi - m.peLo
	m.peBlock = make([]PE, block)
	m.peBusy = make([]bool, block)
	m.peFailed = grp.failed[m.peLo:m.peHi]
	m.peQueue = make([]int32, block)
	m.pePending = make([]int32, block)
	m.peServiceEnd = make([]sim.Time, block)
	m.peBusyTime = make([]sim.Time, block)
	if cfg.PESpeeds != nil {
		m.peSpeed = make([]float64, block)
		copy(m.peSpeed, cfg.PESpeeds[m.peLo:m.peHi])
	}

	// CSR-flattened adjacency for the owned block: neighbor lists, the
	// per-neighbor load and down views and the fan-out table are
	// subslices or ranges of flat arrays — a few allocations for the
	// whole machine instead of several per PE, and the broadcast path
	// reads its channels from the fan table instead of asking the
	// topology per tick. chansFlat lists the attached channel IDs; the
	// fan table is then sized to it exactly, and buildSlots fills in the
	// local channel indices and slot rows.
	nbrOff := make([]int, block+1)
	m.fanOff = make([]int32, block+1)
	var nbrsFlat, chansFlat []int
	for i := m.peLo; i < m.peHi; i++ {
		nbrsFlat = topo.AppendNeighbors(nbrsFlat, i)
		nbrOff[i-m.peLo+1] = len(nbrsFlat)
		chansFlat = topo.AppendChannelsOf(chansFlat, i)
		m.fanOff[i-m.peLo+1] = int32(len(chansFlat))
	}
	if !m.blind {
		m.nbrLoad = make([]int32, len(nbrsFlat))
		for i := range m.nbrLoad {
			m.nbrLoad[i] = -1
		}
	}
	m.nbrDown = make([]bool, len(nbrsFlat))

	// Channel states by value, member lists as subslices of one flat
	// backing. Offsets are recorded first and subslices taken after,
	// because append may move the backing array mid-build. NumChannels +
	// AppendChannelMembers never materialize the full channel list, so an
	// implicit topology's channels cost exactly this slice — no transient
	// edge-list blow-up at construction.
	//
	// A multi-shard machine only ever touches channels attached to its
	// owned PEs — every transmit, broadcast and link op resolves at the
	// sending (owned) side — so it stores channels sparsely: chanIdx
	// maps global channel ID to the local slices (or -1), chanIDs maps
	// back, and chanLocal resolves both layouts. Dense storage for a
	// million-PE torus is 2M channels x 120 B per shard; sparse keeps
	// the per-shard cost proportional to the owned block, which is what
	// lets a Shards=K million-PE run fit the same heap budget as a
	// one-shard run.
	nc := topo.NumChannels()
	if grp.k > 1 {
		m.chanIdx = make([]int32, nc)
		for i := range m.chanIdx {
			m.chanIdx[i] = -1
		}
		// chansFlat lists every channel attached to an owned PE
		// (duplicated across attached PEs); first-encounter order makes
		// the local numbering deterministic.
		for _, ci := range chansFlat {
			if m.chanIdx[ci] < 0 {
				m.chanIdx[ci] = int32(len(m.chanIDs))
				m.chanIDs = append(m.chanIDs, int32(ci))
			}
		}
		nc = len(m.chanIDs)
	}
	m.chans = make([]chanState, nc)
	m.hot = make([]chanHot, nc)
	offs := make([]int, nc+1)
	var flat []int
	for li := 0; li < nc; li++ {
		flat = topo.AppendChannelMembers(flat, m.chanID(int32(li)))
		offs[li+1] = len(flat)
	}
	for li := range m.chans {
		m.chans[li].members = flat[offs[li]:offs[li+1]:offs[li+1]]
		m.hot[li].local = true // until a crossing channel is stamped (newShardGroup)
	}

	// Remote shards' entries stay nil; every local access happens through
	// the owned block or is nil-guarded (broadcast delivery).
	m.pes = make([]*PE, topo.Size())
	for i := m.peLo; i < m.peHi; i++ {
		lx := i - m.peLo
		pe := &m.peBlock[lx]
		lo, hi := nbrOff[lx], nbrOff[lx+1]
		*pe = PE{m: m, id: i, lx: lx, nbrs: nbrsFlat[lo:hi:hi]}
		if !m.blind {
			pe.nbrLoad = m.nbrLoad[lo:hi:hi]
		}
		pe.svc.Init(m.eng, pe.serviceDone)
		m.pes[i] = pe
	}
	m.buildSlots(nbrOff, chansFlat)

	for _, pe := range m.pes {
		if pe == nil {
			continue
		}
		pe.node = strat.NewNode(pe)
		if pe.node == nil {
			panic("machine: strategy returned nil NodeStrategy")
		}
		if fa, ok := pe.node.(FailureAware); ok {
			pe.wantsFailure = fa.WantsFailureEvents()
		}
	}

	// Periodic load-information broadcast (the machine-level mechanism
	// CWN relies on; strategies may layer their own control traffic).
	// Each owned PE's load process is one payload event naming the PE
	// and its fan-table range, with nothing allocated per PE. It is
	// armed here in PE order, with the same stagger draw per PE a
	// Machine.NewTicker makes, and re-arms itself after each broadcast
	// (loadTick.Act), the order procTick fires and re-arms in.
	if cfg.LoadInterval > 0 {
		for lx := range m.peBlock {
			fan := uint64(m.fanOff[lx])<<32 | uint64(m.fanOff[lx+1])
			m.eng.AtPayload(m.eng.Now()+m.tickerPhase(cfg.LoadInterval), &m.ticks, uint64(lx), fan)
		}
	}

	if cfg.SampleInterval > 0 {
		if cfg.MonitorPE {
			// Sized to the owned PE block: a shard monitors only its own
			// PEs, and the coordinator concatenates the blocks into full
			// frames.
			m.prevBusyPerPE = make([]sim.Time, m.peHi-m.peLo)
			m.frameBuf = make([]float64, m.peHi-m.peLo)
		}
		// Every shard draws the same stagger phase (newObserverRng salts
		// from the plain seed, not the per-shard one), so sample instants
		// are globally synchronized across the group.
		m.newObserverTicker(cfg.SampleInterval, m.sample)
	}

	// Snapshot the busy-time accrued during warm-up so steady-state
	// utilization can exclude the ramp. Only scheduled when a warm-up is
	// configured, keeping the zero-warm-up event sequence untouched.
	if cfg.Warmup > 0 {
		m.eng.At(cfg.Warmup, func() {
			for _, pe := range m.pes {
				if pe == nil {
					continue
				}
				m.warmupBusy += pe.committedBusy()
			}
		})
	}

	// The scripted environment, if any, was expanded once for the group
	// (generators resolved into concrete timelines); the coordinator
	// applies its ops at window barriers (shardGroup.run, applyOps). An
	// empty scenario arms nothing — the run stays bit-for-bit identical
	// to an unscripted one (pinned by regression test).
	if grp.scn != nil {
		for _, ev := range grp.scn.Events {
			switch ev.Kind {
			case scenario.CrashPE:
				m.lossy = true
			case scenario.CheckpointTick:
				m.ckpt = true
			}
		}
		if cfg.SampleInterval > 0 {
			m.sojLog = make([]completion, 0, 64)
		}
	}
	return m
}

// buildSlots fills the receiver-slot table (see Machine.slots) for every
// channel this machine holds, then the fan table from chansFlat, the
// owned PEs' attached channel IDs in fan order; nbrOff[lx] is where
// owned PE lx's views start in the neighbor-state backings.
func (m *Machine) buildSlots(nbrOff, chansFlat []int) {
	n := 0
	for i := range m.chans {
		s := len(m.chans[i].members)
		n += s * (s - 1)
	}
	m.slots = make([]int32, n)
	off := 0
	for i := range m.chans {
		ch := &m.chans[i]
		ch.slot = int32(off)
		for _, from := range ch.members {
			for _, to := range ch.members {
				if to == from {
					continue
				}
				x := -1
				if to >= m.peLo && to < m.peHi {
					x = nbrOff[to-m.peLo] + m.pes[to].nbrIdx(from)
				}
				m.slots[off] = int32(x)
				off++
			}
		}
	}
	m.fan = make([]fanEntry, len(chansFlat))
	for lx := range m.peBlock {
		for i := m.fanOff[lx]; i < m.fanOff[lx+1]; i++ {
			m.fan[i] = m.fanOf(chansFlat[i], m.peLo+lx)
		}
	}
}

// ScenarioScript returns the expanded scenario timeline the machine's
// shard group replays — chaos generators resolved into their concrete
// events, expanded once for every shard — or nil for unscripted runs.
// Recovery analysis reads disruption/restore times from this script,
// not the unexpanded one.
func (m *Machine) ScenarioScript() *scenario.Script { return m.grp.scn }

// Engine exposes the discrete-event engine (e.g. for Now or the seeded
// random stream).
func (m *Machine) Engine() *sim.Engine { return m.eng }

// Topology returns the interconnection network.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// NumPEs returns the machine size.
func (m *Machine) NumPEs() int { return len(m.pes) }

// PE returns processing element i. A remote PE is resolved through its
// owning shard — safe for post-run inspection, but remote PEs advance
// on other goroutines while a parallel run is live (which is why
// SequentialOnly strategies cannot run on several shards).
func (m *Machine) PE(i int) *PE {
	if pe := m.pes[i]; pe != nil {
		return pe
	}
	return m.grp.owner(i).pes[i]
}

// Completed reports whether the run completed: the source was
// exhausted and every injected job left, delivering its root response
// or abandoned.
func (m *Machine) Completed() bool { return m.grp.completed }

// NewTicker registers fn as a periodic process belonging to the
// simulated system (a strategy's control process), firing every period
// units; a non-positive period panics. Its phase is drawn uniformly
// from the first period, per registration, from the run's seeded
// engine stream, because these processes ARE part of the simulation.
// Measurement processes draw theirs from the observer stream instead
// (see newObserverTicker), so that turning monitoring on or off cannot
// change the simulated result.
func (m *Machine) NewTicker(period sim.Time, fn func()) {
	m.every(period, m.tickerPhase(period), fn)
}

// tickerPhase draws a simulated process's stagger phase from the run's
// seeded engine stream (zero when the period leaves no choice).
func (m *Machine) tickerPhase(period sim.Time) sim.Time {
	if period > 1 {
		return sim.Time(m.eng.Rng().Int63n(int64(period)))
	}
	return 0
}

// every registers fn as a periodic process of the given period, first
// firing phase units from now: one payload event naming fn's slot in
// the process table and the period, which procTick re-arms after every
// firing, so a process allocates nothing per firing.
func (m *Machine) every(period, phase sim.Time, fn func()) {
	if period <= 0 {
		panic("machine: periodic process with non-positive period")
	}
	m.procs.fns = append(m.procs.fns, fn)
	m.eng.AtPayload(m.eng.Now()+phase, &m.procs, uint64(len(m.procs.fns)-1), uint64(period))
}

// maxScaled caps a duration scaled by a float factor (a Poisson draw, a
// scenario's speed, link or rate factor): 2^36 units, some 34,000
// default horizons, so the scaled event still lies past the end of the
// run, while the sums that follow — now plus the delay, and a channel's
// busyUntil growing by one capped span per message — stay far inside
// int64 at the default horizon.
const maxScaled sim.Time = 1 << 36

// scaledUnits converts a scaled duration x to whole time units as a
// plain conversion does (truncating), floored at one unit so scaled work
// never becomes free, and capped at maxScaled: an extreme factor behaves
// like a large one instead of wrapping past 2^63 into the floor.
func scaledUnits(x float64) sim.Time {
	switch {
	case x < 1:
		return 1
	case x < float64(maxScaled):
		return sim.Time(x)
	}
	return maxScaled
}

// newObserverTicker registers a measurement process (the utilization
// sampler). Its stagger phase draws from a dedicated salted stream
// derived from the seed — not the engine stream — so that configuring
// SampleInterval/MonitorPE never reorders the simulation's tie-break
// draws: the observer must not perturb the observed.
//
//simlint:observer
func (m *Machine) newObserverTicker(period sim.Time, fn func()) {
	var phase sim.Time
	if period > 1 {
		m.obsRng = newObserverRng(m.cfg.Seed)
		phase = sim.Time(m.obsRng.Int63n(int64(period)))
	}
	m.every(period, phase, fn)
}

// poolMinChunk and poolChunk bound a pool's chunk size: the first
// chunk holds poolMinChunk objects and each next one twice the last, up
// to poolChunk. A short run — one job of the paper's sweep needs a few
// hundred goals and a single job state — allocates about what it uses,
// while a saturated large machine fills poolChunk-sized contiguous
// blocks back to back.
const (
	poolMinChunk = 16
	poolChunk    = 1024
)

// pool recycles T objects. put parks a freed object on a slice stack,
// and get pops the most recently freed one (LIFO) or, when none is
// parked, carves the next zero-valued object out of the current chunk,
// so the run's working set occupies a few contiguous blocks instead of
// a scatter of singletons. The stack is a slice, not a linked list:
// the garbage collector scans one contiguous pointer array instead of
// chasing a chain through the retained working set. Clearing a freed
// object's references is the caller's job (the //simlint:free
// functions).
type pool[T any] struct {
	free []*T
	tail []T // the current chunk's uncarved objects
	size int // the current chunk's length
}

// get returns the most recently freed object, or a zero-valued one.
// The popped stack slot is left as it is: the object it names is in
// use, and the next put overwrites it. Clearing it would push get past
// the inliner's budget, and every message and goal would pay a call.
func (p *pool[T]) get() *T {
	n := len(p.free) - 1
	if n < 0 {
		return p.carve()
	}
	x := p.free[n]
	p.free = p.free[:n]
	return x
}

// carve returns the next zero-valued object, starting a new chunk when
// the current one is used up.
func (p *pool[T]) carve() *T {
	if len(p.tail) == 0 {
		p.size = min(max(2*p.size, poolMinChunk), poolChunk)
		p.tail = make([]T, p.size)
	}
	x := &p.tail[0]
	p.tail = p.tail[1:]
	return x
}

// put parks a freed object for reuse.
func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

// newGoal mints a goal for task belonging to job j, created on PE
// origin for parent goal parentID living on parentPE. Goal objects come
// from the machine's pool; see freeGoal.
func (m *Machine) newGoal(task *workload.Task, j *jobState, parentPE int, parentID int64) *Goal {
	g := m.goals.get()
	*g = Goal{
		ID:        m.nextGoalID,
		Task:      task,
		job:       j,
		Origin:    parentPE,
		ParentPE:  parentPE,
		ParentID:  parentID,
		CreatedAt: m.eng.Now(),
		epoch:     j.epoch,
	}
	m.nextGoalID++
	if parentPE >= 0 {
		m.emit(trace.GoalCreated, parentPE, -1, g.ID)
	}
	return g
}

// freeGoal recycles a goal whose journey is definitively over: it
// executed, and any children's responses have been combined.
//
//simlint:free
func (m *Machine) freeGoal(g *Goal) {
	g.Task = nil
	g.job = nil
	g.parent = nil
	m.goals.put(g)
}

// newPending allocates (or recycles) the pending-task record for a goal
// awaiting kids child responses.
func (m *Machine) newPending(g *Goal, kids int) *pendingTask {
	p := m.pends.get()
	p.goal = g
	p.remaining = kids
	if cap(p.vals) < kids {
		p.vals = make([]int64, 0, kids)
	} else {
		p.vals = p.vals[:0]
	}
	return p
}

// freePending recycles a completed pending-task record.
//
//simlint:free
func (m *Machine) freePending(p *pendingTask) {
	p.goal = nil
	p.vals = p.vals[:0]
	p.prev, p.next = nil, nil
	m.pends.put(p)
}

// loadTick is the one Action behind every owned PE's periodic load
// broadcast; each event's payload is the PE's index in the owned block
// and the range of its entries in the fan table (fanOff's two words),
// so a tick reads neither the PE struct nor the offsets.
type loadTick struct{ m *Machine }

// Act broadcasts the PE's load, then arms the PE's next tick
// LoadInterval later, so the next tick's seq follows the load words
// this one sent.
func (d *loadTick) Act() {
	m := d.m
	lx, fan := m.eng.Payload()
	m.broadcastLoad(int(lx), int32(fan>>32), int32(uint32(fan)))
	m.eng.AtPayload(m.eng.Now()+m.cfg.LoadInterval, d, lx, fan)
}

// procTick is the one Action behind every periodic process registered
// through every; each event's payload is the process's slot in fns and
// its period.
type procTick struct {
	m   *Machine
	fns []func()
}

// Act runs the process's callback, then arms its next firing one
// period later, so the next firing's seq follows whatever the callback
// scheduled — loadTick's order.
func (d *procTick) Act() {
	m := d.m
	i, period := m.eng.Payload()
	d.fns[i]()
	m.eng.AtPayload(m.eng.Now()+sim.Time(period), d, i, period)
}

// broadcast performs one transmission per channel attached to pe,
// delivering to every other channel member. A neighbor reachable via two
// channels (a double-lattice pair) hears the broadcast twice; deliveries
// must therefore be idempotent, which load and proximity updates are.
func (m *Machine) broadcast(pe *PE, kind wireKind, msgKind MsgKind, dur sim.Time, payload any) {
	from := pe.id
	load := pe.Load()
	for _, f := range m.fanRow(pe.lx) {
		m.stats.MsgCounts[msgKind]++
		w := m.newMsg(kind, m.chanID(f.lc), from, load)
		w.payload = payload
		m.transmit(dur, w)
	}
}

// respond sends goal g's computed value from the PE that executed it
// back to the parent's PE (or, for a root goal, completes its job).
func (m *Machine) respond(fromPE int, g *Goal, value int64) {
	if g.ParentPE < 0 {
		m.completeJob(g.job, value)
		return
	}
	m.emit(trace.RespSent, fromPE, g.ParentPE, g.ID)
	m.routeResponse(fromPE, response{dstPE: int32(g.ParentPE), goalID: g.ParentID, value: value, task: g.parent})
}

// completeJob records job j's root response: its sojourn time enters the
// latency records, and a one-shard run stops once the source is
// exhausted and no jobs remain in flight. The jobState is recycled —
// every goal of the job is necessarily dead once the root has responded.
func (m *Machine) completeJob(j *jobState, value int64) {
	now := m.eng.Now()
	m.result = value
	m.lastDone, m.lastLeft = now, now
	// The root response may be combined on any shard; only the sum
	// matters mid-window (atomic adds commute), and the value is only
	// branched on where it is deterministic — here under one shard, or at
	// a window barrier.
	left := m.grp.inFlight.Add(-1)
	m.stats.JobsDone++
	// The steady sample accrues here, streamingly — not from JobRecords
	// at finalize — so SojournBound bounds its memory.
	soj := now - j.injectedAt
	if m.sojLog != nil {
		m.sojLog = append(m.sojLog, completion{j.injectedAt, soj})
	}
	if j.injectedAt >= m.cfg.Warmup {
		m.stats.SteadySojourn.Add(float64(soj))
	}
	if now >= m.cfg.Warmup {
		m.stats.SteadyJobsDone++
	}
	if m.cfg.SojournBound <= 0 || len(m.stats.JobRecords) < m.cfg.SojournBound {
		m.stats.JobRecords = append(m.stats.JobRecords, JobRecord{
			ID:         j.id,
			InjectedAt: j.injectedAt,
			DoneAt:     now,
			Result:     value,
		})
	}
	m.freeJob(j)
	m.stopIfIdle(left)
}

// stopIfIdle stops a one-shard run at the instant its source is
// exhausted with no job left in flight (left, the count after the
// caller's change). Only a single shard observes that instant exactly in
// virtual time, so only it stops mid-window. On several shards, which
// one would observe the zero depends on execution order; the
// coordinator detects completion at the next window barrier instead,
// where the count is stable (shardGroup.runWindows).
func (m *Machine) stopIfIdle(left int64) {
	if m.grp.k == 1 && m.srcDone && left == 0 {
		m.eng.Stop()
	}
}

// routeResponse moves a response one shortest-path hop at a time toward
// its destination PE, charging each channel. Forwarding happens on the
// co-processor: no PE compute time.
func (m *Machine) routeResponse(cur int, r response) {
	if cur == int(r.dstPE) {
		m.stats.RespHops.Add(int(r.hops))
		m.emit(trace.RespDelivered, cur, -1, r.goalID)
		m.pes[cur].enqueue(item{kind: itemResponse, resp: r})
		return
	}
	next := m.topo.NextHop(cur, int(r.dstPE))
	ci := m.pickChannel(m.chansBetween(cur, next))
	m.stats.MsgCounts[MsgResponse]++
	r.hops++
	m.respsInTransit++
	w := m.newMsg(wireResp, ci, cur, m.pes[cur].Load())
	w.resp = r
	w.to = next
	m.transmit(m.cfg.RespHopTime, w)
}

// chansBetween returns the channel IDs joining neighbors a and b, in
// the machine's reusable scratch buffer — valid until the next routing
// call. Implicit topologies compute the list, materialized ones copy
// their cached pair list; the hot path allocates nothing either way.
func (m *Machine) chansBetween(a, b int) []int {
	m.chScratch = m.topo.AppendChannelsBetween(m.chScratch[:0], a, b)
	return m.chScratch
}

// routeGoal advances the goal one shortest-path hop toward dst.
func (m *Machine) routeGoal(cur, dst int, g *Goal) {
	next := m.topo.NextHop(cur, dst)
	m.goalHop(cur, next, dst, m.pickChannel(m.chansBetween(cur, next)), g)
}

// goalHop sends goal g, bound for dst, one hop from owned PE cur to its
// neighbor next on channel ci, counting the hop: the one sender behind
// SendGoal's neighbor hops and routeGoal's routes.
func (m *Machine) goalHop(cur, next, dst, ci int, g *Goal) {
	g.Hops++
	m.stats.MsgCounts[MsgGoal]++
	m.emit(trace.GoalSent, cur, next, g.ID)
	m.goalsInTransit++
	w := m.newMsg(wireGoal, ci, cur, m.pes[cur].Load())
	w.goal = g
	w.to = next
	w.dst = dst
	m.transmit(m.cfg.GoalHopTime, w)
}

// sample records one sampling instant's raw partials over the shard's
// own PE block: the busy time accrued in the window just ended, the
// queue-length sum and sum of squares, the per-PE utilization frame and
// the completion log's length, which closes the window's completions.
// Every shard samples at the same globally synchronized instants, and
// shardGroup.mergeSamples folds the instant's partials into
// full-machine series points — utilization as a percentage (the paper's
// plots 11-16), mean queue length, Jain's fairness index (not mergeable
// from per-shard indices, which is why the raw sums are kept) and the
// windowed sojourn p99. The window divisor is the actual elapsed time
// since the previous sample — the staggered first window is shorter
// than SampleInterval.
func (m *Machine) sample() {
	now := m.eng.Now()
	window := now - m.prevSampleAt
	if window <= 0 {
		return // an unstaggered first firing at t=0 has no window yet
	}
	var busy sim.Time
	for _, pe := range m.pes[m.peLo:m.peHi] {
		busy += pe.committedBusy()
	}
	busyDelta := busy - m.prevBusySample
	m.prevBusySample = busy

	if m.prevBusyPerPE != nil {
		for i, pe := range m.pes[m.peLo:m.peHi] {
			b := pe.committedBusy()
			m.frameBuf[i] = float64(b-m.prevBusyPerPE[i]) / float64(window)
			m.prevBusyPerPE[i] = b
		}
	}

	// Queue balance at the sample instant. Pure observation: no events,
	// no random draws.
	var qsum, qsq float64
	for _, pe := range m.pes[m.peLo:m.peHi] {
		q := float64(pe.queueLen())
		qsum += q
		qsq += q * q
	}

	// Entries are reused once folded: the frame slices keep their
	// backing arrays, so steady-state sampling allocates nothing.
	n := len(m.shardSamples)
	if n < cap(m.shardSamples) {
		m.shardSamples = m.shardSamples[:n+1]
	} else {
		m.shardSamples = append(m.shardSamples, shardSample{})
	}
	sp := &m.shardSamples[n]
	sp.at, sp.window, sp.busyDelta, sp.qsum, sp.qsq = now, window, busyDelta, qsum, qsq
	sp.frame = append(sp.frame[:0], m.frameBuf...)
	sp.sojEnd = len(m.sojLog)
	m.prevSampleAt = now
	if m.grp.k == 1 {
		// A single shard has every partial of the instant already.
		m.grp.mergeSamples()
	}
}

// committedBusy returns busy time accrued up to now (excluding the not
// yet elapsed remainder of an in-service message).
func (pe *PE) committedBusy() sim.Time {
	m := pe.m
	b := m.peBusyTime[pe.lx]
	if m.peBusy[pe.lx] && m.peServiceEnd[pe.lx] > m.eng.Now() {
		b -= m.peServiceEnd[pe.lx] - m.eng.Now()
	}
	return b
}

// Run executes the simulation until every job the source emits has
// delivered its root response (or MaxTime elapses — for heavy arrival
// streams that is the saturation regime, reported rather than hidden)
// and returns the collected statistics. A machine runs exactly once.
func (m *Machine) Run() *Stats {
	if m.started {
		panic("machine: Run called twice")
	}
	m.started = true
	if m.shardID != 0 {
		panic("machine: Run must be called on shard 0 (the NewStream return value)")
	}
	return m.grp.run()
}

// pump pulls arrivals from the source: jobs due now are injected
// immediately (so the first arrival and burst-mates cost no extra
// engine events — single-job runs replay the paper's exact event
// sequence), and the next future arrival is armed as one event of the
// machine's arrival Action, re-entering pump when it fires.
func (m *Machine) pump() {
	for {
		delay, tree, ok := m.source.Next(m.srcRng)
		if !ok {
			m.srcDone = true
			m.stopIfIdle(m.grp.inFlight.Load())
			return
		}
		if delay > 0 && m.rateMul != 1 {
			// A LoadShock multiplies the offered rate: divide the drawn
			// gap. Applied to gaps drawn after the shock; an already-armed
			// arrival fires as scheduled.
			delay = scaledUnits(float64(delay) / m.rateMul)
		}
		if delay <= 0 {
			m.inject(tree)
			continue
		}
		m.nextTree = tree
		m.eng.ScheduleAction(delay, &m.arrivals)
		return
	}
}

// arrival is the Action of the machine's armed next arrival: one
// value, pushed again for every future arrival the source draws.
type arrival struct{ m *Machine }

// Act injects the armed arrival and pulls the next one.
func (a *arrival) Act() {
	m := a.m
	tree := m.nextTree
	m.nextTree = nil
	m.inject(tree)
	m.pump()
}

// inject enters one job into the system. The root goal arrives from the
// outside world: it is accepted at RootPE directly rather than placed
// by the strategy, so competing strategies start from identical state.
func (m *Machine) inject(tree *workload.Tree) {
	j := m.jobs.get()
	// The epoch survives the wipe, bumped: goals of the struct's
	// previous occupant (possible only on lossy runs) stay stale.
	ep := j.epoch
	*j = jobState{
		id:         m.stats.JobsInjected,
		tree:       tree,
		injectedAt: m.eng.Now(),
		epoch:      ep + 1,
		ckptSeen:   -1,
	}
	m.stats.JobsInjected++
	m.stats.Goals += tree.Count()
	m.grp.inFlight.Add(1)
	if m.ckpt {
		m.liveJobs = append(m.liveJobs, j)
	}
	m.injectRoot(j)
}

// injectRoot places job j's root goal at the machine's ingress — shared
// by fresh injections and crash retries. The outside world delivers to
// a live PE: a downed root PE redirects to the nearest live one. Runs
// on the home shard (the RootPE owner); a refuge owned by another shard
// is reached through the normal cross-shard goal routing rather than a
// direct Accept, so mid-window re-injections (backoff retries) stay
// within the conservative-lookahead contract.
func (m *Machine) injectRoot(j *jobState) {
	rootPE := m.cfg.RootPE
	if m.grp.failed[rootPE] {
		rootPE = m.nearestLive(rootPE)
		m.stats.RootRedirects++
	}
	root := m.newGoal(j.tree.Root, j, -1, -1)
	root.Origin = rootPE
	m.emit(trace.GoalCreated, rootPE, -1, root.ID)
	if pe := m.pes[rootPE]; pe != nil {
		pe.Accept(root)
		return
	}
	m.routeGoal(m.cfg.RootPE, rootPE, root)
}

// freeJob recycles a completed job's state record.
//
//simlint:free
func (m *Machine) freeJob(j *jobState) {
	j.tree = nil
	m.jobs.put(j)
}

// finalize commits the shard's own per-PE and per-channel accounting
// into its Stats; shardGroup.finalize merges the shards and sets the
// group-level outcome.
func (m *Machine) finalize() {
	s := m.stats
	now := m.eng.Now()
	s.Events = m.eng.Processed() + m.batchExtra
	s.Warmup = m.cfg.Warmup
	s.WarmupBusy = m.warmupBusy
	for lx := range m.peBlock {
		pe := &m.peBlock[lx]
		i := pe.id
		b := pe.committedBusy()
		s.BusyPerPE[i] = b
		s.TotalBusy += b
		s.GoalsPerPE[i] = pe.goalsExecuted
		if m.peFailed[lx] {
			// Close the open blackout at the horizon so capacity
			// accounting covers the whole run.
			pe.downTime += now - pe.failedAt
			pe.failedAt = now
		}
		s.DownPETime += pe.downTime
	}
	// Channels are charged their full occupancy at transmit time; commit
	// only the elapsed part, or a run cut off with messages on the wire
	// would report > 100% channel utilization.
	for li := range m.hot {
		h := &m.hot[li]
		gi := m.chanID(int32(li))
		s.ChannelBusy[gi] = h.committedBusy(now)
		s.ChannelMsgs[gi] = h.messages
	}
}
