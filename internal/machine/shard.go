// This file is the execution engine every run goes through: a group of
// K >= 1 shards advancing in conservative-lookahead windows. Each shard
// captures its own PE block's sampling partials and buffers its own
// trace events; the coordinator applies scenario ops at window barriers
// (applyOps) and folds everything into the merged result (mergeSamples,
// mergeInjSoj, replayTrace below).
package machine

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
)

// shardSeedSalt derives shard s's engine seed as
// Seed ^ s*shardSeedSalt (the PCG multiplier as an odd mixing
// constant), giving each shard its own tie-break stream. Shard 0 keeps
// the plain seed.
const shardSeedSalt = 0x5851F42D4C957F2D

// xmsg is one cross-shard send with its delivery time: what a shard's
// outbox holds between a send and the window barrier that drains it
// into the receiving shard's engine. It is a wire message, or (w nil) a
// load word by value: its channel's global ID, its sender and its load,
// from which drain looks up the receiving shard's row.
type xmsg struct {
	at             sim.Time
	w              *wireMsg
	ci, from, load int32
}

// shardSample is one shard's contribution to one globally synchronized
// sampling instant: the raw partials over its own PE block, folded into
// full-machine series points by mergeSamples. The raw queue-length sums
// are carried (not a per-shard fairness index) because Jain's index is
// a ratio of sums — it cannot be merged from per-shard indices, only
// recomputed from the pooled partials.
type shardSample struct {
	at, window sim.Time
	busyDelta  sim.Time  // block busy time accrued inside the window
	qsum, qsq  float64   // block queue-length sum and sum of squares
	frame      []float64 // block per-PE utilization; empty unless MonitorPE
	sojEnd     int       // the completion log's length; 0 unless it is kept
}

// shardGroup coordinates the machines of one run: K >= 1 contiguous PE
// blocks, each a full Machine with its own event engine, free lists and
// statistics, advancing in lockstep windows of one conservative
// lookahead each. The protocol is the classic Chandy-Misra-Bryant
// window discipline run as a barrier loop:
//
//	repeat:
//	  every shard runs its engine to the window end W    (parallel)
//	  the coordinator drains all cross-shard outboxes    (sequential)
//	  completion check; advance W by the lookahead
//
// R = min(K, GOMAXPROCS) runners execute the shards, R = 1 under
// ShardSerial: runner r owns shards r, r+R, r+2R, ... for the whole
// run. Runner 0 is the coordinator's own goroutine; runners 1..R-1 are
// persistent goroutines released each window by an atomic counter (see
// runWindow and parker), so a window costs no channel hand-off while
// the runners keep pace. One runner is the serial replay: the same
// windows, shard by shard, on the caller's goroutine.
//
// The lookahead is the minimum wire latency on any channel crossing a
// shard boundary, so no message sent inside a window can be due before
// the window after it — every shard always holds its complete event
// set for the window it is executing, with no rollbacks and no null
// messages. A group with no boundary-crossing channel (always so for
// one shard) has unbounded lookahead: its run is one window to MaxTime,
// cut only at scripted op instants. Determinism: shards interact only
// through the outboxes (drained in a fixed order by the single-threaded
// coordinator) and one shared in-flight job counter (atomic adds
// commute; branched on only at barriers), so a run is a pure function
// of seed and shard count — the parallel schedule cannot change the
// result, pinned by the ShardSerial cross-checks.
type shardGroup struct {
	// inFlight is the group-wide injected-but-uncompleted job count,
	// updated atomically from any shard.
	inFlight atomic.Int64

	topo *topology.Topology
	cfg  Config
	part topology.Partition
	k    int // shard count after clamping to the machine size
	home int // the shard owning RootPE: source, arrivals, injection

	// lookahead is the conservative window width (0: unbounded, no
	// channel crosses a shard boundary); winEnd the current window's
	// end, read by handOff's safety assertion.
	lookahead sim.Time
	winEnd    sim.Time

	machines []*Machine

	// completed is the group outcome, set by runWindows when a one-shard
	// run stopped itself at the instant its last job left, or at a
	// barrier that finds the source exhausted and no job in flight.
	// Several shards never stop mid-window: which one would observe the
	// in-flight count hit zero depends on thread schedule, not virtual
	// time.
	completed bool

	// Runners (runWindow). nrun is R, and runners[r-1] parks runner r
	// (none for one runner). release counts the windows released, and
	// finished the windows that runners 1..R-1 have each run; coord
	// parks the coordinator waiting for finished. errs[s] is shard s's
	// recovered panic. stop, set before the final release, tells the
	// runners to exit, and exited waits for them.
	nrun     int
	runners  []parker
	release  atomic.Uint64
	finished atomic.Uint64
	coord    parker
	errs     []any
	stop     bool
	exited   sync.WaitGroup

	inbox []xmsg    // reused buffer for sorting one drain
	frame []float64 // reused by mergeSamples: one full-machine monitor frame
	sojs  []float64 // reused by mergeSamples: one instant's pooled sojourns

	// Scenario replay. scn is the script expanded once at construction
	// and shared by every shard; ops is its firing-order timeline,
	// applied by the coordinator at window barriers landed exactly on
	// each op's scripted time (run clamps window ends to the op cursor)
	// — opIx cursors it. failed/live mirror the shards' per-block
	// failure state machine-wide (nil/0 on unscripted runs); written only
	// at barriers, so mid-window reads (refuge selection, root
	// redirects) are race-free.
	scn    *scenario.Script
	ops    []scenario.Event
	opIx   int
	failed []bool
	live   int
}

// spinPolls is how many times a waiting side of the window barrier
// polls its counter before it parks. It counts polls, not time, because
// simulation code reads no clock; 65,536 polls take about 0.1 ms on a
// 2-CPU Xeon host, where a parked goroutine takes as long or longer to
// wake. Measured there on fault-shard (2 shards, about 80 µs of work
// per shard per window at the time; payload load words have since cut
// the work to about 0.6x): 4,096 polls ran 2.0x as long as 65,536, and
// 262,144 polls 0.92x. With another process keeping one CPU busy,
// 262,144 polls ran 1.18x as long as 65,536, and 65,536 ran 1.13x as
// long as the per-window channel hand-off this barrier replaced.
const spinPolls = 1 << 16

// yieldPolls is how often a polling side yields its processor, so a
// runner that shares it with other goroutines still lets them run.
const yieldPolls = 1 << 10

// parker is one waiting side of the window barrier. It polls an atomic
// counter, yielding every yieldPolls polls, and after spinPolls parks
// on a one-token channel until the side that moved the counter hands
// it the token (notify).
type parker struct {
	parked atomic.Bool
	wake   chan struct{}
}

func newParker() parker { return parker{wake: make(chan struct{}, 1)} }

// await polls c until it reads at least want.
func (p *parker) await(c *atomic.Uint64, want uint64) {
	for i := 1; ; i++ {
		if c.Load() >= want {
			return
		}
		if i < spinPolls {
			if i%yieldPolls == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Announce the park, then poll once more. The mover stores c
		// before it loads parked, so at least one side sees the other.
		// Whoever clears parked decides: the notifier sends one token,
		// which must then be taken, even if c has reached want.
		p.parked.Store(true)
		if c.Load() >= want && p.parked.CompareAndSwap(true, false) {
			continue
		}
		<-p.wake
	}
}

// notify wakes p if it parked; call it after moving p's counter.
func (p *parker) notify() {
	if p.parked.Load() && p.parked.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
	}
}

// newShardGroup partitions the topology and builds the K shard
// machines: Shards 0 and 1 both mean one shard, and the count is
// clamped to the machine size. cfg must already be validated.
func newShardGroup(topo *topology.Topology, source JobSource, strat Strategy, cfg Config) *shardGroup {
	k := min(max(cfg.Shards, 1), topo.Size())
	if so, ok := strat.(SequentialOnly); ok && k > 1 {
		panic("machine: strategy " + strat.Name() + " cannot run sharded: " + so.SequentialOnly())
	}
	part := topo.Partition(k)
	minHop := cfg.GoalHopTime
	if cfg.RespHopTime < minHop {
		minHop = cfg.RespHopTime
	}
	if cfg.CtrlHopTime < minHop {
		minHop = cfg.CtrlHopTime
	}
	g := &shardGroup{
		topo: topo,
		cfg:  cfg,
		part: part,
		k:    k,
		home: part.Assign[cfg.RootPE],
	}
	// Every channel can carry every message kind, so each
	// boundary-crossing channel's guaranteed latency is the minimum hop
	// time. With no such channel (always so for one shard) the lookahead
	// stays 0: unbounded.
	if len(part.Cross) > 0 {
		g.lookahead = minHop
	}
	// Expand the scenario once for the whole group; every shard shares
	// the result. Pre-sort the op timeline and allocate the global
	// failure map the shards consult mid-window.
	if !cfg.Scenario.Empty() {
		g.scn = cfg.Scenario.Expand(topo.Size(), cfg.MaxTime)
		g.ops = g.scn.Sorted()
		g.failed = make([]bool, topo.Size())
		g.live = topo.Size()
	}
	if cfg.MonitorPE {
		g.frame = make([]float64, topo.Size())
	}
	g.machines = make([]*Machine, k)
	for s := 0; s < k; s++ {
		g.machines[s] = newMachine(topo, source, strat, cfg, g, s)
	}
	// Stamp each shard's channel copies with the cross-shard member map:
	// which other shards hear a broadcast, and whether any local member
	// remains to hear it locally. Only the partition's cross-channel set
	// needs stamping — a shard-internal channel's construction state
	// (cross unset, local set) already means "deliver locally only" —
	// which keeps this
	// loop off the full channel list entirely: an implicit topology's
	// channels are enumerated per ID, never materialized.
	counts := make([]int, k)
	owners := make([]int, 0, k)
	var mbuf []int
	for _, ci := range part.Cross {
		for s := range counts {
			counts[s] = 0
		}
		owners = owners[:0]
		mbuf = topo.AppendChannelMembers(mbuf[:0], ci)
		for _, pe := range mbuf {
			s := part.Assign[pe]
			if counts[s] == 0 {
				owners = append(owners, s)
			}
			counts[s]++
		}
		sort.Ints(owners)
		for _, s := range owners {
			m := g.machines[s]
			lc := m.chanLocal(ci)
			h, cs := &m.hot[lc], &m.chans[lc]
			h.cross, h.local = true, counts[s] >= 2
			for _, o := range owners {
				if o != s {
					cs.crossTo = append(cs.crossTo, o)
				}
			}
		}
	}
	return g
}

// run executes the window-barrier loop to completion (or MaxTime) and
// returns the merged statistics.
func (g *shardGroup) run() *Stats {
	g.runWindows()
	return g.finalize()
}

// runWindows is run's window-barrier loop. Any runner goroutines it
// starts have exited by the time it returns or panics.
func (g *shardGroup) runWindows() {
	home := g.machines[g.home]
	g.nrun = 1
	if !g.cfg.ShardSerial {
		g.nrun = min(g.k, runtime.GOMAXPROCS(0))
	}
	if g.nrun > 1 {
		// Build a materialized topology's shared routing tables (DLM
		// and irregular graphs; grid, torus and hypercube specs route in
		// closed form) before goroutines race to the same sync.Once.
		g.topo.Dist(0, 0)
		g.startRunners()
		defer g.stopRunners()
	}
	home.pump()
	maxT := g.cfg.MaxTime
	// start is the last executed instant; each window runs (start,
	// start+lookahead]. It begins at -1 — nothing, including time 0, has
	// executed — so the first window is [0, lookahead-1] and a send at
	// time u always lands at u+hop >= start+1+lookahead, strictly past
	// the window end: the conservative guarantee handOff asserts.
	start := sim.Time(-1)
	for {
		end := maxT
		if g.lookahead > 0 && start+g.lookahead < maxT {
			end = start + g.lookahead
		}
		// Park the barrier one tick short of the next scenario op's
		// scripted time: shrinking a window is always conservative, and
		// it lets the coordinator apply the op at its exact instant
		// BEFORE that instant's machine events fire (ties among
		// same-instant ops break in script order). opAt marks an
		// op-landing barrier (an empty window when the op falls on
		// start+1 — that just advances the cursor).
		opAt := sim.Time(-1)
		if g.opIx < len(g.ops) {
			if at := g.ops[g.opIx].At; at > start && at <= end {
				end = at - 1
				opAt = at
			}
		}
		g.winEnd = end
		g.runWindow()
		if home.eng.Stopped() {
			// A single shard observes completion exactly in virtual time
			// and stops its engine mid-window (stopIfIdle).
			g.completed = true
			break
		}
		if opAt >= 0 {
			// Every shard is quiescent at end = opAt-1: step the clocks
			// onto the op instant (no events fire — the earliest pending
			// ones are at opAt) and apply everything scripted there.
			for _, m := range g.machines {
				m.eng.AdvanceTo(opAt)
			}
			g.applyOps(opAt)
		}
		g.drain()
		g.mergeSamples()
		if home.srcDone && g.inFlight.Load() == 0 {
			// At a barrier every shard is quiescent, so the shared count
			// is exact: every injected job left and no arrivals remain.
			// (In-flight control traffic may outlive completion, exactly
			// as on one shard.) A one-shard run gets here only when an
			// op at this barrier abandoned its last job.
			g.completed = true
			break
		}
		if end >= maxT {
			break
		}
		start = end
		// Fast-forward over windows no shard has events in: begin the
		// next window one unit before the globally earliest event or
		// not-yet-applied scenario op.
		if next, ok := g.nextPending(); !ok {
			start = maxT
		} else if next > start+1 {
			start = next - 1
		}
	}
}

// startRunners starts runners 1..nrun-1.
func (g *shardGroup) startRunners() {
	g.coord = newParker()
	g.errs = make([]any, g.k)
	g.runners = make([]parker, g.nrun-1)
	g.exited.Add(len(g.runners))
	for i := range g.runners {
		g.runners[i] = newParker()
		go g.runnerLoop(i + 1)
	}
}

// stopRunners releases the runners one last time with stop set and
// returns once every runner goroutine has exited. No shard is running
// whenever it runs: after the last window, or after runWindow's barrier
// re-raised a shard panic.
func (g *shardGroup) stopRunners() {
	g.stop = true
	g.release.Add(1)
	for i := range g.runners {
		g.runners[i].notify()
	}
	g.exited.Wait()
}

// runnerLoop is runner r >= 1: it runs its shards in each window
// released, and whichever runner finishes a window last wakes the
// coordinator.
func (g *shardGroup) runnerLoop(r int) {
	defer g.exited.Done()
	done := uint64(len(g.runners))
	for w := uint64(1); ; w++ {
		g.runners[r-1].await(&g.release, w)
		if g.stop {
			return
		}
		g.runOwned(r)
		if g.finished.Add(1) == w*done {
			g.coord.notify()
		}
	}
}

// runOwned runs runner r's shards to the window end. A panic is kept
// in errs[s] for the coordinator to re-raise after the barrier.
func (g *shardGroup) runOwned(r int) {
	for s := r; s < g.k; s += g.nrun {
		g.errs[s] = g.runShardRecover(s)
	}
}

// runShardRecover runs shard s to the window end and returns a panic
// as a value.
func (g *shardGroup) runShardRecover(s int) (err any) {
	defer func() { err = recover() }()
	g.machines[s].eng.RunUntil(g.winEnd)
	return nil
}

// runWindow runs every shard to the window end g.winEnd. With one
// runner this goroutine runs them all in shard order, so a panic keeps
// its stack. Otherwise it releases runners 1..R-1, runs runner 0's
// shards and waits at the barrier until every runner has finished the
// window. A shard panic is re-raised only then, so no shard is left
// mid-window. Shards interact only through the barriers, so which
// goroutine runs a shard does not change the result, pinned bit for
// bit by the ShardSerial cross-checks.
func (g *shardGroup) runWindow() {
	if len(g.runners) == 0 {
		for _, m := range g.machines {
			m.eng.RunUntil(g.winEnd)
		}
		return
	}
	w := g.release.Add(1)
	for i := range g.runners {
		g.runners[i].notify()
	}
	g.runOwned(0)
	g.coord.await(&g.finished, w*uint64(len(g.runners)))
	for _, err := range g.errs {
		if err != nil {
			panic(err)
		}
	}
}

// drain moves every cross-shard outbox into its receiving shard's
// engine, in a thread-schedule-independent total order: by delivery
// time, ties by sending shard, FIFO within a shard pair. Runs on the
// coordinator between windows, when all shards are quiescent.
func (g *shardGroup) drain() {
	for dstID, dst := range g.machines {
		buf := g.inbox[:0]
		for _, src := range g.machines {
			if src == dst {
				continue
			}
			q := src.xout[dstID]
			buf = append(buf, q...)
			for i := range q {
				q[i] = xmsg{}
			}
			src.xout[dstID] = q[:0]
		}
		// Stable insertion sort: windows are one lookahead wide, so the
		// per-window buffers are small and allocation-free beats O(n log n).
		for i := 1; i < len(buf); i++ {
			for j := i; j > 0 && buf[j].at < buf[j-1].at; j-- {
				buf[j], buf[j-1] = buf[j-1], buf[j]
			}
		}
		for _, x := range buf {
			if x.w == nil {
				dst.wordAt(x.at, dst.fanOf(int(x.ci), int(x.from)), x.load)
				continue
			}
			x.w.m = dst
			dst.eng.AtAction(x.at, x.w)
		}
		g.inbox = buf
	}
}

// nextEvent returns the earliest pending event time across all shards.
func (g *shardGroup) nextEvent() (sim.Time, bool) {
	var min sim.Time
	ok := false
	for _, m := range g.machines {
		if t, has := m.eng.NextEventAt(); has && (!ok || t < min) {
			min, ok = t, true
		}
	}
	return min, ok
}

// nextPending is nextEvent extended with the scenario op cursor, so the
// fast-forward cannot jump past an op's scripted time — the next
// window's clamped end must still be able to park one tick short of it.
func (g *shardGroup) nextPending() (sim.Time, bool) {
	t, ok := g.nextEvent()
	if g.opIx < len(g.ops) {
		if at := g.ops[g.opIx].At; !ok || at < t {
			t, ok = at, true
		}
	}
	return t, ok
}

// applyOps applies every scenario op scripted at or before the op
// instant the barrier just advanced onto, in firing order, while all
// shards are quiescent and before that instant's machine events run.
// Ops run before drain so their sends (evacuations, availability
// broadcasts) are delivered with this barrier's batch.
func (g *shardGroup) applyOps(end sim.Time) {
	for g.opIx < len(g.ops) && g.ops[g.opIx].At <= end {
		g.applyOp(g.ops[g.opIx])
		g.opIx++
	}
}

// owner returns the machine owning PE id.
func (g *shardGroup) owner(id int) *Machine { return g.machines[g.part.Assign[id]] }

// applyOp routes one scenario op to the shards it affects: PE ops to
// the targets' owners, link ops to every shard's channel copies,
// checkpoint ticks and restore/recover-all sweeps to all shards, load
// shocks to the home shard (which owns the arrival process). Every
// shard's engine sits exactly at the barrier time, so the op applies at
// one consistent instant machine-wide.
func (g *shardGroup) applyOp(ev scenario.Event) {
	p := g.topo.Size()
	switch ev.Kind {
	case scenario.SlowPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.setSpeed(m.pes[id], m.pes[id].nominalSpeed()*ev.Factor)
		}
	case scenario.RestorePE:
		targets := ev.Targets(p)
		if targets == nil {
			for _, m := range g.machines {
				for lx := range m.peBlock {
					pe := &m.peBlock[lx]
					if pe.Speed() != pe.nominalSpeed() {
						m.setSpeed(pe, pe.nominalSpeed())
					}
				}
			}
			return
		}
		for _, id := range targets {
			m := g.owner(id)
			m.setSpeed(m.pes[id], m.pes[id].nominalSpeed())
		}
	case scenario.FailPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.failPE(m.pes[id])
		}
	case scenario.CrashPE:
		for _, id := range ev.Targets(p) {
			m := g.owner(id)
			m.crashPE(m.pes[id])
		}
	case scenario.RecoverPE:
		targets := ev.Targets(p)
		if targets == nil {
			for _, m := range g.machines {
				for lx := range m.peBlock {
					if m.peFailed[lx] {
						m.recoverPE(&m.peBlock[lx])
					}
				}
			}
			return
		}
		for _, id := range targets {
			m := g.owner(id)
			m.recoverPE(m.pes[id])
		}
	case scenario.DegradeLink:
		for _, m := range g.machines {
			m.setLinkState(ev.A, ev.B, ev.Factor, ev.Factor == 0)
		}
	case scenario.RestoreLink:
		for _, m := range g.machines {
			m.setLinkState(ev.A, ev.B, 0, false)
		}
	case scenario.LoadShock:
		g.machines[g.home].rateMul = ev.Factor
	case scenario.CheckpointTick:
		for _, m := range g.machines {
			m.checkpointTick(ev.Cost)
		}
		// Snapshot every live job's position as of this barrier: several
		// shards advance one job's progress inside a window, and only the
		// barrier gives one consistent, schedule-independent instant. The
		// home machine's registry is compacted in the same walk:
		// completed or abandoned jobs were freed (nil tree) and recycled
		// structs were re-appended, so dead entries just drop.
		home := g.machines[g.home]
		now := home.eng.Now()
		live := home.liveJobs[:0]
		for _, j := range home.liveJobs {
			if j.tree == nil {
				continue
			}
			j.ckptProgress = j.progress.Load()
			j.ckptSeen = now
			live = append(live, j)
		}
		for i := len(live); i < len(home.liveJobs); i++ {
			home.liveJobs[i] = nil
		}
		home.liveJobs = live
	}
}

// stalled reports whether an incomplete run is a lost-goal deadlock
// rather than genuine saturation: jobs remain in flight but no goal or
// response exists anywhere — every PE idle with an empty queue, nothing
// on a channel, no arrivals or crash retries pending. It is
// conservative: a stall is only declared when detection is certain.
// (Caveat: a strategy that buffers goals in private node state outside
// the PE queues defeats the "certain" part; the shipped strategies keep
// goals queued or in transit.) Transit counters increment on the
// sending shard and decrement on the receiving one, so only their sum
// is meaningful.
func (g *shardGroup) stalled() bool {
	if g.completed || g.inFlight.Load() == 0 || !g.machines[g.home].srcDone {
		return false
	}
	var transit int64
	for _, m := range g.machines {
		transit += m.goalsInTransit + m.respsInTransit + m.retryPending
	}
	if transit != 0 {
		return false
	}
	for _, m := range g.machines {
		for i := range m.peBusy {
			if m.peBusy[i] || m.peQueue[i] > 0 {
				return false
			}
		}
	}
	return true
}

// finalize merges the shards' statistics into shard 0's Stats and
// applies the group-level outcome.
func (g *shardGroup) finalize() *Stats {
	root := g.machines[0]
	// Deterministic finish rule, one for every shard count: a completed
	// run ends at the latest instant a job left, completed or abandoned.
	// The result is the last completion's value, ties resolved toward the
	// higher shard (within one shard, engine order already picked the
	// later completion's); a K-shard run reports it only when completed.
	var fin, lastDone sim.Time = 0, -1
	var result int64
	for _, m := range g.machines {
		fin = max(fin, m.lastLeft)
		if (g.completed || g.k == 1) && m.stats.JobsDone > 0 && m.lastDone >= lastDone {
			lastDone, result = m.lastDone, m.result
		}
	}
	for _, m := range g.machines {
		m.finalize()
	}
	s := root.stats
	for _, m := range g.machines[1:] {
		s.merge(m.stats)
	}
	g.mergeSamples()
	g.mergeInjSoj(s)
	g.replayTrace()
	s.Completed = g.completed
	s.Result = result
	s.Makespan = root.eng.Now()
	if g.completed {
		s.Makespan = fin
	}
	s.Stalled = g.stalled()
	if g.k > 1 {
		// Per-shard completion order interleaves; restore global
		// completion order, then re-apply the record cap the per-shard
		// streams enforced individually.
		sort.Slice(s.JobRecords, func(i, j int) bool {
			a, b := s.JobRecords[i], s.JobRecords[j]
			if a.DoneAt != b.DoneAt {
				return a.DoneAt < b.DoneAt
			}
			return a.ID < b.ID
		})
		if b := g.cfg.SojournBound; b > 0 && len(s.JobRecords) > b {
			s.JobRecords = s.JobRecords[:b]
		}
	}
	return s
}

// mergeSamples folds the shards' pending sampling partials into the
// root statistics' full-machine series and empties them: immediately on
// a one-shard group (sample calls it), at each window barrier on
// several shards. Every shard samples its own PE block at the same
// instants (the observer stagger phase draws from the plain seed on
// every shard) and has fired every tick up to the barrier, so the
// streams align index by index; divergence would mean the
// synchronization contract broke, which is a bug worth crashing on, not
// papering over.
func (g *shardGroup) mergeSamples() {
	ref := g.machines[0].shardSamples
	for _, m := range g.machines[1:] {
		if len(m.shardSamples) != len(ref) {
			panic("machine: shard sample streams diverged in length — sample instants must be globally synchronized")
		}
	}
	s := g.machines[0].stats
	p := float64(g.topo.Size())
	for i, r := range ref {
		var busyDelta sim.Time
		var qsum, qsq float64
		g.sojs = g.sojs[:0]
		for _, m := range g.machines {
			sp := &m.shardSamples[i]
			if sp.at != r.at || sp.window != r.window {
				panic("machine: shard sample instants diverged — sample instants must be globally synchronized")
			}
			busyDelta += sp.busyDelta
			qsum += sp.qsum
			qsq += sp.qsq
			if g.frame != nil {
				copy(g.frame[m.peLo:m.peHi], sp.frame)
			}
			for _, c := range m.sojLog[m.sojPooled:sp.sojEnd] {
				g.sojs = append(g.sojs, float64(c.sojourn))
			}
			m.sojPooled = sp.sojEnd
		}
		s.Timeline.Add(float64(r.at), 100*float64(busyDelta)/(float64(r.window)*p))
		if g.frame != nil {
			s.Monitor.Append(r.at, g.frame)
		}
		s.QueueLen.Add(float64(r.at), qsum/p)
		imb := 1.0
		if qsq > 0 {
			imb = qsum * qsum / (p * qsq)
		}
		s.QueueImbalance.Add(float64(r.at), imb)
		// Windowed sojourn p99 (scenario runs): one point per window that
		// completed at least one job. Windows ending inside the warm-up
		// are dropped — the empty-machine ramp's short sojourns would bias
		// the recovery baseline low, exactly as they would bias
		// SteadySojourn.
		if len(g.sojs) > 0 && r.at >= g.cfg.Warmup {
			s.SojournWindows.Add(float64(r.at), p99(g.sojs))
		}
	}
	for _, m := range g.machines {
		m.shardSamples = m.shardSamples[:0]
	}
}

// p99 sorts xs in place and returns its 99th percentile (nearest rank).
func p99(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[max(int(math.Ceil(0.99*float64(len(xs))))-1, 0)]
}

// mergeInjSoj buckets every shard's completion log by injection window
// into the merged InjSojournWindows series: one point per window that
// injected a job which completed, the p99 of those jobs' sojourns,
// recorded at the window's end. The windows are SampleInterval wide, or
// under a SeriesBound the least power-of-two multiple of it that leaves
// fewer than SeriesBound windows up to the latest injection, so the
// series holds at most SeriesBound points, each exact over its window.
func (g *shardGroup) mergeInjSoj(s *Stats) {
	if g.machines[0].sojLog == nil {
		return
	}
	var last sim.Time
	for _, m := range g.machines {
		for _, c := range m.sojLog {
			last = max(last, c.injectedAt)
		}
	}
	width := g.cfg.SampleInterval
	for b := sim.Time(g.cfg.SeriesBound); b > 0 && last/width >= b; {
		width *= 2
	}
	buckets := make([][]float64, last/width+1)
	for _, m := range g.machines {
		for _, c := range m.sojLog {
			w := c.injectedAt / width
			buckets[w] = append(buckets[w], float64(c.sojourn))
		}
	}
	for w, sojs := range buckets {
		end := sim.Time(w+1) * width
		if len(sojs) == 0 || end <= g.cfg.Warmup {
			continue // no completed job, or only pre-warm-up injections
		}
		s.InjSojournWindows.Add(float64(end), p99(sojs))
	}
}

// replayTrace replays the shards' buffered trace events into the Sink
// in a thread-schedule-independent total order: by event time, ties by
// shard, FIFO within one shard's buffer. Each buffer is already in time
// order (a shard emits in engine order, and barrier-applied ops emit at
// the barrier's instant), so the order is a k-way merge. Runs on the
// coordinator's goroutine — at finalize after the runners have exited,
// or mid-run from a one-shard group's emit — so the Sink keeps its
// single-goroutine contract.
func (g *shardGroup) replayTrace() {
	if g.cfg.Trace == nil {
		return
	}
	total := 0
	for _, m := range g.machines {
		total += len(m.traceBuf)
	}
	if c, ok := g.cfg.Trace.(*trace.Collector); ok {
		c.Grow(total)
	}
	next := make([]int, g.k)
	for ; total > 0; total-- {
		best := -1
		for sh, m := range g.machines {
			if i := next[sh]; i < len(m.traceBuf) && (best < 0 || m.traceBuf[i].At < g.machines[best].traceBuf[next[best]].At) {
				best = sh
			}
		}
		g.cfg.Trace.Record(g.machines[best].traceBuf[next[best]])
		next[best]++
	}
	for _, m := range g.machines {
		m.traceBuf = m.traceBuf[:0]
	}
}
