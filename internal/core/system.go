package core

import (
	"fmt"
	"sort"

	"ccsim/internal/cache"
	"ccsim/internal/check"
	"ccsim/internal/fault"
	"ccsim/internal/memsys"
	"ccsim/internal/network"
	"ccsim/internal/sim"
	"ccsim/internal/stats"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// System is the coherence fabric of one simulated machine: one node per
// processor, each with a local bus, a home (directory) controller for the
// memory pages it owns, and a second-level cache controller.
type System struct {
	Eng *sim.Engine
	Net network.Net
	P   Params

	Nodes []*Node

	// Traffic counts network messages (local bus transactions between a
	// cache and its own memory do not enter the network).
	Traffic stats.Traffic

	// statsOn gates the measurement counters so only the parallel section
	// is recorded (SPLASH methodology, paper §4).
	statsOn bool

	// Tracer, when non-nil, receives protocol events (message sends and
	// deliveries, directory transitions, cache fills and evictions).
	Tracer *trace.Tracer

	// Tele, when non-nil, collects transaction spans, stall intervals and
	// utilization samples. A nil collector is a no-op on every path.
	Tele *telemetry.Collector

	// Rec is the fault flight recorder: a fixed ring of the last protocol
	// messages, dumped with a SimFault. A nil recorder is a free no-op.
	Rec *fault.Recorder

	// Check, when non-nil, is the live coherence checker: every directory
	// and SLC state transition reports to it and a violated invariant
	// panics with a structured *fault.SimFault at the offending event.
	// Hook sites cost one nil check when disabled, like Tracer and Rec.
	Check *check.Oracle

	// Shr, when non-nil, is the sharing-pattern analyzer: processor
	// accesses, demand misses, invalidations, updates and network messages
	// report per block so each block's access stream can be classified
	// (read-only, migratory, producer-consumer, ...). Hooks fire only
	// inside the measured section and cost one nil check when disabled.
	Shr *telemetry.Sharing

	// mutArmed is the one-shot protocol-mutation trigger (Params.Mutate):
	// the first transition matching the mutation kind takes it and
	// misbehaves once, giving the checker a deterministic bug to catch.
	mutArmed bool

	// Dispatch context: the protocol message most recently delivered to a
	// controller. A panic inside a handler is attributed to this message
	// (plain value fields — maintaining them costs no allocation).
	lastType   MsgType
	lastBlock  memsys.Block
	lastDst    int
	lastToHome bool
	lastValid  bool

	// Block ids (see blocks.go): ids numbers each block on first sight,
	// blocks maps an id back to its block, and dir is the directory, one
	// entry per block, each used only by the block's home (HomeCtl.entry
	// enforces it).
	ids    map[memsys.Block]int32
	blocks []memsys.Block
	dir    table[dirEntry]

	// Data-value verification state (Params.VerifyData): a per-word version
	// counter per block, advanced at each write's global serialization
	// point, and the violations found.
	verify         bool
	verSeq         table[memsys.BlockData]
	DataViolations []string

	// hopFree recycles the per-message event-chain records Send schedules;
	// see the hop type.
	hopFree []*hop
}

// serialize is a write's global serialization point on behalf of node: it
// draws the next version for word w of block id and reports it to the live
// checker, which asserts the serialization order is gapless and (under
// LogObs) records it for litmus outcome predicates.
func (s *System) serialize(node int, id int32, w int) int64 {
	seq := s.verSeq.at(id)
	seq[w]++
	v := seq[w]
	if s.Check != nil {
		s.Check.OnWrite(node, s.blocks[id], w, v)
	}
	return v
}

// dirOf returns block b's directory entry, or nil when its home never
// handled a request for it.
func (s *System) dirOf(b memsys.Block) *dirEntry {
	id, ok := s.ids[b]
	if !ok {
		return nil
	}
	if e := s.dir.peek(id); e != nil && e.seen {
		return e
	}
	return nil
}

// takeMutation fires the armed protocol mutation if it matches kind,
// disarming it so the injected bug happens exactly once.
func (s *System) takeMutation(kind string) bool {
	if !s.mutArmed || s.P.Mutate != kind {
		return false
	}
	s.mutArmed = false
	return true
}

// dataViolation records one data-value invariant violation on block b
// (bounded). With the live checker attached it fails fast instead, so the
// fault names the event where the value invariant first broke.
func (s *System) dataViolation(b memsys.Block, format string, args ...any) {
	if s.Check != nil {
		s.Check.Failf("", b, format, args...)
	}
	if len(s.DataViolations) < 16 {
		s.DataViolations = append(s.DataViolations, fmt.Sprintf(format, args...))
	}
}

// traceMsg records a message event if tracing is enabled.
func (s *System) traceMsg(k trace.Kind, m *Msg) {
	if s.Tracer == nil {
		return
	}
	note := ""
	switch {
	case m.Excl:
		note = "excl"
	case m.Prefetch:
		note = "prefetch"
	case m.Mig:
		note = "mig"
	}
	s.Tracer.Record(trace.Event{
		At: int64(s.Eng.Now()), Kind: k, What: m.Type.String(),
		Block: uint64(m.Block), Node: m.Src, Peer: m.Dst, Note: note,
	})
}

// tmark timestamps the end of a telemetry phase on transaction txn at the
// current instant.
func (s *System) tmark(txn uint64, ph telemetry.Phase) {
	if txn != 0 && s.Tele != nil {
		s.Tele.Mark(txn, ph, int64(s.Eng.Now()))
	}
}

// traceNode records a node-local event (directory transition, fill,
// eviction) if tracing is enabled.
func (s *System) traceNode(k trace.Kind, what string, b memsys.Block, node int, note string) {
	if k == trace.DirTransition && s.Tele != nil && s.statsOn {
		s.Tele.RecordInstant(node, what, uint64(b), int64(s.Eng.Now()))
	}
	if s.Tracer == nil {
		return
	}
	s.Tracer.Record(trace.Event{
		At: int64(s.Eng.Now()), Kind: k, What: what,
		Block: uint64(b), Node: node, Peer: -1, Note: note,
	})
}

// SetStatsEnabled turns measurement gathering on or off; timing behavior is
// unaffected.
func (s *System) SetStatsEnabled(on bool) { s.statsOn = on }

// Node bundles one processor node's coherence machinery.
type Node struct {
	ID    int
	Bus   *sim.Resource
	Home  *HomeCtl
	Cache *CacheCtl
}

// NewSystem builds a machine from params over the given engine and network.
func NewSystem(eng *sim.Engine, net network.Net, params Params) (*System, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	s := &System{Eng: eng, Net: net, P: params, statsOn: true,
		ids: make(map[memsys.Block]int32), verify: params.VerifyData}
	s.mutArmed = params.Mutate != ""
	s.Nodes = make([]*Node, params.Nodes)
	for i := range s.Nodes {
		n := &Node{
			ID:  i,
			Bus: sim.NewResource(eng, fmt.Sprintf("bus%d", i)),
		}
		n.Home = newHomeCtl(s, i)
		n.Cache = newCacheCtl(s, i)
		s.Nodes[i] = n
	}
	return s, nil
}

// HomeOf returns the home node of block b.
func (s *System) HomeOf(b memsys.Block) int { return memsys.HomeOf(b, s.P.Nodes) }

// busTime returns the local-bus occupancy of message m.
func (s *System) busTime(m *Msg) sim.Time {
	if m.Data || m.Type == MsgUpdateReq || m.Type == MsgUpdCopy {
		return s.P.Timing.BusData
	}
	return s.P.Timing.BusCtl
}

// hop carries one in-flight message, by value, across its source bus ->
// network -> destination bus event chain. Hops are recycled through
// System.hopFree, so the per-message event chain — the hottest scheduling
// pattern in the simulator — allocates nothing once the free list is warm.
// The delivered message is lent to its handler until the hop returns to
// the free list.
type hop struct {
	s  *System
	m  Msg
	bt sim.Time
}

func (s *System) getHop(m *Msg, bt sim.Time) *hop {
	var h *hop
	if n := len(s.hopFree); n > 0 {
		h = s.hopFree[n-1]
		s.hopFree = s.hopFree[:n-1]
	} else {
		h = &hop{s: s}
	}
	h.m, h.bt = *m, bt
	return h
}

// deliver hands the hop's message to its controller, then recycles the hop.
func (s *System) deliver(h *hop) {
	s.dispatch(&h.m)
	s.hopFree = append(s.hopFree, h)
}

// hopSrcBus runs when the message clears its source node's bus.
func hopSrcBus(a any) {
	h := a.(*hop)
	s, m := h.s, &h.m
	if m.Src == m.Dst {
		// Local: one bus transaction carries the message to the memory
		// module or cache; no network involvement.
		s.deliver(h)
		return
	}
	if s.statsOn {
		s.Traffic.Add(m.Class(), m.Size())
		if s.Shr != nil {
			s.Shr.OnTraffic(uint64(m.Block), m.Class(), m.Size())
		}
	}
	s.Net.SendCall(m.Src, m.Dst, m.Size(), hopArrive, h)
}

// hopArrive runs when the message's last byte reaches the destination node.
func hopArrive(a any) {
	h := a.(*hop)
	h.s.Nodes[h.m.Dst].Bus.UseCall(h.bt, hopDstBus, h)
}

// hopDstBus runs when the message clears the destination node's bus.
func hopDstBus(a any) {
	h := a.(*hop)
	h.s.deliver(h)
}

// Send transmits m from m.Src to m.Dst: across the source node's bus, then
// the network (when the destination is remote), then the destination node's
// bus, and finally dispatches it to the home or cache controller.
func (s *System) Send(m *Msg) {
	s.traceMsg(trace.MsgSend, m)
	s.Rec.Record(int64(s.Eng.Now()), "send", m.Type.String(), uint64(m.Block), m.Src, m.Dst)
	bt := s.busTime(m)
	s.Nodes[m.Src].Bus.UseCall(bt, hopSrcBus, s.getHop(m, bt))
}

// arrivalPhase maps a delivered message to the span phase ending at its
// arrival: requests end the requester-to-home transit, forwards the
// home-to-owner transit, forward replies the owner leg, and replies the
// home-to-requester transit. Fan-out messages (Inv/UpdCopy and their acks)
// carry no transaction — their round trip is marked as PhaseGather at the
// home when the last ack arrives.
func arrivalPhase(t MsgType) (telemetry.Phase, bool) {
	switch t {
	case MsgReadReq, MsgOwnReq, MsgUpdateReq:
		return telemetry.PhaseRequest, true
	case MsgFwd:
		return telemetry.PhaseForward, true
	case MsgFwdReply:
		return telemetry.PhaseOwner, true
	case MsgReadReply, MsgOwnAck, MsgUpdateAck, MsgPrefNack:
		return telemetry.PhaseReply, true
	}
	return 0, false
}

func (s *System) dispatch(m *Msg) {
	s.traceMsg(trace.MsgDeliver, m)
	s.Rec.Record(int64(s.Eng.Now()), "recv", m.Type.String(), uint64(m.Block), m.Src, m.Dst)
	s.lastType, s.lastBlock, s.lastDst, s.lastToHome, s.lastValid =
		m.Type, m.Block, m.Dst, m.toHome(), true
	if s.Check != nil {
		s.Check.OnDispatch(m.Type.String(), m.Block, m.Dst, m.toHome())
	}
	if m.Txn != 0 && s.Tele != nil {
		if ph, ok := arrivalPhase(m.Type); ok {
			s.Tele.Mark(m.Txn, ph, int64(s.Eng.Now()))
		}
	}
	if m.toHome() {
		s.Nodes[m.Dst].Home.Handle(m)
	} else {
		s.Nodes[m.Dst].Cache.Handle(m)
	}
}

// Quiesced reports whether no coherence transactions are pending anywhere
// (used by the machine-level invariant checker at the end of a run).
func (s *System) Quiesced() bool {
	for _, n := range s.Nodes {
		if !n.Cache.idle() || !n.Home.idle() {
			return false
		}
	}
	return s.Eng.Pending() == 0
}

// CheckInvariants verifies global coherence invariants. It must be called
// at quiescence (no in-flight transactions). It returns a descriptive error
// on the first violation found.
func (s *System) CheckInvariants() error {
	errs := s.invariantErrors(true, 1)
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// CheckInvariantsBestEffort runs the invariant walk without requiring
// quiescence — blocks with in-flight transactions (busy directory entries,
// pending MSHRs or writebacks) are skipped rather than reported — and
// returns up to max findings. The fault path uses it so the coherence
// violation that caused a hang appears in the SimFault diagnostic.
func (s *System) CheckInvariantsBestEffort(max int) []string {
	errs := s.invariantErrors(false, max)
	out := make([]string, len(errs))
	for i, e := range errs {
		out[i] = e.Error()
	}
	return out
}

// invariantErrors is the shared invariant walker. In quiescent mode a
// non-quiesced home entry is itself a violation; in best-effort mode any
// block with in-flight state anywhere is excluded from every check. It
// walks the blocks in id order; findings are sorted before truncating to
// max to keep fault dumps deterministic.
func (s *System) invariantErrors(quiescent bool, max int) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	// Every cached copy, grouped by block id in node order: block id's
	// copies are all[first[id]:first[id+1]].
	type copyInfo struct {
		node  int
		state string
		dirty bool
	}
	first := make([]int, len(s.blocks)+1)
	for _, n := range s.Nodes {
		n.Cache.forEachLine(func(id int32, _ *cache.Line) { first[id+1]++ })
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	all := make([]copyInfo, first[len(s.blocks)])
	fill := append([]int(nil), first...)
	for _, n := range s.Nodes {
		n.Cache.forEachLine(func(id int32, l *cache.Line) {
			all[fill[id]] = copyInfo{n.ID, l.State.String(), l.State == cache.Dirty}
			fill[id]++
		})
	}
	for id, b := range s.blocks {
		copies := all[first[id]:first[id+1]]
		id := int32(id)
		// Best-effort mode skips blocks a cache controller still has a
		// transaction or writeback in flight for.
		if !quiescent && s.cachesBusy(id) {
			continue
		}
		var e *dirEntry
		if d := s.dir.peek(id); d != nil && d.seen {
			e = d
		}
		active := e != nil && e.active()
		if active {
			if !quiescent {
				continue
			}
			report("block %d: home not quiesced", b)
		}
		dirties := 0
		for _, c := range copies {
			if c.dirty {
				dirties++
				// Every dirty copy must be the registered owner.
				if e == nil || e.state != dirModified || e.owner != c.node {
					report("block %d: dirty at node %d without matching directory state", b, c.node)
				}
			}
		}
		if e == nil || active {
			continue
		}
		switch e.state {
		case dirClean:
			if dirties != 0 {
				report("block %d: CLEAN at home but %d dirty copies", b, dirties)
			}
			// An entry with an empty presence vector claims the block is
			// uncached machine-wide: no copy of any kind may exist.
			if e.presence == 0 && len(copies) > 0 {
				report("block %d: uncached at home but %d cached copies", b, len(copies))
			}
			// Presence must be a superset of actual holders (silent
			// replacement makes it a superset, not an exact set).
			for _, c := range copies {
				if e.presence&(1<<uint(c.node)) == 0 {
					report("block %d: node %d holds a copy not in the presence vector", b, c.node)
				}
			}
		case dirModified:
			if dirties > 1 {
				report("block %d: %d dirty copies", b, dirties)
			}
			for _, c := range copies {
				if c.node != e.owner {
					report("block %d: MODIFIED owner %d but node %d holds a %s copy", b, e.owner, c.node, c.state)
				}
			}
		default:
			// A directory entry outside the known states is corrupt
			// whatever the copies look like.
			report("block %d: unknown directory state %d", b, e.state)
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	if len(errs) > max {
		errs = errs[:max]
	}
	return errs
}

// cachesBusy reports whether any cache controller has a transaction or a
// writeback in flight for block id.
func (s *System) cachesBusy(id int32) bool {
	for _, n := range s.Nodes {
		if r := n.Cache.recs.peek(id); r != nil && (r.ms != nil || r.flags&wbPending != 0) {
			return true
		}
	}
	return false
}
