package core

import (
	"fmt"
	"math/bits"

	"ccsim/internal/memsys"
	"ccsim/internal/syncprim"
	"ccsim/internal/telemetry"
	"ccsim/internal/trace"
)

// dirState is a memory block's stable directory state. The paper's three
// transient states are represented by the entry's busy flag plus the
// transaction context; requests arriving at a busy entry are deferred, which
// serializes transactions per block exactly as a real home controller does.
type dirState uint8

const (
	dirClean    dirState = iota // the memory copy is valid
	dirModified                 // exactly one cache holds the exclusive copy
)

// txnKind identifies the in-flight transaction at a busy entry.
type txnKind uint8

const (
	txNone   txnKind = iota
	txMem            // simple memory access in progress
	txFwd            // waiting for the dirty owner's FwdReply (read miss)
	txInv            // waiting for invalidation acks (ownership grant)
	txUpd            // waiting for update acks (competitive update fanout)
	txRecall         // waiting for the owner's copy to serve an update
)

// dirEntry is the directory state of one memory block: the full-map
// presence vector and stable state of BASIC (paper §2), plus the migratory
// bit, last-writer pointer and last-updater pointer the M and CW+M
// extensions add (paper §3.2, §3.4). Entries live in the System's
// id-indexed directory table; only the block's home touches one.
type dirEntry struct {
	state    dirState
	seen     bool   // the home has handled a request for this block
	presence uint64 // bit i set: node i may hold a copy
	owner    int    // valid when state == dirModified

	busy     bool
	deferred []Msg // requests awaiting the current transaction (copies)
	parked   []Msg // requests from the registered owner, awaiting its writeback

	// Transaction context (valid while busy).
	txn      txnKind
	txnReq   Msg // copy of the request being served
	acksLeft int
	needData bool
	gaveUp   bool // CW+M probe: all interrogated caches surrendered
	probing  bool

	// overflow marks a limited-pointer entry whose sharer count exceeded
	// the pointer budget: coherence actions must broadcast.
	overflow bool

	// grants counts exclusive-ownership grants; a writeback request is
	// only current if no grant intervened since it arrived (otherwise
	// ownership cycled — possibly back to the same cache — while the stale
	// writeback sat deferred).
	grants int

	// Extension state.
	migratory   bool
	lastWriter  int
	lastUpdater int

	// data holds the block's word versions when data verification is on.
	data memsys.BlockData
}

// HomeCtl is the directory controller of one node, serving the memory
// blocks homed there plus the queue-based locks and barriers stored in its
// memory.
type HomeCtl struct {
	sys *System
	id  int

	locks    map[memsys.Block]*syncprim.Lock
	barriers map[int]*syncprim.Barrier

	// Statistics.
	ReadReqs, OwnReqs, UpdateReqs, Writebacks uint64
	PointerOverflows                          uint64
	BroadcastInvalidations                    uint64
	MigratoryDetections                       uint64
	MigratoryReverts                          uint64
	ExclusiveSupplies                         uint64
	StaleWritebacks                           uint64

	// memFree recycles the pooled memory-access events; see memJob.
	memFree []*memJob
	// queueFree recycles the buffers of emptied deferred and parked queues.
	queueFree [][]Msg
}

func newHomeCtl(s *System, id int) *HomeCtl {
	return &HomeCtl{
		sys:      s,
		id:       id,
		locks:    make(map[memsys.Block]*syncprim.Lock),
		barriers: make(map[int]*syncprim.Barrier),
	}
}

// entry returns block id's directory entry, initializing it on first use.
// The directory is one table shared by every home, so a message delivered
// to a node that is not the block's home would silently change the real
// entry; entry refuses it instead.
func (h *HomeCtl) entry(id int32) *dirEntry {
	if b := h.sys.blocks[id]; h.sys.HomeOf(b) != h.id {
		panic(fmt.Sprintf("home %d: message for block %d, whose home is %d", h.id, b, h.sys.HomeOf(b)))
	}
	e := h.sys.dir.at(id)
	if !e.seen {
		e.seen = true
		e.owner, e.lastWriter, e.lastUpdater = -1, -1, -1
	}
	return e
}

func bit(n int) uint64 { return 1 << uint(n) }

// ckDir reports block b's directory entry to the live checker after a
// transition. One nil check when the checker is off.
func (h *HomeCtl) ckDir(b memsys.Block, e *dirEntry, event string) {
	if ck := h.sys.Check; ck != nil {
		ck.OnDirState(h.id, b, e.state == dirModified, e.owner, e.presence, event)
	}
}

// addSharer records node n as a sharer, degrading a limited-pointer entry
// to broadcast mode when the pointer budget overflows.
func (h *HomeCtl) addSharer(e *dirEntry, n int) {
	e.presence |= bit(n)
	if ptrs := h.sys.P.DirPointers; ptrs > 0 && !e.overflow &&
		bits.OnesCount64(e.presence) > ptrs {
		e.overflow = true
		h.PointerOverflows++
	}
}

// applyUpdate serializes a combined update's writes into memory: each
// masked word gets the next version for its location. This is the
// competitive-update mechanism's global serialization point.
func (h *HomeCtl) applyUpdate(e *dirEntry, m *Msg) {
	if !h.sys.verify {
		return
	}
	for w := 0; w < memsys.WordsPerBlock; w++ {
		if m.Mask.Has(w) {
			e.data[w] = h.sys.serialize(m.Src, m.id, w)
		}
	}
}

// setPresence replaces the presence set wholesale (ownership transfers,
// reverts) and recomputes the limited-pointer overflow state.
func (h *HomeCtl) setPresence(e *dirEntry, mask uint64) {
	e.presence = mask
	ptrs := h.sys.P.DirPointers
	over := ptrs > 0 && bits.OnesCount64(mask) > ptrs
	if over && !e.overflow {
		h.PointerOverflows++
	}
	e.overflow = over
}

// sharersFor returns the nodes a coherence action must reach, excluding
// the requester: the tracked sharers under a full map, or everyone when a
// limited-pointer entry has overflowed.
func (h *HomeCtl) sharersFor(e *dirEntry, requester int) uint64 {
	if e.overflow {
		all := uint64(1)<<uint(h.sys.P.Nodes) - 1
		return all &^ bit(requester)
	}
	return e.presence &^ bit(requester)
}

// idle reports whether no transaction is in flight at this home.
func (h *HomeCtl) idle() bool {
	for id, b := range h.sys.blocks {
		if h.sys.HomeOf(b) != h.id {
			continue
		}
		if e := h.sys.dir.peek(int32(id)); e != nil && e.active() {
			return false
		}
	}
	return true
}

// active reports whether a transaction is in flight or queued at e.
func (e *dirEntry) active() bool {
	return e.busy || len(e.deferred) > 0 || len(e.parked) > 0
}

// Handle processes one incoming message.
func (h *HomeCtl) Handle(m *Msg) {
	switch m.Type {
	case MsgReadReq, MsgOwnReq, MsgUpdateReq, MsgWBReq:
		e := h.entry(m.id)
		if e.busy {
			h.enqueue(&e.deferred, m)
			return
		}
		h.process(m, e)
	case MsgInvAck:
		h.onInvAck(m)
	case MsgFwdReply:
		h.onFwdReply(m)
	case MsgUpdAck:
		h.onUpdAck(m)
	case MsgLockReq, MsgLockRel:
		h.onLock(m)
	case MsgBarArrive:
		h.onBarrier(m)
	default:
		panic(fmt.Sprintf("home %d: unexpected message %v", h.id, m.Type))
	}
}

// process starts a transaction for a request at a non-busy entry. All
// requests first access the (fully interleaved) memory, which holds both
// the directory and the data.
func (h *HomeCtl) process(m *Msg, e *dirEntry) {
	// A read or ownership request from the registered exclusive owner can
	// only mean the owner's writeback is still in flight. Park it until the
	// writeback arrives. (Updates from the owner are handled directly in
	// updateReq: they carry writes that were combined before the owner
	// became exclusive.)
	if e.state == dirModified && e.owner == m.Src &&
		(m.Type == MsgReadReq || m.Type == MsgOwnReq) {
		h.enqueue(&e.parked, m)
		return
	}
	e.busy = true
	e.txn = txMem
	e.txnReq = *m
	// The request's queueing behind a busy entry ends here; the memory
	// access it now performs ends at memDone below.
	h.sys.tmark(m.Txn, telemetry.PhaseDirWait)
	h.afterMem(m, e, memDone)
}

// memJob carries one memory access through the pooled event path: a
// request's directory lookup, the write of a forwarded block back to
// memory, or a lock or barrier operation. It holds its message by value
// and lends it to the completion until the job returns to HomeCtl.memFree.
type memJob struct {
	h *HomeCtl
	m Msg
	e *dirEntry
}

// afterMem schedules done with a copy of m and entry e once the memory
// access completes.
func (h *HomeCtl) afterMem(m *Msg, e *dirEntry, done func(any)) {
	var j *memJob
	if n := len(h.memFree); n > 0 {
		j = h.memFree[n-1]
		h.memFree = h.memFree[:n-1]
	} else {
		j = &memJob{h: h}
	}
	j.m, j.e = *m, e
	h.sys.Eng.AfterCall(h.sys.P.Timing.MemAccess, done, j)
}

func (h *HomeCtl) putMemJob(j *memJob) {
	j.e = nil
	h.memFree = append(h.memFree, j)
}

// memDone completes a request's memory access and dispatches it to the
// directory handler for its type.
func memDone(a any) {
	j := a.(*memJob)
	h, m, e := j.h, &j.m, j.e
	h.sys.tmark(m.Txn, telemetry.PhaseMemory)
	switch m.Type {
	case MsgReadReq:
		h.readReq(m, e)
	case MsgOwnReq:
		h.ownReq(m, e)
	case MsgUpdateReq:
		h.updateReq(m, e)
	case MsgWBReq:
		h.wbReq(m, e)
	}
	h.putMemJob(j)
}

func (h *HomeCtl) finish(b memsys.Block, e *dirEntry) {
	e.busy = false
	e.txn = txNone
	e.txnReq = Msg{}
	h.drainDeferred(b, e)
}

func (h *HomeCtl) drainDeferred(b memsys.Block, e *dirEntry) {
	for !e.busy && len(e.deferred) > 0 {
		m := e.deferred[0]
		n := copy(e.deferred, e.deferred[1:])
		e.deferred = e.deferred[:n]
		if n == 0 {
			h.recycle(&e.deferred)
		}
		h.process(&m, e)
	}
}

// enqueue appends a copy of m to a deferred or parked queue. Queue buffers
// come from the home's free list, so only entries with requests waiting
// hold one.
func (h *HomeCtl) enqueue(q *[]Msg, m *Msg) {
	if *q == nil {
		if n := len(h.queueFree); n > 0 {
			*q = h.queueFree[n-1]
			h.queueFree = h.queueFree[:n-1]
		}
	}
	*q = append(*q, *m)
}

// recycle returns an emptied queue's buffer to the free list.
func (h *HomeCtl) recycle(q *[]Msg) {
	if *q != nil {
		h.queueFree = append(h.queueFree, (*q)[:0])
		*q = nil
	}
}

func (h *HomeCtl) send(m *Msg) {
	m.Src = h.id
	h.sys.Send(m)
}

// ---------- Read misses ----------

func (h *HomeCtl) readReq(m *Msg, e *dirEntry) {
	h.ReadReqs++
	b := m.Block
	if e.state == dirModified {
		mig := h.sys.P.M && e.migratory
		if m.Prefetch && !mig && h.sys.P.PrefetchNackDirty {
			// A speculative fetch would steal the block from its active
			// writer; reject it. (Migratory blocks are the exception: the
			// whole point of P+M is to prefetch them exclusively.)
			h.send(&Msg{Type: MsgPrefNack, Block: b, id: m.id, Dst: m.Src, Txn: m.Txn})
			h.finish(b, e)
			return
		}
		// Serviced in four node-to-node transfers via the owner.
		e.txn = txFwd
		h.send(&Msg{
			Type: MsgFwd, Block: b, id: m.id, Dst: e.owner,
			Requester: m.Src, Mig: mig, Prefetch: m.Prefetch, Txn: m.Txn,
		})
		return
	}
	// Clean at memory: serviced in two transfers (or locally).
	if h.sys.P.M && e.migratory && e.presence&^bit(m.Src) == 0 {
		// Migratory block with no other holder: supply an exclusive copy so
		// the follow-up write hits locally (the optimization's whole point).
		h.ExclusiveSupplies++
		e.state = dirModified
		e.owner = m.Src
		h.setPresence(e, bit(m.Src))
		e.grants++
		h.ckDir(b, e, "excl-supply")
		h.send(&Msg{Type: MsgReadReply, Block: b, id: m.id, Dst: m.Src, Data: true, Excl: true, Prefetch: m.Prefetch, Stamp: e.grants, Payload: e.data, Txn: m.Txn})
		h.finish(b, e)
		return
	}
	if !h.sys.takeMutation("skip-sharer") {
		h.addSharer(e, m.Src)
	}
	h.ckDir(b, e, "read-share")
	h.send(&Msg{Type: MsgReadReply, Block: b, id: m.id, Dst: m.Src, Data: true, Prefetch: m.Prefetch, Payload: e.data, Txn: m.Txn})
	h.finish(b, e)
}

// onFwdReply completes a transaction that needed the owner's copy.
func (h *HomeCtl) onFwdReply(m *Msg) {
	b := m.Block
	e := h.entry(m.id)
	if !e.busy || (e.txn != txFwd && e.txn != txRecall) {
		panic(fmt.Sprintf("home %d: unexpected FwdReply for block %d", h.id, b))
	}
	if m.Mask != 0 {
		// Forward served from a writeback buffer: only the masked words are
		// meaningful (a relinquished frame carries just its written words).
		e.data.Merge(m.Payload, m.Mask)
	} else {
		e.data = m.Payload
	}
	// Write the returned data back to memory.
	h.afterMem(m, e, fwdDone)
}

// fwdDone completes the memory write of a forwarded block (the job's
// message is the FwdReply) and answers the request being served.
func fwdDone(a any) {
	j := a.(*memJob)
	j.h.fwdWritten(&j.m, j.e)
	j.h.putMemJob(j)
}

func (h *HomeCtl) fwdWritten(m *Msg, e *dirEntry) {
	b := m.Block
	req := &e.txnReq
	h.sys.tmark(req.Txn, telemetry.PhaseMemory)
	switch {
	case e.txn == txRecall:
		// Recalled to serve a competitive update: apply the update and
		// hand the block to the updater exclusively.
		e.state = dirModified
		e.owner = req.Src
		h.setPresence(e, bit(req.Src))
		e.lastWriter = req.Src
		e.grants++
		h.applyUpdate(e, req)
		h.ckDir(b, e, "recall-grant")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, id: m.id, Dst: req.Src, Data: true, Excl: true, Stamp: e.grants, Payload: e.data, Txn: req.Txn})
	case req.Type == MsgOwnReq:
		// Write miss to a dirty block: exclusive handoff.
		e.owner = req.Src
		h.setPresence(e, bit(req.Src))
		e.lastWriter = req.Src
		e.grants++
		h.ckDir(b, e, "fwd-grant")
		h.send(&Msg{Type: MsgOwnAck, Block: b, id: m.id, Dst: req.Src, Data: true, Stamp: e.grants, Payload: e.data, Txn: req.Txn})
	case req.Type == MsgReadReq && e.migratory && h.sys.P.M:
		if m.Wrote {
			// Still migratory: pass the exclusive copy along.
			h.ExclusiveSupplies++
			e.owner = req.Src
			h.setPresence(e, bit(req.Src))
			e.lastWriter = req.Src
			e.grants++
			h.ckDir(b, e, "mig-pass")
			h.send(&Msg{Type: MsgReadReply, Block: b, id: m.id, Dst: req.Src, Data: true, Excl: true, Prefetch: req.Prefetch, Stamp: e.grants, Payload: e.data, Txn: req.Txn})
		} else {
			// The holder never wrote its exclusive copy: the pattern is
			// no longer migratory. Revert to ordinary sharing (the
			// extra-cache-state mechanism of paper §3.2).
			h.MigratoryReverts++
			h.sys.traceNode(trace.DirTransition, "revert", b, h.id, "")
			e.migratory = false
			e.state = dirClean
			h.setPresence(e, bit(m.Src)|bit(req.Src))
			h.ckDir(b, e, "revert")
			h.send(&Msg{Type: MsgReadReply, Block: b, id: m.id, Dst: req.Src, Data: true, Prefetch: req.Prefetch, Payload: e.data, Txn: req.Txn})
		}
	default:
		// Ordinary read miss to a dirty block: owner downgraded to
		// Shared, memory updated, requester added.
		e.state = dirClean
		h.addSharer(e, req.Src)
		h.ckDir(b, e, "fwd-downgrade")
		h.send(&Msg{Type: MsgReadReply, Block: b, id: m.id, Dst: req.Src, Data: true, Prefetch: req.Prefetch, Payload: e.data, Txn: req.Txn})
	}
	h.finish(b, e)
}

// ---------- Ownership requests ----------

func (h *HomeCtl) ownReq(m *Msg, e *dirEntry) {
	h.OwnReqs++
	b := m.Block
	if e.state == dirModified {
		// Dirty elsewhere: take the copy away from the owner.
		e.txn = txFwd
		h.send(&Msg{Type: MsgFwd, Block: b, id: m.id, Dst: e.owner, Requester: m.Src, Excl: true, Txn: m.Txn})
		return
	}
	// Migratory detection (paper §3.2, following Stenström et al.): an
	// ownership request from a processor holding one of exactly two copies,
	// where the last writer is the other processor, marks the block
	// migratory.
	if h.sys.P.M && !e.migratory &&
		bits.OnesCount64(e.presence) == 2 && e.presence&bit(m.Src) != 0 &&
		e.lastWriter >= 0 && e.lastWriter != m.Src {
		e.migratory = true
		h.MigratoryDetections++
		h.sys.traceNode(trace.DirTransition, "migratory", b, h.id, "")
	}
	sharers := h.sharersFor(e, m.Src)
	e.needData = e.presence&bit(m.Src) == 0
	if sharers == 0 {
		h.grantOwnership(b, m.id, e, m.Src)
		return
	}
	if e.overflow {
		h.BroadcastInvalidations++
	}
	e.txn = txInv
	e.acksLeft = bits.OnesCount64(sharers)
	for n := 0; n < h.sys.P.Nodes; n++ {
		if sharers&bit(n) != 0 {
			h.send(&Msg{Type: MsgInv, Block: b, id: m.id, Dst: n})
		}
	}
}

func (h *HomeCtl) onInvAck(m *Msg) {
	b := m.Block
	e := h.entry(m.id)
	if !e.busy || e.txn != txInv {
		panic(fmt.Sprintf("home %d: unexpected InvAck for block %d", h.id, b))
	}
	e.presence &^= bit(m.Src)
	h.ckDir(b, e, "inv-ack")
	e.acksLeft--
	if e.acksLeft == 0 {
		// The invalidation fan-out round trip ends with the last ack.
		h.sys.tmark(e.txnReq.Txn, telemetry.PhaseGather)
		h.grantOwnership(b, m.id, e, e.txnReq.Src)
	}
}

func (h *HomeCtl) grantOwnership(b memsys.Block, id int32, e *dirEntry, to int) {
	note := ""
	if h.sys.Tracer != nil {
		note = fmt.Sprintf("to=%d", to) // formatted only for the trace
	}
	h.sys.traceNode(trace.DirTransition, "grant", b, h.id, note)
	e.state = dirModified
	e.owner = to
	h.setPresence(e, bit(to))
	e.lastWriter = to
	e.grants++
	h.ckDir(b, e, "grant")
	h.send(&Msg{Type: MsgOwnAck, Block: b, id: id, Dst: to, Data: e.needData, Stamp: e.grants, Payload: e.data, Txn: e.txnReq.Txn})
	h.finish(b, e)
}

// ---------- Competitive updates ----------

func (h *HomeCtl) updateReq(m *Msg, e *dirEntry) {
	h.UpdateReqs++
	b := m.Block
	if e.state == dirModified {
		if e.owner == m.Src {
			// The updater became the exclusive owner while these writes
			// were still combining in its write cache; its dirty line
			// already holds them, so just acknowledge.
			h.send(&Msg{Type: MsgUpdateAck, Block: b, id: m.id, Dst: m.Src, Excl: true, Stamp: e.grants, Txn: m.Txn})
			h.finish(b, e)
			return
		}
		// The block went exclusive to another cache (e.g. migratory under
		// CW+M) while this updater still had combined writes buffered:
		// recall the owner's copy, then hand the block to the updater.
		e.txn = txRecall
		h.send(&Msg{Type: MsgFwd, Block: b, id: m.id, Dst: e.owner, Requester: m.Src, Excl: true, Txn: m.Txn})
		return
	}
	h.applyUpdate(e, m)
	others := h.sharersFor(e, m.Src)
	// CW+M migratory detection (paper §3.4): the home cannot see local
	// reads, so when consecutive updates come from different processors it
	// interrogates all other copy holders; the block is deemed migratory
	// only if every one of them gives up its copy.
	probe := h.sys.P.M && h.sys.P.CW && !e.migratory &&
		e.lastUpdater >= 0 && e.lastUpdater != m.Src && others != 0
	e.lastUpdater = m.Src
	e.needData = e.presence&bit(m.Src) == 0
	if others == 0 {
		// No other copies: the updater becomes the exclusive owner, so its
		// subsequent writes stay local.
		e.state = dirModified
		e.owner = m.Src
		h.setPresence(e, bit(m.Src))
		e.lastWriter = m.Src
		e.grants++
		h.ckDir(b, e, "update-excl")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, id: m.id, Dst: m.Src, Data: e.needData, Excl: true, Stamp: e.grants, Payload: e.data, Txn: m.Txn})
		h.finish(b, e)
		return
	}
	e.txn = txUpd
	e.acksLeft = bits.OnesCount64(others)
	e.probing = probe
	e.gaveUp = true
	for n := 0; n < h.sys.P.Nodes; n++ {
		if others&bit(n) != 0 {
			h.send(&Msg{Type: MsgUpdCopy, Block: b, id: m.id, Dst: n, Mask: m.Mask, Probe: probe, Payload: e.data})
		}
	}
}

func (h *HomeCtl) onUpdAck(m *Msg) {
	b := m.Block
	e := h.entry(m.id)
	if !e.busy || e.txn != txUpd {
		panic(fmt.Sprintf("home %d: unexpected UpdAck for block %d", h.id, b))
	}
	if m.Removed {
		e.presence &^= bit(m.Src)
		h.ckDir(b, e, "upd-ack")
	}
	if !m.GaveUp {
		e.gaveUp = false
	}
	e.acksLeft--
	if e.acksLeft > 0 {
		return
	}
	req := &e.txnReq
	// The update fan-out round trip ends with the last sharer's ack.
	h.sys.tmark(req.Txn, telemetry.PhaseGather)
	if e.probing && e.gaveUp {
		e.migratory = true
		h.MigratoryDetections++
	}
	if e.presence&^bit(req.Src) == 0 {
		// Every other copy is gone: grant exclusivity to the updater.
		e.state = dirModified
		e.owner = req.Src
		h.setPresence(e, bit(req.Src))
		e.lastWriter = req.Src
		e.grants++
		h.ckDir(b, e, "update-grant")
		h.send(&Msg{Type: MsgUpdateAck, Block: b, id: m.id, Dst: req.Src, Data: e.needData, Excl: true, Stamp: e.grants, Payload: e.data, Txn: req.Txn})
	} else {
		// The updater keeps a Shared copy (if it has one); the ack carries
		// the post-update memory image so that copy reflects its own writes'
		// serialized versions.
		h.send(&Msg{Type: MsgUpdateAck, Block: b, id: m.id, Dst: req.Src, Payload: e.data, Txn: req.Txn})
	}
	h.finish(b, e)
}

// ---------- Writebacks ----------

func (h *HomeCtl) wbReq(m *Msg, e *dirEntry) {
	b := m.Block
	if e.state == dirModified && e.owner == m.Src && m.Stamp == e.grants {
		h.Writebacks++
		h.sys.traceNode(trace.DirTransition, "writeback", b, h.id, "")
		mask := m.Mask
		if mask == 0 {
			mask = memsys.FullMask
		}
		if h.sys.takeMutation("wb-drop-word") {
			// Injected protocol bug: the writeback merge silently loses the
			// lowest written word, so memory keeps a stale version of it.
			mask &= mask - 1
		}
		e.data.Merge(m.Payload, mask)
		e.state = dirClean
		e.presence = 0
		e.overflow = false
		e.owner = -1
		h.ckDir(b, e, "writeback")
	} else {
		// Stale: the copy already moved on via a forwarded reply.
		h.StaleWritebacks++
		h.sys.traceNode(trace.DirTransition, "stale-wb", b, h.id, "")
	}
	h.send(&Msg{Type: MsgWBAck, Block: b, id: m.id, Dst: m.Src})
	// The owner's parked requests can proceed now that the writeback
	// resolved, ahead of the deferred ones.
	if len(e.parked) > 0 {
		q := append(e.parked, e.deferred...)
		e.parked, e.deferred = e.deferred[:0], q
		h.recycle(&e.parked)
	}
	h.finish(b, e)
}

// ---------- Locks and barriers ----------

func (h *HomeCtl) onLock(m *Msg) {
	if h.locks[m.Block] == nil {
		h.locks[m.Block] = &syncprim.Lock{}
	}
	h.afterMem(m, nil, lockDone)
}

// lockDone performs a lock request or release once the lock variable's
// memory access completes.
func lockDone(a any) {
	j := a.(*memJob)
	h, m := j.h, &j.m
	l := h.locks[m.Block]
	switch m.Type {
	case MsgLockReq:
		if l.Acquire(m.Src) {
			h.send(&Msg{Type: MsgLockGrant, Block: m.Block, Dst: m.Src})
		}
	case MsgLockRel:
		if next, ok := l.Release(m.Src); ok {
			h.send(&Msg{Type: MsgLockGrant, Block: m.Block, Dst: next})
		}
		if h.sys.P.SC {
			h.send(&Msg{Type: MsgRelAck, Block: m.Block, Dst: m.Src})
		}
	}
	h.putMemJob(j)
}

func (h *HomeCtl) onBarrier(m *Msg) {
	if h.barriers[m.BarID] == nil {
		h.barriers[m.BarID] = syncprim.NewBarrier(h.sys.P.Nodes)
	}
	h.afterMem(m, nil, barrierDone)
}

// barrierDone records a barrier arrival once the barrier variable's memory
// access completes, releasing everyone when it is the last.
func barrierDone(a any) {
	j := a.(*memJob)
	h, m := j.h, &j.m
	if rel, done := h.barriers[m.BarID].Arrive(m.Src); done {
		for _, p := range rel {
			h.send(&Msg{Type: MsgBarGo, BarID: m.BarID, Dst: p})
		}
	}
	h.putMemJob(j)
}

// DirEntryInfo is a read-only snapshot of a directory entry for tests and
// tools.
type DirEntryInfo struct {
	Modified  bool
	Presence  uint64
	Owner     int
	Migratory bool
	Busy      bool
}

// Entry returns a snapshot of the directory entry for b, or ok=false when
// the home has never seen the block.
func (h *HomeCtl) Entry(b memsys.Block) (DirEntryInfo, bool) {
	e := h.sys.dirOf(b)
	if e == nil {
		return DirEntryInfo{}, false
	}
	return DirEntryInfo{
		Modified:  e.state == dirModified,
		Presence:  e.presence,
		Owner:     e.owner,
		Migratory: e.migratory,
		Busy:      e.busy,
	}, true
}
