package congest

// This file is the engine hot path of Network.Run. The design goals (see
// DESIGN.md for the full write-up) are:
//
//   - Worklist scheduling: a round schedules exactly the nodes that are
//     active or hold undelivered messages; building the next worklist costs
//     O(active), not O(N).
//   - Flat bandwidth accounting: the per-(edge,direction) word counters live
//     in one []int32 indexed by 2*edgeID+dir and are lazily reset by an
//     epoch stamp, so a round allocates no map and pays no reset loop.
//   - Buffer recycling: inboxes, outboxes, and worklists persist across
//     rounds and across Run calls on the same Network; handlers can opt into
//     recycled outbox envelopes via Network.OutBuf. In steady state a round
//     performs zero engine-side allocations.
//   - Sequential rounds: handlers run one after another in ascending vertex
//     order, then every message is routed. Parallelism lives above the
//     engine (across service jobs and experiment cells), where it pays.
//   - Flat adjacency: incidence validation and routing read the graph's CSR
//     endpoint arrays (graph.Endpoints), 8 bytes per message instead of a
//     24-byte Edge struct load.

import (
	"fmt"
	"slices"
	"time"
)

// scratch holds all engine state that survives rounds and Run calls. It is
// lazily sized to the network's graph on first use.
type scratch struct {
	inboxes  [][]Msg
	outboxes [][]Msg
	outBufs  [][]Msg // recycled envelopes handed out by OutBuf
	handed   []bool  // v's handler took its OutBuf envelope this round
	active   []bool
	pending  []bool // v is already on the next worklist
	sched    []int  // current round worklist, ascending
	next     []int  // next round worklist, unsorted until round end
	// edgeWords[2*id+dir] counts words sent this round on edge id in
	// direction dir (0 = from Edges[id].U, 1 = from Edges[id].V). A slot is
	// valid only when edgeEpoch matches the current epoch; epochs increment
	// every round and are never reset, so no per-round clearing is needed.
	edgeWords []int32
	edgeEpoch []int64
	epoch     int64
}

func (s *scratch) ensure(n, m int) {
	if len(s.inboxes) < n {
		s.inboxes = make([][]Msg, n)
		s.outboxes = make([][]Msg, n)
		s.outBufs = make([][]Msg, n)
		s.handed = make([]bool, n)
		s.active = make([]bool, n)
		s.pending = make([]bool, n)
		s.sched = make([]int, 0, n)
		s.next = make([]int, 0, n)
	}
	if len(s.edgeWords) < 2*m {
		s.edgeWords = make([]int32, 2*m)
		s.edgeEpoch = make([]int64, 2*m)
	}
}

// OutBuf returns node v's recycled outbox envelope, truncated to length
// zero. A handler running for v may append its outgoing messages to it and
// return it, avoiding a per-round slice allocation; the engine consumes the
// returned slice before v's handler runs again. It must only be called from
// within v's own handler invocation, and a handler that calls OutBuf(v)
// must return either that buffer (possibly grown by append) or nil — never
// a buffer shared with other nodes: the returned slice is adopted as v's
// envelope for later rounds, so a shared backing array would let one node's
// appends overwrite another node's undelivered messages.
func (n *Network) OutBuf(v int) []Msg {
	if n.sc == nil || v >= len(n.sc.outBufs) {
		return nil
	}
	n.sc.handed[v] = true
	return n.sc.outBufs[v][:0]
}

// msgCmp orders messages by (From, EdgeID): the deterministic inbox order
// contract. It is a top-level function so slices.SortFunc never allocates.
func msgCmp(a, b Msg) int {
	if a.From != b.From {
		return a.From - b.From
	}
	return a.EdgeID - b.EdgeID
}

// engine is the per-Run execution state: the handler, flat edge-endpoint
// views, the Network's persistent scratch, and the current round's
// accumulators.
type engine struct {
	net     *Network
	sc      *scratch
	handler Handler
	// us/vs are the graph's flat endpoint arrays (graph.Endpoints): the
	// validation and routing loops touch 8 bytes per message instead of a
	// 24-byte Edge struct.
	us, vs []int32

	messages, words int64
	maxEdge         int32
	maxNode         int64 // peak per-node payload words sent this round
	// The round's first validation and first bandwidth error. Handlers run
	// in ascending vertex order, so each is the one with the smallest
	// (sender, outbox index); Run reports a validation error before a
	// bandwidth error.
	valErr error
	bwErr  *ErrBandwidth
}

// Run executes the given handler to quiescence: it stops when no messages
// are in flight and no node is active. maxRounds guards against
// non-terminating programs. The initial set of active nodes is start (nil
// means all nodes). Buffers are recycled across calls, so repeated Runs on
// one Network allocate only on the first call; the graph must not change
// between calls on the same Network.
func (n *Network) Run(handler Handler, start []int, maxRounds int64) error {
	g := n.G
	// The scratch buffers are shared across Run calls, so a re-entrant or
	// concurrent Run on the same Network would corrupt this run's state;
	// fail loudly instead (CAS also catches two goroutines racing in).
	if !n.running.CompareAndSwap(false, true) {
		return fmt.Errorf("congest: concurrent or re-entrant Run on the same Network")
	}
	defer n.running.Store(false)
	if n.sc == nil {
		n.sc = &scratch{}
	}
	sc := n.sc
	sc.ensure(g.N, g.M())
	us, vs := g.Endpoints()

	// Reset per-Run state. A previous errored Run may have left stale
	// inboxes or worklist flags behind.
	for v := 0; v < g.N; v++ {
		sc.inboxes[v] = sc.inboxes[v][:0]
		sc.outboxes[v] = nil
		sc.handed[v] = false
		sc.active[v] = false
		sc.pending[v] = false
	}
	sc.sched = sc.sched[:0]
	sc.next = sc.next[:0]
	if start == nil {
		for v := 0; v < g.N; v++ {
			sc.pending[v] = true
			sc.next = append(sc.next, v)
		}
	} else {
		for _, v := range start {
			if v < 0 || v >= g.N {
				return fmt.Errorf("congest: start node %d out of range [0,%d)", v, g.N)
			}
			if !sc.pending[v] {
				sc.pending[v] = true
				sc.next = append(sc.next, v)
			}
		}
		slices.Sort(sc.next)
	}

	e := engine{net: n, sc: sc, handler: handler, us: us, vs: vs}

	// The observer is latched once per Run: arming costs phase timestamps
	// and one sample per round; disarmed, the hot loop pays a single nil
	// check and never touches the clock.
	observer := n.Observer
	var tRound, tRoute time.Time

	for round := int64(0); ; round++ {
		sc.sched, sc.next = sc.next, sc.sched[:0]
		if len(sc.sched) == 0 {
			return nil
		}
		if round >= maxRounds {
			return fmt.Errorf("congest: exceeded %d rounds without quiescence", maxRounds)
		}
		n.stats.SimulatedRounds++
		sc.epoch++
		for _, v := range sc.sched {
			sc.pending[v] = false
		}
		if observer != nil {
			tRound = time.Now()
		}

		// Phase 1: run handlers, validate outboxes, account bandwidth.
		e.runHandlers()
		n.stats.Messages += e.messages
		n.stats.Words += e.words
		if int(e.maxEdge) > n.stats.MaxEdgeWords {
			n.stats.MaxEdgeWords = int(e.maxEdge)
		}
		if e.valErr != nil {
			return e.valErr
		}
		if e.bwErr != nil {
			return e.bwErr
		}
		var handlerNs int64
		if observer != nil {
			tRoute = time.Now()
			handlerNs = tRoute.Sub(tRound).Nanoseconds()
		}

		// Nodes that stay active are scheduled again.
		for _, v := range sc.sched {
			if sc.active[v] && !sc.pending[v] {
				sc.pending[v] = true
				sc.next = append(sc.next, v)
			}
		}

		// Phase 2: route messages to receiver inboxes.
		if e.messages > 0 {
			e.route()
		}
		slices.Sort(sc.next)
		if observer != nil {
			observer.ObserveRound(RoundSample{
				Round:        n.stats.SimulatedRounds,
				Active:       len(sc.sched),
				Messages:     e.messages,
				Words:        e.words,
				MaxEdgeWords: int(e.maxEdge),
				MaxNodeWords: e.maxNode,
				HandlerNs:    handlerNs,
				RouteNs:      time.Since(tRoute).Nanoseconds(),
			})
		}
	}
}

// runHandlers executes the round's schedule: the handler call, outbox
// validation, and bandwidth accounting. It resets and fills the round
// accumulators of e.
func (e *engine) runHandlers() {
	sc, g := e.sc, e.net.G
	budget := int32(e.net.WordsPerEdge)
	epoch := sc.epoch
	var messages, words, maxNode int64
	var maxEdge int32
	for _, v := range sc.sched {
		nodeStart := words
		out, act := e.handler(v, sc.inboxes[v])
		sc.inboxes[v] = sc.inboxes[v][:0]
		sc.active[v] = act
		sc.outboxes[v] = out
		// Re-adopt the OutBuf envelope (possibly grown by append) only when
		// this handler invocation took it: adopting arbitrary returned
		// slices would let a buffer shared across nodes alias multiple
		// outBufs entries.
		if sc.handed[v] {
			sc.handed[v] = false
			if cap(out) > cap(sc.outBufs[v]) {
				sc.outBufs[v] = out
			}
		}
		v32 := int32(v)
		for i := range out {
			m := &out[i]
			if m.From != v {
				e.recordVal(fmt.Errorf("congest: node %d forged sender %d", v, m.From))
				break
			}
			if m.EdgeID < 0 || m.EdgeID >= g.M() {
				e.recordVal(fmt.Errorf("congest: node %d sent on bad edge %d", v, m.EdgeID))
				break
			}
			dir := 0
			if e.vs[m.EdgeID] == v32 {
				dir = 1
			} else if e.us[m.EdgeID] != v32 {
				e.recordVal(fmt.Errorf("congest: node %d sent on non-incident edge %d", v, m.EdgeID))
				break
			}
			slot := 2*m.EdgeID + dir
			if sc.edgeEpoch[slot] != epoch {
				sc.edgeEpoch[slot] = epoch
				sc.edgeWords[slot] = 0
			}
			cost := int32(len(m.Data))
			if cost == 0 {
				cost = 1 // an empty message still occupies the slot
			}
			sc.edgeWords[slot] += cost
			if sc.edgeWords[slot] > budget && e.bwErr == nil {
				e.bwErr = &ErrBandwidth{EdgeID: m.EdgeID, From: v,
					Words: int(sc.edgeWords[slot]), Budget: e.net.WordsPerEdge}
			}
			if sc.edgeWords[slot] > maxEdge {
				maxEdge = sc.edgeWords[slot]
			}
			messages++
			words += int64(len(m.Data))
		}
		if nw := words - nodeStart; nw > maxNode {
			maxNode = nw
		}
	}
	e.messages, e.words, e.maxEdge, e.maxNode = messages, words, maxEdge, maxNode
}

func (e *engine) recordVal(err error) {
	if e.valErr == nil {
		e.valErr = err
	}
}

// route delivers every outbox message, scanning senders in ascending order,
// and schedules each receiver for the next round. Only receivers hold a
// non-empty inbox afterwards (every scheduled node's inbox was consumed by
// its handler), so sorting the non-empty inboxes on the next worklist
// establishes the (From, EdgeID) order.
func (e *engine) route() {
	sc := e.sc
	us, vs := e.us, e.vs
	for _, v := range sc.sched {
		v32 := int32(v)
		for _, m := range sc.outboxes[v] {
			// The far endpoint of an incident edge, branch-free: v is one
			// of {us[id], vs[id]}, so XOR cancels it out.
			to := int(us[m.EdgeID] ^ vs[m.EdgeID] ^ v32)
			if !sc.pending[to] {
				sc.pending[to] = true
				sc.next = append(sc.next, to)
			}
			sc.inboxes[to] = append(sc.inboxes[to], m)
		}
	}
	for _, to := range sc.next {
		if len(sc.inboxes[to]) > 1 {
			slices.SortFunc(sc.inboxes[to], msgCmp)
		}
	}
}
