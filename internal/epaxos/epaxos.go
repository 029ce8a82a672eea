// Package epaxos implements the Egalitarian Paxos consensus protocol used
// inside Colony peer groups (paper §5.1.4). EPaxos lets any group member act
// as the leader for its own commands, orders only *interfering* commands
// with respect to each other, and commits on the fast path (one round trip)
// when no concurrent interference is detected.
//
// Commands here are transactions; two commands interfere when they update a
// common object. The agreed execution order is the group's *visibility
// order*: the sequence in which transactions become visible within the SI
// zone and are shipped to the connected DC by a sync point.
//
// The implementation covers the commit protocol (PreAccept → fast-path
// Commit, or Accept → Commit on the slow path), dependency tracking, and
// dependency-ordered execution with SCC resolution. Explicit failure
// recovery of another replica's stalled instances (EPaxos §4.7) is not
// implemented: a peer group that loses a member simply waits for it or
// reforms via the membership layer, which matches Colony's group semantics.
package epaxos

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// InstanceID names a command slot: each replica leads its own instance
// sub-space, so instance allocation needs no coordination.
type InstanceID struct {
	Replica string
	Slot    uint64
}

// String renders like "peer1[4]".
func (id InstanceID) String() string { return fmt.Sprintf("%s[%d]", id.Replica, id.Slot) }

// Command is one unit of agreement.
type Command struct {
	// ID identifies the command globally (the transaction dot rendered as a
	// string, in Colony's use).
	ID string
	// Keys are the interference keys: commands sharing a key conflict and
	// are totally ordered relative to each other.
	Keys []string
	// Payload is the command body, opaque to the protocol (a
	// *txn.Transaction in Colony).
	Payload any
}

// status is the lifecycle of an instance.
type status int

const (
	statusNone status = iota
	statusPreAccepted
	statusAccepted
	statusCommitted
	statusExecuted
)

// instance is one slot's replicated state.
type instance struct {
	id     InstanceID
	cmd    Command
	deps   map[InstanceID]bool
	seq    uint64
	status status

	// Leader-side bookkeeping.
	leading      bool
	replies      int
	depsChanged  bool
	acceptOKs    int
	lastAttempt  time.Time
	replySet     map[string]bool
	acceptedFrom map[string]bool
	commitAcked  map[string]bool
}

// Messages exchanged between replicas. The group layer routes them over its
// in-process network; they have no binary wire encoding.
type (
	// PreAccept is phase one, sent by the command leader.
	PreAccept struct {
		Inst InstanceID
		Cmd  Command
		Deps []InstanceID
		Seq  uint64
	}
	// PreAcceptOK is the reply, carrying the replica's (possibly extended)
	// dependencies.
	PreAcceptOK struct {
		Inst    InstanceID
		From    string
		Deps    []InstanceID
		Seq     uint64
		Changed bool
	}
	// Accept is the slow-path phase run when pre-accept replies disagree.
	Accept struct {
		Inst InstanceID
		Cmd  Command
		Deps []InstanceID
		Seq  uint64
	}
	// AcceptOK acknowledges an Accept.
	AcceptOK struct {
		Inst InstanceID
		From string
	}
	// Commit finalises the instance at every replica.
	Commit struct {
		Inst InstanceID
		Cmd  Command
		Deps []InstanceID
		Seq  uint64
	}
	// CommitAck lets the leader stop re-broadcasting a commit to a peer.
	CommitAck struct {
		Inst InstanceID
		From string
	}
)

// Transport sends a protocol message to a peer replica; implementations are
// free to drop messages (the leader retries).
type Transport func(to string, msg any)

// ExecuteFn consumes commands in the agreed visibility order.
type ExecuteFn func(Command)

// Replica is one EPaxos participant.
type Replica struct {
	name string

	mu        sync.Mutex
	peers     []string
	send      Transport
	exec      ExecuteFn
	instances map[InstanceID]*instance
	nextSlot  uint64
	// keyLast tracks, per interference key, the highest slot of every
	// command leader's instances touching it. A leader's instance always
	// depends on its own previous instance on the key, so depending on the
	// highest one transitively covers the older ones. A single pointer per
	// key would not: an intermediate instance's committed deps need not
	// include what this replica saw before it.
	keyLast  map[string]map[string]uint64
	executed map[string]bool // command IDs whose exec callback has returned
	waiters  map[string][]chan struct{}
	// execQ holds commands already ordered for execution whose exec
	// callback has not run yet; queued guards it against duplicate command
	// IDs. One goroutine at a time (draining) runs the callbacks, so they
	// observe the agreed order even when several goroutines find
	// executable instances concurrently.
	execQ    []Command
	queued   map[string]bool
	draining bool
}

// NewReplica creates a replica named name. Peers lists the other replicas;
// send delivers protocol messages; exec receives commands in visibility
// order (called without the replica lock held).
func NewReplica(name string, peers []string, send Transport, exec ExecuteFn) *Replica {
	r := &Replica{
		name:      name,
		peers:     append([]string(nil), peers...),
		send:      send,
		exec:      exec,
		instances: make(map[InstanceID]*instance),
		keyLast:   make(map[string]map[string]uint64),
		executed:  make(map[string]bool),
		queued:    make(map[string]bool),
		waiters:   make(map[string][]chan struct{}),
	}
	return r
}

// SetPeers replaces the peer set (membership change).
func (r *Replica) SetPeers(peers []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.peers = append([]string(nil), peers...)
}

// Name returns the replica's name.
func (r *Replica) Name() string { return r.name }

// quorumLocked is the majority of the full group (peers + self).
func (r *Replica) quorumLocked() int { return (len(r.peers)+1)/2 + 1 }

// fastQuorumLocked is the EPaxos fast-path quorum size F + ⌊(F+1)/2⌋ (with
// N = 2F+1), never below a majority. A fast commit needs this many replicas
// (including the leader) to agree on the initial attributes.
func (r *Replica) fastQuorumLocked() int {
	n := len(r.peers) + 1
	f := (n - 1) / 2
	fq := f + (f+1)/2
	if q := r.quorumLocked(); fq < q {
		fq = q
	}
	return fq
}

// Propose starts agreement on cmd with this replica as leader and returns
// the instance id. Commitment and execution proceed asynchronously; use
// WaitExecuted to block (the PSI commit variant).
func (r *Replica) Propose(cmd Command) InstanceID {
	r.mu.Lock()
	r.nextSlot++
	id := InstanceID{Replica: r.name, Slot: r.nextSlot}
	deps, seq := r.interferenceLocked(cmd.Keys, "")
	// A leader's commands also depend on its previous command whatever
	// their keys: they are one session's commits, and a later one may build
	// on an earlier one that has not committed yet (read-your-writes), so
	// execution must keep their proposal order.
	if prev := r.instances[InstanceID{Replica: r.name, Slot: r.nextSlot - 1}]; prev != nil {
		deps[prev.id] = true
		if prev.seq >= seq {
			seq = prev.seq + 1
		}
	}
	inst := &instance{
		id: id, cmd: cmd, deps: deps, seq: seq,
		status: statusPreAccepted, leading: true,
		replySet: make(map[string]bool), acceptedFrom: make(map[string]bool),
		lastAttempt: time.Now(),
	}
	r.instances[id] = inst
	r.registerKeysLocked(cmd.Keys, id)
	peers := append([]string(nil), r.peers...)
	msg := PreAccept{Inst: id, Cmd: cmd, Deps: depsSlice(deps), Seq: seq}
	single := len(peers) == 0
	r.mu.Unlock()

	if single {
		// Singleton group: commit instantly.
		r.commit(id, cmd, deps, seq)
		return id
	}
	for _, p := range peers {
		r.send(p, msg)
	}
	return id
}

// interferenceLocked computes the dependencies and sequence number for a
// command at this replica. Instances led by skip are left out: a leader's
// own PreAccept already carries its previous instance on each key, and a
// later instance of the same leader that arrived first must not become a
// dependency of an earlier one.
func (r *Replica) interferenceLocked(keys []string, skip string) (map[InstanceID]bool, uint64) {
	deps := make(map[InstanceID]bool)
	var seq uint64
	for _, k := range keys {
		for leader, slot := range r.keyLast[k] {
			if leader == skip {
				continue
			}
			last := InstanceID{Replica: leader, Slot: slot}
			deps[last] = true
			if li := r.instances[last]; li != nil && li.seq > seq {
				seq = li.seq
			}
		}
	}
	return deps, seq + 1
}

// registerKeysLocked records the instance as a toucher of its keys; per
// leader only the highest slot is kept, so a late message for an older
// instance never moves the pointer backwards.
func (r *Replica) registerKeysLocked(keys []string, id InstanceID) {
	for _, k := range keys {
		last := r.keyLast[k]
		if last == nil {
			last = make(map[string]uint64)
			r.keyLast[k] = last
		}
		if id.Slot > last[id.Replica] {
			last[id.Replica] = id.Slot
		}
	}
}

// HandleMessage processes one protocol message and returns true if it was an
// EPaxos message.
func (r *Replica) HandleMessage(from string, msg any) bool {
	switch m := msg.(type) {
	case PreAccept:
		r.onPreAccept(from, m)
	case PreAcceptOK:
		r.onPreAcceptOK(m)
	case Accept:
		r.onAccept(from, m)
	case AcceptOK:
		r.onAcceptOK(m)
	case Commit:
		r.onCommit(from, m)
	case CommitAck:
		r.onCommitAck(m)
	default:
		return false
	}
	return true
}

// onPreAccept merges the leader's view with local interference and replies.
func (r *Replica) onPreAccept(from string, m PreAccept) {
	r.mu.Lock()
	localDeps, localSeq := r.interferenceLocked(m.Cmd.Keys, m.Inst.Replica)
	merged := make(map[InstanceID]bool, len(m.Deps)+len(localDeps))
	for _, d := range m.Deps {
		merged[d] = true
	}
	changed := false
	for d := range localDeps {
		if d != m.Inst && !merged[d] {
			merged[d] = true
			changed = true
		}
	}
	seq := m.Seq
	if localSeq > seq {
		seq, changed = localSeq, true
	}
	inst := r.instances[m.Inst]
	if inst == nil {
		inst = &instance{id: m.Inst}
		r.instances[m.Inst] = inst
	}
	if inst.status < statusPreAccepted {
		inst.cmd, inst.deps, inst.seq, inst.status = m.Cmd, merged, seq, statusPreAccepted
		r.registerKeysLocked(m.Cmd.Keys, m.Inst)
	}
	reply := PreAcceptOK{Inst: m.Inst, From: r.name, Deps: depsSlice(merged), Seq: seq, Changed: changed}
	r.mu.Unlock()
	r.send(from, reply)
}

// onPreAcceptOK gathers replies at the leader and decides fast vs slow path.
func (r *Replica) onPreAcceptOK(m PreAcceptOK) {
	r.mu.Lock()
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading || inst.status != statusPreAccepted {
		r.mu.Unlock()
		return
	}
	if inst.replySet[m.From] {
		r.mu.Unlock()
		return
	}
	inst.replySet[m.From] = true
	inst.replies++
	for _, d := range m.Deps {
		if d != inst.id && !inst.deps[d] {
			inst.deps[d] = true
			inst.depsChanged = true
		}
	}
	if m.Seq > inst.seq {
		inst.seq = m.Seq
		inst.depsChanged = true
	}
	if m.Changed {
		inst.depsChanged = true
	}
	total := len(r.peers)
	quorum := r.quorumLocked()
	fastQ := r.fastQuorumLocked()
	var (
		doCommit bool
		doAccept bool
	)
	switch {
	case !inst.depsChanged && (inst.replies >= fastQ-1 || inst.replies == total):
		// Fast path: a fast quorum agreed with the initial attributes.
		doCommit = true
	case inst.depsChanged && inst.replies >= quorum-1:
		// Slow path: run the Accept round with the merged attributes.
		doAccept = true
		inst.status = statusAccepted
		inst.acceptOKs = 0
	}
	id, cmd, deps, seq := inst.id, inst.cmd, cloneDeps(inst.deps), inst.seq
	peers := append([]string(nil), r.peers...)
	r.mu.Unlock()

	if doCommit {
		r.commit(id, cmd, deps, seq)
	} else if doAccept {
		msg := Accept{Inst: id, Cmd: cmd, Deps: depsSlice(deps), Seq: seq}
		for _, p := range peers {
			r.send(p, msg)
		}
	}
}

// onAccept adopts the leader's final attributes.
func (r *Replica) onAccept(from string, m Accept) {
	r.mu.Lock()
	inst := r.instances[m.Inst]
	if inst == nil {
		inst = &instance{id: m.Inst}
		r.instances[m.Inst] = inst
	}
	if inst.status < statusAccepted {
		inst.cmd, inst.seq, inst.status = m.Cmd, m.Seq, statusAccepted
		inst.deps = make(map[InstanceID]bool, len(m.Deps))
		for _, d := range m.Deps {
			inst.deps[d] = true
		}
		r.registerKeysLocked(m.Cmd.Keys, m.Inst)
	}
	r.mu.Unlock()
	r.send(from, AcceptOK{Inst: m.Inst, From: r.name})
}

// onAcceptOK counts slow-path acknowledgements at the leader.
func (r *Replica) onAcceptOK(m AcceptOK) {
	r.mu.Lock()
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading || inst.status != statusAccepted {
		r.mu.Unlock()
		return
	}
	if inst.acceptedFrom[m.From] {
		r.mu.Unlock()
		return
	}
	inst.acceptedFrom[m.From] = true
	inst.acceptOKs++
	ready := inst.acceptOKs >= r.quorumLocked()-1
	id, cmd, deps, seq := inst.id, inst.cmd, cloneDeps(inst.deps), inst.seq
	r.mu.Unlock()
	if ready {
		r.commit(id, cmd, deps, seq)
	}
}

// commit finalises an instance locally and broadcasts the decision.
func (r *Replica) commit(id InstanceID, cmd Command, deps map[InstanceID]bool, seq uint64) {
	r.mu.Lock()
	inst := r.instances[id]
	if inst == nil {
		inst = &instance{id: id}
		r.instances[id] = inst
	}
	if inst.status >= statusCommitted {
		r.mu.Unlock()
		return
	}
	inst.cmd, inst.deps, inst.seq, inst.status = cmd, deps, seq, statusCommitted
	peers := append([]string(nil), r.peers...)
	leading := inst.leading
	msg := Commit{Inst: id, Cmd: cmd, Deps: depsSlice(deps), Seq: seq}
	r.mu.Unlock()

	if leading {
		for _, p := range peers {
			r.send(p, msg)
		}
	}
	r.tryExecute()
}

// onCommit installs a commit decided elsewhere.
func (r *Replica) onCommit(from string, m Commit) {
	r.send(from, CommitAck{Inst: m.Inst, From: r.name})
	r.mu.Lock()
	inst := r.instances[m.Inst]
	if inst == nil {
		inst = &instance{id: m.Inst}
		r.instances[m.Inst] = inst
	}
	if inst.status >= statusCommitted {
		r.mu.Unlock()
		r.tryExecute()
		return
	}
	inst.cmd, inst.seq, inst.status = m.Cmd, m.Seq, statusCommitted
	inst.deps = make(map[InstanceID]bool, len(m.Deps))
	for _, d := range m.Deps {
		inst.deps[d] = true
	}
	r.registerKeysLocked(m.Cmd.Keys, m.Inst)
	r.mu.Unlock()
	r.tryExecute()
}

// onCommitAck records that a peer holds the commit.
func (r *Replica) onCommitAck(m CommitAck) {
	r.mu.Lock()
	defer r.mu.Unlock()
	inst := r.instances[m.Inst]
	if inst == nil || !inst.leading {
		return
	}
	if inst.commitAcked == nil {
		inst.commitAcked = make(map[string]bool)
	}
	inst.commitAcked[m.From] = true
}

// RetryPending re-drives pre-accepted instances this replica leads whose
// quorum never answered (lost messages, temporary disconnection). The owner
// calls it periodically.
func (r *Replica) RetryPending(olderThan time.Duration) {
	r.mu.Lock()
	now := time.Now()
	type resend struct {
		msg any
		to  []string
	}
	var msgs []resend
	peers := append([]string(nil), r.peers...)
	for _, inst := range r.instances {
		if !inst.leading || now.Sub(inst.lastAttempt) < olderThan {
			continue
		}
		switch inst.status {
		case statusPreAccepted:
			inst.lastAttempt = now
			msgs = append(msgs, resend{msg: PreAccept{Inst: inst.id, Cmd: inst.cmd, Deps: depsSlice(inst.deps), Seq: inst.seq}, to: peers})
		case statusAccepted:
			inst.lastAttempt = now
			msgs = append(msgs, resend{msg: Accept{Inst: inst.id, Cmd: inst.cmd, Deps: depsSlice(inst.deps), Seq: inst.seq}, to: peers})
		case statusCommitted, statusExecuted:
			// Re-deliver the commit to peers that have not acknowledged it.
			var missing []string
			for _, p := range peers {
				if !inst.commitAcked[p] {
					missing = append(missing, p)
				}
			}
			if len(missing) > 0 {
				inst.lastAttempt = now
				msgs = append(msgs, resend{msg: Commit{Inst: inst.id, Cmd: inst.cmd, Deps: depsSlice(inst.deps), Seq: inst.seq}, to: missing})
			}
		}
	}
	r.mu.Unlock()
	for _, m := range msgs {
		for _, p := range m.to {
			r.send(p, m.msg)
		}
	}
}

// Executed reports whether the command with the given ID has been executed
// locally (its exec callback has returned).
func (r *Replica) Executed(cmdID string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed[cmdID]
}

// WaitExecuted blocks until the command executes locally or the timeout
// expires; it implements the PSI (consensus on the critical path) commit
// variant.
func (r *Replica) WaitExecuted(cmdID string, timeout time.Duration) bool {
	r.mu.Lock()
	if r.executed[cmdID] {
		r.mu.Unlock()
		return true
	}
	ch := make(chan struct{})
	r.waiters[cmdID] = append(r.waiters[cmdID], ch)
	r.mu.Unlock()
	select {
	case <-ch:
		return true
	case <-time.After(timeout):
		return false
	}
}

// --- execution ---

// tryExecute runs every committed instance whose dependency closure is
// committed, in dependency order, ordering strongly connected components
// with orderComponent. Instances are ordered under the lock and appended to
// execQ; the exec callbacks run outside it, from one goroutine at a time, in
// queue order. A caller that finds another goroutine draining leaves its
// commands to that goroutine.
func (r *Replica) tryExecute() {
	r.mu.Lock()
	for {
		batch := r.findExecutableLocked()
		if len(batch) == 0 {
			break
		}
		for _, inst := range batch {
			inst.status = statusExecuted
			if id := inst.cmd.ID; id != "" && !r.executed[id] && !r.queued[id] {
				r.queued[id] = true
				r.execQ = append(r.execQ, inst.cmd)
			}
		}
	}
	if r.draining {
		r.mu.Unlock()
		return
	}
	r.draining = true
	for len(r.execQ) > 0 {
		cmds := r.execQ
		r.execQ = nil
		exec := r.exec
		r.mu.Unlock()
		for _, c := range cmds {
			if exec != nil {
				exec(c)
			}
			r.mu.Lock()
			delete(r.queued, c.ID)
			r.executed[c.ID] = true
			wake := r.waiters[c.ID]
			delete(r.waiters, c.ID)
			r.mu.Unlock()
			for _, ch := range wake {
				close(ch)
			}
		}
		r.mu.Lock()
	}
	r.draining = false
	r.mu.Unlock()
}

// findExecutableLocked computes the executable prefix of the committed
// dependency graph: SCCs in topological order, cut at the first component
// with a dependency that is neither executed nor scheduled earlier in the
// prefix (i.e. an uncommitted or unknown instance). Within an SCC, commands
// run in the order orderComponent gives — identical at every replica, which
// is what makes the visibility order a total order for interfering commands.
func (r *Replica) findExecutableLocked() []*instance {
	// Standard Tarjan over committed-but-unexecuted instances. Edges to
	// executed deps are skipped; edges to uncommitted/unknown deps are not
	// traversed (the post-check below stops the prefix there). Tarjan emits
	// each SCC only after every SCC it depends on, so emission order is a
	// valid execution order.
	var (
		index   = make(map[InstanceID]int)
		low     = make(map[InstanceID]int)
		onStack = make(map[InstanceID]bool)
		stack   []InstanceID
		next    int
		sccs    [][]*instance
	)
	var visit func(v InstanceID)
	visit = func(v InstanceID) {
		inst := r.instances[v]
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for d := range inst.deps {
			di := r.instances[d]
			if di == nil || di.status != statusCommitted {
				continue // executed (fine) or uncommitted (post-check cuts)
			}
			if _, seen := index[d]; !seen {
				visit(d)
				if low[d] < low[v] {
					low[v] = low[d]
				}
			} else if onStack[d] && index[d] < low[v] {
				low[v] = index[d]
			}
		}
		if low[v] == index[v] {
			var comp []*instance
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, r.instances[top])
				if top == v {
					break
				}
			}
			sccs = append(sccs, comp)
		}
	}
	for id, inst := range r.instances {
		if inst.status == statusCommitted {
			if _, seen := index[id]; !seen {
				visit(id)
			}
		}
	}
	if len(sccs) == 0 {
		return nil
	}

	// Accept components in emission order when all external dependencies
	// are satisfied (executed already, or accepted earlier in this pass).
	// Components with unsatisfied dependencies are skipped, and so —
	// transitively — is everything that depends on them.
	done := make(map[InstanceID]bool)
	var out []*instance
	for _, comp := range sccs {
		inComp := make(map[InstanceID]bool, len(comp))
		for _, in := range comp {
			inComp[in.id] = true
		}
		ok := true
		for _, in := range comp {
			for d := range in.deps {
				if inComp[d] || done[d] {
					continue
				}
				if di := r.instances[d]; di != nil && di.status == statusExecuted {
					continue
				}
				ok = false
				break
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		orderComponent(comp)
		for _, in := range comp {
			done[in.id] = true
			out = append(out, in)
		}
	}
	return out
}

// orderComponent sorts one strongly connected component into execution order:
// by (seq, instance id), except that each leader's own instances keep their
// slot order. Seqs grow independently during agreement, so a leader's later
// instance can end up with the lower seq; its commands are one session's
// commits, which must become visible in the order they were made. The
// instances of each leader are therefore re-dealt, in slot order, onto the
// positions the (seq, id) sort gave that leader. The result depends only on
// the component's committed attributes, so every replica computes the same
// order.
func orderComponent(comp []*instance) {
	sort.Slice(comp, func(i, j int) bool {
		if comp[i].seq != comp[j].seq {
			return comp[i].seq < comp[j].seq
		}
		if comp[i].id.Replica != comp[j].id.Replica {
			return comp[i].id.Replica < comp[j].id.Replica
		}
		return comp[i].id.Slot < comp[j].id.Slot
	})
	positions := make(map[string][]int)
	for i, in := range comp {
		positions[in.id.Replica] = append(positions[in.id.Replica], i)
	}
	for _, pos := range positions {
		if len(pos) < 2 {
			continue
		}
		own := make([]*instance, len(pos))
		for k, p := range pos {
			own[k] = comp[p]
		}
		sort.Slice(own, func(i, j int) bool { return own[i].id.Slot < own[j].id.Slot })
		for k, p := range pos {
			comp[p] = own[k]
		}
	}
}

// --- helpers ---

func depsSlice(m map[InstanceID]bool) []InstanceID {
	out := make([]InstanceID, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Replica != out[j].Replica {
			return out[i].Replica < out[j].Replica
		}
		return out[i].Slot < out[j].Slot
	})
	return out
}

func cloneDeps(m map[InstanceID]bool) map[InstanceID]bool {
	out := make(map[InstanceID]bool, len(m))
	for d := range m {
		out[d] = true
	}
	return out
}
