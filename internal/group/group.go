// Package group implements Colony peer groups (paper §5): SI zones at the
// edge built from nodes in close network proximity. A group has four
// cooperating roles:
//
//   - membership, seeded and managed by a single *parent* node;
//   - content sharing: a collaborative cache — the parent subscribes to the
//     DC for the union of the members' interest sets and serves member cache
//     misses at LAN latency;
//   - communication with the outside: the parent acts as the group's *sync
//     point*, shipping group-visible transactions to the connected DC in
//     visibility order and distributing commit descriptors and stable remote
//     updates back to the members;
//   - the SI order: EPaxos runs among the members (and the parent), agreeing
//     on the visibility order of the group's transactions.
//
// Two commit variants exist (paper §5.1.4): VariantAsync commits locally and
// submits to EPaxos in the background (the paper's experimental setting);
// VariantPSI keeps consensus on the critical path of commit, so the group
// behaves as a Parallel Snapshot Isolation zone.
package group

import (
	"errors"
	"sync"

	"colony/internal/txn"
	"colony/internal/vclock"
)

// Errors returned by the group layer.
var (
	ErrNotMember   = errors.New("group: node is not a member")
	ErrUnreachable = errors.New("group: parent unreachable")
)

// CommitVariant selects how member commits interact with consensus.
type CommitVariant int

// The commit variants of §5.1.4.
const (
	// VariantAsync commits locally at once and runs EPaxos off the critical
	// path (the default, used in the paper's evaluation).
	VariantAsync CommitVariant = iota + 1
	// VariantPSI submits to EPaxos on the critical path of commit, ordering
	// conflicting transactions before they complete (Parallel Snapshot
	// Isolation within the group).
	VariantPSI
)

// --- group messages ---
//
// Peer-group traffic runs in-process only: every parent and member shares
// one simulated network, so these types have no binary wire encoding (over
// TCP, Send refuses them with transport.ErrNotEncodable).

type (
	// JoinReq asks the parent to admit a node into the group.
	JoinReq struct {
		Node  string
		Actor string
	}
	// JoinAck returns the current membership (parent included) and the
	// group's session key for content encryption.
	JoinAck struct {
		Members    []string
		Parent     string
		SessionKey []byte
	}
	// LeaveReq removes a node from the group.
	LeaveReq struct {
		Node string
	}
	// MemberEvent broadcasts the new full membership after a change.
	MemberEvent struct {
		Members []string
	}
	// PromoteMsg distributes a concrete commit descriptor assigned by the DC
	// for a group transaction.
	PromoteMsg struct {
		Dot     vclock.Dot
		DCIndex int
		Ts      uint64
		Stable  vclock.Vector
	}
	// SyncReq asks the parent for the visibility log from index From, to
	// recover transactions missed while disconnected.
	SyncReq struct {
		Node string
		From int
	}
	// SyncAck returns the requested visibility log suffix (with current
	// commit stamps) and the parent's stable vector.
	SyncAck struct {
		From    int
		Entries []*txn.Transaction
		Stable  vclock.Vector
	}
	// VisEntry pushes one newly group-visible transaction to a member as it
	// executes (§5.1.2: updates are pushed in a best-effort manner); SyncReq
	// remains as the recovery path for members that missed pushes.
	VisEntry struct {
		Index int
		Tx    *txn.Transaction
	}
)

// Units reports the logical message count the network substrate accounts
// (net.sent_units): one per carried entry, and one for an ack that only
// advances the stable vector.
func (a SyncAck) Units() int {
	if len(a.Entries) == 0 {
		return 1
	}
	return len(a.Entries)
}

// interferenceKeys renders a transaction's updated objects as EPaxos keys.
func interferenceKeys(t *txn.Transaction) []string {
	objs := t.Objects()
	keys := make([]string, len(objs))
	for i, id := range objs {
		keys[i] = id.String()
	}
	return keys
}

// visibilityMap is a copy-on-write set of group-visible dots shared with the
// edge store's read path.
type visibilityMap struct {
	mu  sync.Mutex
	cur map[vclock.Dot]bool
}

func newVisibilityMap() *visibilityMap {
	return &visibilityMap{cur: make(map[vclock.Dot]bool)}
}

// add copies the map and inserts the dot; readers holding the old map are
// unaffected.
func (v *visibilityMap) add(d vclock.Dot) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.cur[d] {
		return false
	}
	next := make(map[vclock.Dot]bool, len(v.cur)+1)
	for k := range v.cur {
		next[k] = true
	}
	next[d] = true
	v.cur = next
	return true
}

func (v *visibilityMap) snapshot() map[vclock.Dot]bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur
}

func (v *visibilityMap) has(d vclock.Dot) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.cur[d]
}
