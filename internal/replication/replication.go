// Package replication implements the inter-DC mesh: causal delivery of
// remote transactions, exchange of state vectors, and K-stability tracking
// (paper §3.4, §3.8).
//
// DCs form a full peer-to-peer mesh. Each replication message piggybacks the
// sender's state vector; every DC therefore maintains a conservative view of
// every other DC's progress. A transaction is K-stable when its commit
// vector is covered by the state vectors of at least K DCs, and only
// K-stable transactions are made visible to edge nodes — this bounds the
// probability that a migrating edge node depends on state its new DC has
// never seen.
package replication

import (
	"sync"

	"colony/internal/txn"
	"colony/internal/vclock"
)

// Mesh is the replication endpoint embedded in one DC. The owning DC feeds
// it incoming messages and state changes; the mesh decides when remote
// transactions are causally ready and computes stability cuts.
type Mesh struct {
	self int // own DC index

	mu      sync.Mutex
	known   map[int]vclock.Vector // DC index → latest known state vector
	pending []*txn.Transaction    // remote txs waiting for causal dependencies
	buckets map[int]*bucketView   // DC index → advertised interest set (absent = universal)
}

// NewMesh creates the mesh state for DC index self among nDCs data centres.
func NewMesh(self, nDCs int) *Mesh {
	known := make(map[int]vclock.Vector, nDCs)
	for i := 0; i < nDCs; i++ {
		known[i] = vclock.NewVector(nDCs)
	}
	return &Mesh{self: self, known: known}
}

// ObserveSelf records the local DC's new state vector.
func (m *Mesh) ObserveSelf(state vclock.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.known[m.self] = m.known[m.self].Join(state)
}

// ObservePeer records a peer's advertised state vector (from a replication
// message or heartbeat).
func (m *Mesh) ObservePeer(peer int, state vclock.Vector) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.known[peer] = m.known[peer].Join(state)
}

// Admit offers a remote transaction for application. Given the local state
// vector, it returns every queued (and the offered) transaction whose causal
// dependencies are now satisfied, in a causally safe order. The caller
// applies them and then calls ObserveSelf with its grown state vector.
//
// A transaction is ready when its snapshot is covered by the local state
// vector: its dependencies are exactly the transactions at or below its
// snapshot (paper §3.5). FIFO links deliver each DC's own commits in order,
// and the pending queue holds back anything that raced ahead.
func (m *Mesh) Admit(t *txn.Transaction, localState vclock.Vector) []*txn.Transaction {
	if t == nil {
		return m.AdmitBatch(nil, localState)
	}
	return m.AdmitBatch([]*txn.Transaction{t}, localState)
}

// AdmitBatch offers a whole replication batch for application in one mesh
// call: all offered transactions join the pending set, then readiness is
// evaluated once. Per-peer senders coalesce runs of transactions, so this
// amortises the mesh lock and the drain scan over the batch instead of
// paying them per transaction. Nil entries are skipped. The returned
// transactions are ready to apply, in a causally safe order.
func (m *Mesh) AdmitBatch(txs []*txn.Transaction, localState vclock.Vector) []*txn.Transaction {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, t := range txs {
		if t != nil {
			m.pending = append(m.pending, t)
		}
	}
	return m.drainLocked(localState)
}

// drainLocked repeatedly releases ready transactions, simulating the growth
// of the state vector as each released transaction is applied.
func (m *Mesh) drainLocked(localState vclock.Vector) []*txn.Transaction {
	state := localState.Clone()
	var ready []*txn.Transaction
	for {
		progress := false
		kept := m.pending[:0]
		for _, p := range m.pending {
			if p.Snapshot.LEQ(state) {
				ready = append(ready, p)
				state = p.Commit.JoinInto(state, p.Snapshot)
				progress = true
			} else {
				kept = append(kept, p)
			}
		}
		m.pending = kept
		if !progress {
			return ready
		}
	}
}

// DropPendingStubs discards the queued transactions that carry no updates —
// the payload-stripped stubs of partial replication (and update-free
// transactions, which lose nothing by the same treatment). The caller
// relies on anti-entropy to re-send them; it reports how many were dropped.
func (m *Mesh) DropPendingStubs() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	kept := m.pending[:0]
	for _, p := range m.pending {
		if len(p.Updates) > 0 {
			kept = append(kept, p)
		}
	}
	dropped := len(m.pending) - len(kept)
	for i := len(kept); i < len(m.pending); i++ {
		m.pending[i] = nil
	}
	m.pending = kept
	return dropped
}

// PendingCount reports the number of transactions still waiting for
// dependencies.
func (m *Mesh) PendingCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pending)
}

// KStable computes the K-stable cut: componentwise the K-th largest value
// over every DC's known state vector. A transaction whose commit vector is
// ≤ this cut is known at ≥ K DCs (the SwiftCloud construction).
// K is clamped to [1, number of DCs].
func (m *Mesh) KStable(k int) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.known)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	width := 0
	for _, v := range m.known {
		if len(v) > width {
			width = len(v)
		}
	}
	out := vclock.NewVector(width)
	column := make([]uint64, 0, n)
	for c := 0; c < width; c++ {
		column = column[:0]
		for _, v := range m.known {
			column = append(column, v.Get(c))
		}
		// K-th largest by partial selection (n is small: the DC count).
		for i := 0; i < k; i++ {
			maxIdx := i
			for j := i + 1; j < len(column); j++ {
				if column[j] > column[maxIdx] {
					maxIdx = j
				}
			}
			column[i], column[maxIdx] = column[maxIdx], column[i]
		}
		out[c] = column[k-1]
	}
	return out
}

// Known returns a copy of the mesh's view of one DC's state vector.
func (m *Mesh) Known(dc int) vclock.Vector {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.known[dc].Clone()
}

// StabilityOf reports at how many DCs the transaction is known, according to
// this mesh's (conservative) view — the paper's T.k counter.
func (m *Mesh) StabilityOf(t *txn.Transaction) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := 0
	for _, v := range m.known {
		if t.Commit.VisibleAt(t.Snapshot, v) {
			k++
		}
	}
	return k
}
