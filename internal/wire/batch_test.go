package wire

import (
	"reflect"
	"testing"

	"colony/internal/crdt"
	"colony/internal/txn"
	"colony/internal/vclock"
)

// TestReplBatchCloneSafety asserts the package's sender contract: a
// transaction placed in a message is immutable, so a sender that clones
// before sending may keep mutating its own copies (snapshot resolution,
// commit promotion, update appends) and its live state vector without the
// in-flight batch changing.
func TestReplBatchCloneSafety(t *testing.T) {
	state := vclock.Vector{4, 4, 4}
	var retained []*txn.Transaction
	var clones []*txn.Transaction
	var want []*txn.Transaction
	for seq := uint64(1); seq <= 3; seq++ {
		tx := makeTx()
		tx.Dot.Seq = seq
		retained = append(retained, tx)
		clones = append(clones, tx.Clone())
		want = append(want, tx.Clone())
	}
	msg := ReplBatch{From: 1, Txs: clones, State: state.Clone()}

	state = state.Set(0, 9) // the sender's vector keeps advancing
	for _, tx := range retained {
		tx.Snapshot = tx.Snapshot.Join(vclock.Vector{9, 9, 9})
		stamps, err := tx.Commit.Add(2, 42)
		if err != nil {
			t.Fatal(err)
		}
		tx.Commit = stamps
		tx.AppendUpdate(txn.ObjectID{Bucket: "b", Key: "late"}, crdt.KindCounter,
			crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	}
	if !msg.State.Equal(vclock.Vector{4, 4, 4}) {
		t.Errorf("batch state mutated: %v", msg.State)
	}
	for i := range want {
		if !reflect.DeepEqual(msg.Txs[i], want[i]) {
			t.Errorf("batched tx %d diverged from wire image:\n got %+v\nwant %+v", i, msg.Txs[i], want[i])
		}
	}
}

// TestBatchUnits pins the unit accounting the network substrate uses: a
// replication batch stands for one logical message per payload-bearing
// transaction (partial-replication stubs are free beyond the frame itself),
// and a push with no transactions (pure stability advance) still counts as
// one.
func TestBatchUnits(t *testing.T) {
	var txs []*txn.Transaction
	for seq := uint64(1); seq <= 5; seq++ {
		tx := makeTx()
		tx.Dot.Seq = seq
		txs = append(txs, tx)
	}
	if got := (ReplBatch{Txs: txs}).Units(); got != 5 {
		t.Errorf("ReplBatch units = %d, want 5", got)
	}
	if got := (ReplBatch{}).Units(); got != 1 {
		t.Errorf("empty ReplBatch units = %d, want 1", got)
	}
	stubbed := []*txn.Transaction{txs[0]}
	for _, tx := range txs[1:] {
		s := tx.Clone()
		s.Updates = nil
		stubbed = append(stubbed, s)
	}
	if got := (ReplBatch{Txs: stubbed}).Units(); got != 1 {
		t.Errorf("stub-heavy ReplBatch units = %d, want 1", got)
	}
	if got := (PushTxs{Txs: txs[:2]}).Units(); got != 2 {
		t.Errorf("PushTxs units = %d, want 2", got)
	}
	if got := (PushTxs{}).Units(); got != 1 {
		t.Errorf("stability-only PushTxs units = %d, want 1", got)
	}
}
