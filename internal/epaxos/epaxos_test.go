package epaxos

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// harness wires n replicas over an in-memory loss-free transport with
// per-replica execution logs.
type harness struct {
	mu       sync.Mutex
	replicas map[string]*Replica
	logs     map[string][]string
	dropTo   map[string]bool // messages to these replicas are dropped
}

func newHarness(n int) *harness {
	h := &harness{
		replicas: make(map[string]*Replica, n),
		logs:     make(map[string][]string, n),
		dropTo:   make(map[string]bool),
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	for i, name := range names {
		var peers []string
		for j, other := range names {
			if j != i {
				peers = append(peers, other)
			}
		}
		name := name
		send := func(to string, msg any) {
			h.mu.Lock()
			dropped := h.dropTo[to] || h.dropTo[name]
			r := h.replicas[to]
			h.mu.Unlock()
			if dropped || r == nil {
				return
			}
			// Deliver synchronously; the protocol must tolerate reentrancy.
			r.HandleMessage(name, msg)
		}
		exec := func(c Command) {
			h.mu.Lock()
			h.logs[name] = append(h.logs[name], c.ID)
			h.mu.Unlock()
		}
		h.replicas[name] = NewReplica(name, peers, send, exec)
	}
	return h
}

func (h *harness) log(name string) []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.logs[name]...)
}

func waitUntil(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout: %s", msg)
}

func TestSingleReplicaCommitsImmediately(t *testing.T) {
	h := newHarness(1)
	r := h.replicas["p0"]
	r.Propose(Command{ID: "c1", Keys: []string{"x"}})
	waitUntil(t, time.Second, func() bool { return r.Executed("c1") }, "c1 never executed")
	if got := h.log("p0"); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("log = %v", got)
	}
}

func TestFastPathCommitsEverywhere(t *testing.T) {
	h := newHarness(3)
	h.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	for name, r := range h.replicas {
		r := r
		waitUntil(t, time.Second, func() bool { return r.Executed("c1") },
			fmt.Sprintf("%s never executed c1", name))
	}
}

func TestInterferingCommandsSameOrderEverywhere(t *testing.T) {
	h := newHarness(3)
	// Two different leaders propose interfering commands concurrently.
	var wg sync.WaitGroup
	for i, leader := range []string{"p0", "p1"} {
		wg.Add(1)
		go func(i int, leader string) {
			defer wg.Done()
			h.replicas[leader].Propose(Command{ID: fmt.Sprintf("c%d", i), Keys: []string{"x"}})
		}(i, leader)
	}
	wg.Wait()
	for name, r := range h.replicas {
		r := r
		waitUntil(t, time.Second, func() bool { return r.Executed("c0") && r.Executed("c1") },
			fmt.Sprintf("%s missing executions", name))
	}
	ref := h.log("p0")
	for _, name := range []string{"p1", "p2"} {
		got := h.log(name)
		if len(got) != len(ref) {
			t.Fatalf("%s log length %d vs %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("visibility order differs: p0=%v %s=%v", ref, name, got)
			}
		}
	}
}

func TestNonInterferingCommandsAllExecute(t *testing.T) {
	h := newHarness(3)
	const n = 20
	for i := 0; i < n; i++ {
		leader := fmt.Sprintf("p%d", i%3)
		h.replicas[leader].Propose(Command{ID: fmt.Sprintf("c%d", i), Keys: []string{fmt.Sprintf("k%d", i)}})
	}
	for name, r := range h.replicas {
		r := r
		waitUntil(t, 2*time.Second, func() bool {
			for i := 0; i < n; i++ {
				if !r.Executed(fmt.Sprintf("c%d", i)) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("%s missing executions", name))
	}
}

func TestDependencyChainRespected(t *testing.T) {
	h := newHarness(3)
	// Sequential interfering proposals from the same leader must execute in
	// proposal order at every replica.
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("c%d", i)
		h.replicas["p0"].Propose(Command{ID: id, Keys: []string{"x"}})
		waitUntil(t, time.Second, func() bool { return h.replicas["p0"].Executed(id) }, id)
	}
	for _, name := range []string{"p0", "p1", "p2"} {
		name := name
		waitUntil(t, time.Second, func() bool { return len(h.log(name)) == 5 }, "full log at "+name)
		got := h.log(name)
		for i := 0; i < 5; i++ {
			if got[i] != fmt.Sprintf("c%d", i) {
				t.Fatalf("%s executed out of order: %v", name, got)
			}
		}
	}
}

func TestWaitExecuted(t *testing.T) {
	h := newHarness(3)
	r := h.replicas["p0"]
	done := make(chan bool, 1)
	go func() {
		done <- r.WaitExecuted("c1", time.Second)
	}()
	r.Propose(Command{ID: "c1", Keys: []string{"x"}})
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("WaitExecuted timed out")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("WaitExecuted never returned")
	}
	// Waiting on an already executed command returns immediately.
	if !r.WaitExecuted("c1", 10*time.Millisecond) {
		t.Fatal("re-wait failed")
	}
	// Unknown command times out.
	if r.WaitExecuted("ghost", 20*time.Millisecond) {
		t.Fatal("wait on unknown command succeeded")
	}
}

func TestRetryRecoversDroppedMessages(t *testing.T) {
	h := newHarness(3)
	// p2 is unreachable during the proposal: quorum (2 of 3) still commits.
	h.mu.Lock()
	h.dropTo["p2"] = true
	h.mu.Unlock()

	h.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	waitUntil(t, time.Second, func() bool { return h.replicas["p0"].Executed("c1") }, "leader execute")
	waitUntil(t, time.Second, func() bool { return h.replicas["p1"].Executed("c1") }, "p1 execute")
	if h.replicas["p2"].Executed("c1") {
		t.Fatal("p2 should not have executed while dropped")
	}

	// p2 comes back; the leader's retry re-broadcasts the commit.
	h.mu.Lock()
	h.dropTo["p2"] = false
	h.mu.Unlock()
	h.replicas["p0"].RetryPending(0)
	waitUntil(t, time.Second, func() bool { return h.replicas["p2"].Executed("c1") }, "p2 execute after retry")
}

func TestQuorumLossStallsWithoutMajority(t *testing.T) {
	h := newHarness(3)
	// Both peers unreachable: no quorum, nothing commits.
	h.mu.Lock()
	h.dropTo["p1"] = true
	h.dropTo["p2"] = true
	h.mu.Unlock()
	h.replicas["p0"].Propose(Command{ID: "c1", Keys: []string{"x"}})
	time.Sleep(30 * time.Millisecond)
	if h.replicas["p0"].Executed("c1") {
		t.Fatal("command executed without quorum")
	}
	// Connectivity returns; retry completes the protocol.
	h.mu.Lock()
	h.dropTo["p1"] = false
	h.dropTo["p2"] = false
	h.mu.Unlock()
	h.replicas["p0"].RetryPending(0)
	waitUntil(t, time.Second, func() bool { return h.replicas["p0"].Executed("c1") }, "post-heal execute")
}

func TestConcurrentMixedWorkloadConverges(t *testing.T) {
	h := newHarness(5)
	const n = 40
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			leader := fmt.Sprintf("p%d", i%5)
			key := fmt.Sprintf("k%d", i%3) // heavy interference
			h.replicas[leader].Propose(Command{ID: fmt.Sprintf("c%d", i), Keys: []string{key}})
		}(i)
	}
	wg.Wait()
	for name, r := range h.replicas {
		r := r
		waitUntil(t, 5*time.Second, func() bool {
			for i := 0; i < n; i++ {
				if !r.Executed(fmt.Sprintf("c%d", i)) {
					return false
				}
			}
			return true
		}, fmt.Sprintf("%s did not execute everything", name))
		_ = name
	}
	// Per-key projections of the visibility order must agree pairwise.
	ref := h.log("p0")
	pos := make(map[string]int, len(ref))
	for i, id := range ref {
		pos[id] = i
	}
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		got := h.log(name)
		if len(got) != n {
			t.Fatalf("%s executed %d of %d", name, len(got), n)
		}
		// Check per-key relative order against p0.
		perKey := make(map[int][]string)
		for _, id := range got {
			var i int
			fmt.Sscanf(id, "c%d", &i)
			perKey[i%3] = append(perKey[i%3], id)
		}
		for k, seqIDs := range perKey {
			for i := 1; i < len(seqIDs); i++ {
				if pos[seqIDs[i-1]] > pos[seqIDs[i]] {
					t.Fatalf("replica %s and p0 disagree on key k%d order: %v", name, k, seqIDs)
				}
			}
		}
	}
}

// TestExecCallbacksKeepAgreedOrder: when one goroutine is inside the exec
// callback and another commits a dependent command, the second command's
// callback must wait for the first, not overtake it.
func TestExecCallbacksKeepAgreedOrder(t *testing.T) {
	var (
		mu      sync.Mutex
		log     []string
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	exec := func(c Command) {
		if c.ID == "c1" {
			close(entered)
			<-release
		}
		mu.Lock()
		log = append(log, c.ID)
		mu.Unlock()
	}
	r := NewReplica("p0", nil, func(string, any) {}, exec)
	go r.Propose(Command{ID: "c1", Keys: []string{"x"}})
	<-entered
	r.Propose(Command{ID: "c2", Keys: []string{"x"}})
	if r.Executed("c2") {
		t.Fatal("c2 reported executed while c1's callback is still running")
	}
	close(release)
	waitUntil(t, time.Second, func() bool { return r.Executed("c2") }, "c2 never executed")
	mu.Lock()
	defer mu.Unlock()
	if len(log) != 2 || log[0] != "c1" || log[1] != "c2" {
		t.Fatalf("exec order = %v, want [c1 c2]", log)
	}
}

// TestPreAcceptDepsCoverEveryLeader: a replica's PreAccept reply names the
// latest instance of every leader it has seen on the key. Naming only the
// single latest instance loses older ones whenever that instance commits
// without this replica's view, and a late message for an older instance must
// not move a leader's pointer backwards.
func TestPreAcceptDepsCoverEveryLeader(t *testing.T) {
	var replies []PreAcceptOK
	r := NewReplica("p2", []string{"p0", "p1", "p3", "p4"}, func(_ string, msg any) {
		if ok, isOK := msg.(PreAcceptOK); isOK {
			replies = append(replies, ok)
		}
	}, nil)
	p01 := InstanceID{Replica: "p0", Slot: 1}
	p02 := InstanceID{Replica: "p0", Slot: 2}
	p11 := InstanceID{Replica: "p1", Slot: 1}
	p31 := InstanceID{Replica: "p3", Slot: 1}
	x := []string{"x"}
	// p0's second instance overtakes its first, then p1 and p3 propose.
	r.HandleMessage("p0", PreAccept{Inst: p02, Cmd: Command{ID: "b", Keys: x}, Deps: []InstanceID{p01}, Seq: 2})
	r.HandleMessage("p0", PreAccept{Inst: p01, Cmd: Command{ID: "a", Keys: x}, Seq: 1})
	r.HandleMessage("p1", PreAccept{Inst: p11, Cmd: Command{ID: "c", Keys: x}, Seq: 1})
	r.HandleMessage("p3", PreAccept{Inst: p31, Cmd: Command{ID: "d", Keys: x}, Seq: 1})
	if len(replies) != 4 {
		t.Fatalf("got %d replies, want 4", len(replies))
	}
	// The late p0[1] must not depend on p0[2], which already depends on it.
	if deps := replies[1].Deps; len(deps) != 0 {
		t.Fatalf("p0[1] reply deps = %v, want none", deps)
	}
	got := make(map[InstanceID]bool)
	for _, d := range replies[3].Deps {
		got[d] = true
	}
	if !got[p02] || !got[p11] || len(got) != 2 {
		t.Fatalf("p3[1] reply deps = %v, want [p0[2] p1[1]]", replies[3].Deps)
	}
}

// TestLeaderCommandsChainAcrossKeys: a leader's command depends on its
// previous command even when their keys differ (one session's commits).
func TestLeaderCommandsChainAcrossKeys(t *testing.T) {
	var sent []PreAccept
	r := NewReplica("p0", []string{"p1", "p2"}, func(_ string, msg any) {
		if pa, ok := msg.(PreAccept); ok {
			sent = append(sent, pa)
		}
	}, nil)
	first := r.Propose(Command{ID: "a", Keys: []string{"x"}})
	second := r.Propose(Command{ID: "b", Keys: []string{"y"}})
	var deps []InstanceID
	var seq1, seq2 uint64
	for _, pa := range sent {
		switch pa.Inst {
		case first:
			seq1 = pa.Seq
		case second:
			deps, seq2 = pa.Deps, pa.Seq
		}
	}
	if len(deps) != 1 || deps[0] != first {
		t.Fatalf("second command deps = %v, want [%v]", deps, first)
	}
	if seq2 <= seq1 {
		t.Fatalf("second command seq %d not above first's %d", seq2, seq1)
	}
}

// TestOrderComponentKeepsLeaderSlotOrder: inside a dependency cycle, seqs may
// put a leader's later instance first; execution must still follow each
// leader's slot order, and interleave leaders by (seq, id) otherwise.
func TestOrderComponentKeepsLeaderSlotOrder(t *testing.T) {
	in := func(rep string, slot, seq uint64) *instance {
		return &instance{id: InstanceID{Replica: rep, Slot: slot}, seq: seq}
	}
	comp := []*instance{in("p0", 1, 5), in("p1", 1, 3), in("p0", 2, 2), in("p1", 2, 4)}
	orderComponent(comp)
	var got []string
	for _, c := range comp {
		got = append(got, c.id.String())
	}
	// (seq, id) alone gives p0[2] p1[1] p1[2] p0[1]; p0's slots are re-dealt
	// onto p0's positions in slot order.
	want := []string{"p0[1]", "p1[1]", "p1[2]", "p0[2]"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}
