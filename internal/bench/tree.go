package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/obs"
	"colony/internal/simnet"
	"colony/internal/txn"
	"colony/internal/wire"
)

// The tree benchmark measures DC egress under the two-level multicast trees.
// Interest is workspace-structured — the paper's collaboration model: users
// join shared workspaces (a colony group around a set of documents), so
// subscribers of one workspace carry the *same* interest signature and land
// in the same push shard, which is exactly the population the subtree relays
// compress. Each run executes once with subscribers that do not declare the
// Relay capability (direct-sharded: one sealed frame per shard, one send per
// subscriber) and once with relay-capable subscribers in tree mode (one send
// per subtree root; relays re-fan the sealed frame to at most TreeDegree
// children).
// The axis that matters is DC-sent units: tree mode trades DC egress for
// relay egress, so the benchmark reports both, plus delivered-txs/s and the
// usual violation count (which must stay zero in both modes).

// TreeConfig parameterises one tree benchmark run.
type TreeConfig struct {
	// Subscribers is the edge population size.
	Subscribers int
	// Commits is the number of transactions committed after subscribing.
	Commits int
	// Buckets is the interest universe; each workspace maps to 1–3 distinct
	// buckets drawn from a Zipf distribution over it.
	Buckets int
	// Workspaces is the number of shared workspaces; each subscriber joins
	// one (and with 30% probability a second) drawn from a Zipf
	// distribution. Defaults to Subscribers/500, floored at 16.
	Workspaces int
	// ZipfS is the Zipf skew exponent (must be > 1; default 1.2).
	ZipfS float64
	// Direct subscribes without the Relay capability (wire.Subscribe.Relay
	// false), so the DC builds no trees and pushes to every subscriber
	// directly.
	Direct bool
	// Degree bounds the children per subtree root (default dc default, 16).
	Degree int
	// Seed fixes interest assignment and the commit stream so both modes
	// replay the identical workload.
	Seed int64
}

// TreeResult is one side of the recorded A/B comparison.
type TreeResult struct {
	Mode            string  `json:"mode"`
	Subscribers     int     `json:"subscribers"`
	Commits         int     `json:"commits"`
	Degree          int     `json:"degree"`
	DeliveredTxs    int64   `json:"delivered_txs"`
	ElapsedMs       float64 `json:"elapsed_ms"`
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// Violations counts duplicate, ordering, stability-cut, or
	// interest-isolation breaches; acceptance requires zero in both modes.
	Violations int64 `json:"violations"`
	// DCSentUnits is every frame the DC itself put on the wire: direct and
	// tree pushes (dc.push_sends) plus child-table assignments.
	DCSentUnits int64 `json:"dc_sent_units"`
	// RelaySentUnits is every frame a relay re-fanned to a child.
	RelaySentUnits int64 `json:"relay_sent_units"`
	TreeAssigns    int64 `json:"tree_assigns"`
	TreeRepairs    int64 `json:"tree_repairs"`
}

// treeSub is one benchmark subscriber. Unlike fanSub it can hear from two
// senders — the DC directly and its subtree root — on different simnet
// links, whose delivery goroutines run concurrently. FIFO (and therefore
// per-actor commit-stamp order and stable-cut monotonicity) holds per
// sender, not globally, so those checks are keyed by the sending node;
// duplicate suppression and interest isolation stay global. A mutex guards
// the maps.
type treeSub struct {
	node    *simnet.Node
	name    string
	buckets map[string]bool

	mu          sync.Mutex
	tables      map[uint64]wire.TreeAssign // shard id → latest child table
	lastByActor map[string]map[string]uint64
	lastStable  map[string]uint64
	seenTs      map[uint64]bool

	delivered  *atomic.Int64
	violations *atomic.Int64
	relaySent  *atomic.Int64
}

func (s *treeSub) handle(from string, msg any) any {
	switch m := msg.(type) {
	case wire.PushTxs:
		s.apply(from, m)
	case wire.TreeAssign:
		s.mu.Lock()
		s.tables[m.Shard] = m
		s.mu.Unlock()
	case wire.TreePush:
		s.mu.Lock()
		table, ok := s.tables[m.Shard]
		s.mu.Unlock()
		ack := wire.TreeAck{Node: s.name, Shard: m.Shard, Epoch: m.Epoch, Seq: m.Seq}
		if !ok || table.Epoch != m.Epoch {
			ack.Dropped = true
		} else {
			errs := s.node.SendMulti(table.Children, m.Inner())
			for i, err := range errs {
				if err != nil {
					ack.Failed = append(ack.Failed, table.Children[i])
				}
			}
			s.relaySent.Add(int64(len(table.Children) - len(ack.Failed)))
		}
		_ = s.node.Send(m.From, ack)
		s.apply(from, m.Inner())
	}
	return nil
}

func (s *treeSub) apply(from string, p wire.PushTxs) {
	s.mu.Lock()
	defer s.mu.Unlock()
	stable := uint64(0)
	if p.Stable != nil {
		stable = p.Stable[0]
		if stable < s.lastStable[from] {
			s.violations.Add(1)
		} else {
			s.lastStable[from] = stable
		}
	}
	byActor := s.lastByActor[from]
	if byActor == nil {
		byActor = map[string]uint64{}
		s.lastByActor[from] = byActor
	}
	for _, t := range p.Txs {
		ts := t.Commit[0]
		if s.seenTs[ts] {
			// Re-delivery after a cursor rewind is the designed repair
			// cost: the push contract is at-least-once with idempotent
			// apply, so a known stamp is skipped, not a violation.
			continue
		}
		if ts <= byActor[t.Actor] || (p.Stable != nil && ts > stable) {
			s.violations.Add(1)
			continue
		}
		s.seenTs[ts] = true
		byActor[t.Actor] = ts
		for _, u := range t.Updates {
			if !s.buckets[u.Object.Bucket] {
				s.violations.Add(1)
			}
		}
		s.delivered.Add(1)
	}
}

// RunTree executes one tree benchmark run.
func RunTree(cfg TreeConfig, progress func(string)) (TreeResult, error) {
	if cfg.Subscribers <= 0 {
		cfg.Subscribers = 1000
	}
	if cfg.Commits <= 0 {
		cfg.Commits = 64
	}
	if cfg.Buckets <= 0 {
		cfg.Buckets = 64
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if progress == nil {
		progress = func(string) {}
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 16 // keep in step with the dc.Config default
	}
	mode := "tree"
	if cfg.Direct {
		mode = "direct-sharded"
	}
	res := TreeResult{Mode: mode, Subscribers: cfg.Subscribers, Commits: cfg.Commits, Degree: cfg.Degree}

	net := simnet.New(simnet.Config{Seed: cfg.Seed})
	defer net.Close()
	reg := obs.New()
	d, err := dc.New(net.Transport(), dc.Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1,
		TreeDegree: cfg.Degree,
		// Identical corking in both modes: without it the faster flush loop
		// ships more, smaller frames and the send counts are not comparable.
		PushCoalesce: 2 * time.Millisecond,
		Obs:          reg,
	})
	if err != nil {
		return res, err
	}
	defer d.Close()

	// Identical workload in both modes: one seeded source drives workspace
	// shapes, membership, and the commit stream. Workspaces draw their
	// bucket sets from a Zipf over the bucket universe (hot documents are
	// shared across workspaces), subscribers draw their workspaces from a
	// Zipf over workspaces (hot workspaces are crowded), and commits target
	// a workspace-weighted bucket so the write stream follows collaboration.
	if cfg.Workspaces <= 0 {
		cfg.Workspaces = cfg.Subscribers / 500
		if cfg.Workspaces < 16 {
			cfg.Workspaces = 16
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bzipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Buckets-1))
	wsBuckets := make([][]int, cfg.Workspaces)
	for w := range wsBuckets {
		nb := 1 + rng.Intn(3)
		picked := map[int]bool{}
		for len(picked) < nb {
			picked[int(bzipf.Uint64())] = true
		}
		// Sorted: map iteration order must not leak into the workload, or
		// the two modes would commit to different buckets.
		wsBuckets[w] = sortedKeys(picked)
	}
	wzipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Workspaces-1))
	interests := make([][]int, cfg.Subscribers)
	subsPerBucket := make([]int64, cfg.Buckets)
	for i := range interests {
		picked := map[int]bool{}
		for _, b := range wsBuckets[wzipf.Uint64()] {
			picked[b] = true
		}
		if rng.Float64() < 0.3 {
			for _, b := range wsBuckets[wzipf.Uint64()] {
				picked[b] = true
			}
		}
		interests[i] = sortedKeys(picked)
		for _, b := range interests[i] {
			subsPerBucket[b]++
		}
	}
	commitBuckets := make([]int, cfg.Commits)
	var expected int64
	for i := range commitBuckets {
		ws := wsBuckets[wzipf.Uint64()]
		b := ws[rng.Intn(len(ws))]
		commitBuckets[i] = b
		expected += subsPerBucket[b]
	}

	var delivered, violations, relaySent atomic.Int64
	progress(fmt.Sprintf("%s: subscribing %d edge nodes", mode, cfg.Subscribers))
	const subWorkers = 64
	var wg sync.WaitGroup
	var subErr atomic.Value
	for w := 0; w < subWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Subscribers; i += subWorkers {
				name := fmt.Sprintf("sub%d", i)
				s := &treeSub{
					name:        name,
					buckets:     map[string]bool{},
					tables:      map[uint64]wire.TreeAssign{},
					lastByActor: map[string]map[string]uint64{},
					lastStable:  map[string]uint64{},
					seenTs:      map[uint64]bool{},
					delivered:   &delivered,
					violations:  &violations,
					relaySent:   &relaySent,
				}
				ids := make([]txn.ObjectID, 0, len(interests[i]))
				for _, b := range interests[i] {
					s.buckets[bucketName(b)] = true
					ids = append(ids, txn.ObjectID{Bucket: bucketName(b), Key: "k"})
				}
				s.node = net.AddNode(name, s.handle)
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				_, err := s.node.Call(ctx, "dc0", wire.Subscribe{Node: name, Objects: ids, Relay: !cfg.Direct})
				cancel()
				if err != nil {
					subErr.Store(fmt.Errorf("subscribe %s: %w", name, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := subErr.Load().(error); err != nil {
		return res, err
	}

	progress(fmt.Sprintf("%s: committing %d txs (expect %d deliveries)", mode, cfg.Commits, expected))
	start := time.Now()
	const committers = 4
	var next atomic.Int64
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			actor := fmt.Sprintf("bench-c%d", c)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(commitBuckets) {
					return
				}
				tx := d.Begin(actor)
				id := txn.ObjectID{Bucket: bucketName(commitBuckets[i]), Key: "k"}
				tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					subErr.Store(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err, _ := subErr.Load().(error); err != nil {
		return res, err
	}
	deadline := time.Now().Add(10 * time.Minute)
	for delivered.Load() < expected {
		if time.Now().After(deadline) {
			return res, fmt.Errorf("%s: delivered %d of %d txs before timeout", mode, delivered.Load(), expected)
		}
		time.Sleep(time.Millisecond)
	}
	elapsed := time.Since(start)

	res.DeliveredTxs = delivered.Load()
	res.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	res.DeliveredPerSec = float64(res.DeliveredTxs) / elapsed.Seconds()
	res.Violations = violations.Load()
	res.RelaySentUnits = relaySent.Load()

	snap := reg.Snapshot()
	res.TreeAssigns = snap.Counters["dc.tree_assigns"]
	res.TreeRepairs = snap.Counters["dc.tree_repairs"]
	// dc.push_sends already counts every DC egress unit in both modes:
	// direct frames, tree pushes, and child-table assigns.
	res.DCSentUnits = snap.Counters["dc.push_sends"]
	return res, nil
}

// sortedKeys flattens a bucket set deterministically.
func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for b := range m {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}
