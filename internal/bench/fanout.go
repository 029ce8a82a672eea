package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// The fan-out benchmark measures the DC push path at subscriber populations
// far beyond the paper's testbed (10⁵ edge endpoints): one DC, K=1, a
// Zipf-skewed interest distribution (a few hot buckets shared by most
// subscribers, a long tail of cold ones — the shape of real workspace
// popularity), and a commit stream drawn from the same skew. It reports
// delivered-txs/s plus allocation cost per delivered transaction, the two
// axes the interest-sharded fan-out (one filter pass and one sealed frame
// per shard) optimises.

// FanoutConfig parameterises one fan-out run.
type FanoutConfig struct {
	// Subscribers is the edge population size.
	Subscribers int
	// Commits is the number of transactions committed at the DC after all
	// subscriptions are registered.
	Commits int
	// Buckets is the size of the interest universe; each subscriber draws
	// 1–3 distinct buckets from a Zipf distribution over it.
	Buckets int
	// ZipfS is the Zipf skew exponent (must be > 1; default 1.2).
	ZipfS float64
	// Seed fixes interest assignment and the commit stream.
	Seed int64
}

// FanoutResult is one fan-out run's outcome.
type FanoutResult struct {
	Subscribers     int     `json:"subscribers"`
	Commits         int     `json:"commits"`
	DeliveredTxs    int64   `json:"delivered_txs"`
	ElapsedMs       float64 `json:"elapsed_ms"`
	DeliveredPerSec float64 `json:"delivered_per_sec"`
	// AllocsPerTx is the heap-allocation count per delivered transaction
	// over the commit+delivery phase.
	AllocsPerTx float64 `json:"allocs_per_delivered_tx"`
	// Violations counts delivery-order or interest-isolation breaches
	// observed by the subscribers; acceptance requires zero.
	Violations int64 `json:"violations"`
	// Fan-out instrumentation: frames built vs frames saved by sharing, live
	// shard count, and the subscribers-per-frame histogram.
	FramesBuilt    int64 `json:"frames_built"`
	FramesShared   int64 `json:"frames_shared"`
	Shards         int64 `json:"shards"`
	ShardFanoutP50 int64 `json:"shard_fanout_p50"`
	ShardFanoutMax int64 `json:"shard_fanout_max"`
}

// fanSub is one benchmark subscriber: it counts deliveries and checks the
// delivery-order/causality invariants on its own FIFO stream. Commit
// timestamps of *concurrent* transactions may legally arrive inverted (the
// log records them in commit-record order, which is causal order, not
// sequencer order), so the order assertion is per committer: one actor's
// transactions are causally chained (each Begin follows the previous
// Commit), so their stamps must arrive strictly increasing. On top of that:
// no duplicate stamps, every transaction covered by the frame's advertised
// stable cut, the stable cut itself monotone, and every update inside the
// subscribed buckets. Handler invocations for one node arrive on a single
// link, so the per-sub fields need no lock; only the shared counters are
// atomic.
type fanSub struct {
	node        *simnet.Node
	buckets     map[string]bool
	lastByActor map[string]uint64
	seenTs      map[uint64]bool
	lastStable  uint64
	delivered   *atomic.Int64
	violations  *atomic.Int64
}

func (s *fanSub) handle(from string, msg any) any {
	p, ok := msg.(wire.PushTxs)
	if !ok {
		return nil
	}
	stable := uint64(0)
	if p.Stable != nil {
		stable = p.Stable[0]
		if stable < s.lastStable {
			s.violations.Add(1)
		} else {
			s.lastStable = stable
		}
	}
	for _, t := range p.Txs {
		ts := t.Commit[0]
		if s.seenTs[ts] || ts <= s.lastByActor[t.Actor] || (p.Stable != nil && ts > stable) {
			s.violations.Add(1)
		}
		s.seenTs[ts] = true
		s.lastByActor[t.Actor] = ts
		for _, u := range t.Updates {
			if !s.buckets[u.Object.Bucket] {
				s.violations.Add(1)
			}
		}
		s.delivered.Add(1)
	}
	return nil
}

// RunFanout executes one fan-out benchmark run.
func RunFanout(cfg FanoutConfig, progress func(string)) (FanoutResult, error) {
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
	res := FanoutResult{Subscribers: cfg.Subscribers, Commits: cfg.Commits}

	net := simnet.New(simnet.Config{Seed: cfg.Seed})
	defer net.Close()
	reg := obs.New()
	d, err := dc.New(net.Transport(), dc.Config{
		Index: 0, Name: "dc0", NumDCs: 1, Shards: 2, K: 1,
		Obs: reg,
	})
	if err != nil {
		return res, err
	}
	defer d.Close()

	// Draw every random choice up front from one seeded source so a seed
	// replays the identical workload.
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Buckets-1))
	interests := make([][]int, cfg.Subscribers)
	subsPerBucket := make([]int64, cfg.Buckets)
	for i := range interests {
		nb := 1 + rng.Intn(3)
		picked := map[int]bool{}
		for len(picked) < nb {
			picked[int(zipf.Uint64())] = true
		}
		for b := range picked {
			interests[i] = append(interests[i], b)
			subsPerBucket[b]++
		}
	}
	commitBuckets := make([]int, cfg.Commits)
	var expected int64
	for i := range commitBuckets {
		b := int(zipf.Uint64())
		commitBuckets[i] = b
		expected += subsPerBucket[b]
	}

	var delivered, violations atomic.Int64
	progress(fmt.Sprintf("subscribing %d edge nodes", cfg.Subscribers))
	const subWorkers = 64
	var wg sync.WaitGroup
	var subErr atomic.Value
	for w := 0; w < subWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < cfg.Subscribers; i += subWorkers {
				s := &fanSub{
					buckets:     map[string]bool{},
					lastByActor: map[string]uint64{},
					seenTs:      map[uint64]bool{},
					delivered:   &delivered,
					violations:  &violations,
				}
				ids := make([]txn.ObjectID, 0, len(interests[i]))
				for _, b := range interests[i] {
					s.buckets[bucketName(b)] = true
					ids = append(ids, txn.ObjectID{Bucket: bucketName(b), Key: "k"})
				}
				s.node = net.AddNode(fmt.Sprintf("sub%d", i), s.handle)
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				_, err := s.node.Call(ctx, "dc0", wire.Subscribe{Node: fmt.Sprintf("sub%d", i), Objects: ids})
				cancel()
				if err != nil {
					subErr.Store(fmt.Errorf("subscribe sub%d: %w", i, err))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err, _ := subErr.Load().(error); err != nil {
		return res, err
	}

	progress(fmt.Sprintf("committing %d txs (expect %d deliveries)", cfg.Commits, expected))
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
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
			return res, fmt.Errorf("fanout: delivered %d of %d txs before timeout", delivered.Load(), expected)
		}
		time.Sleep(2 * time.Millisecond)
	}
	elapsed := time.Since(start)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)

	res.DeliveredTxs = delivered.Load()
	res.ElapsedMs = float64(elapsed) / float64(time.Millisecond)
	res.DeliveredPerSec = float64(res.DeliveredTxs) / elapsed.Seconds()
	res.AllocsPerTx = float64(m1.Mallocs-m0.Mallocs) / float64(res.DeliveredTxs)
	res.Violations = violations.Load()

	snap := reg.Snapshot()
	res.FramesBuilt = snap.Counters["dc.push_frames_built"]
	res.FramesShared = snap.Counters["dc.push_frames_shared"]
	res.Shards = snap.Gauges["dc.push_shards"]
	if h, ok := snap.Histograms["dc.push_shard_fanout"]; ok {
		res.ShardFanoutP50 = h.P50
		res.ShardFanoutMax = h.Max
	}
	return res, nil
}

func bucketName(b int) string { return fmt.Sprintf("bkt%d", b) }
