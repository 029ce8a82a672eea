package dc

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colony/internal/crdt"
	"colony/internal/simnet"
)

const (
	benchDCs        = 3
	benchCommitters = 8
	// benchServiceTime models the per-request server cost the simulation's
	// capacity model charges (colony-bench uses 10 ms at scale; a reduced
	// figure keeps the benchmark fast while preserving the per-frame
	// replication overhead the pipelined sender amortises).
	benchServiceTime = 2 * time.Millisecond
	benchWorkers     = 8
)

// benchCluster builds the benchmark topology: 3 DCs, WAL-backed with durable
// commit acks (SyncWrites), capacity-modelled replication receive.
func benchCluster(b *testing.B) []*DC {
	b.Helper()
	net := simnet.New(simnet.Config{})
	b.Cleanup(net.Close)
	peers := make(map[int]string, benchDCs)
	for i := 0; i < benchDCs; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
	}
	dcs := make([]*DC, benchDCs)
	for i := 0; i < benchDCs; i++ {
		d, err := New(net.Transport(), Config{
			Index: i, Name: peers[i], NumDCs: benchDCs, Shards: 2, K: 1,
			DataDir:     b.TempDir(),
			SyncWrites:  true,
			ServiceTime: benchServiceTime,
			Workers:     benchWorkers,
		})
		if err != nil {
			b.Fatal(err)
		}
		d.SetPeers(peers)
		b.Cleanup(d.Close)
		dcs[i] = d
	}
	return dcs
}

// BenchmarkCommitConvergePipelined runs b.N counter increments from
// benchCommitters concurrent goroutines spread over the DCs, then waits inside
// the timed region until every DC has applied every commit — the end-to-end
// write-path throughput (per-peer batched senders, group-commit WAL, sharded
// push fan-out), not just local commit latency.
func BenchmarkCommitConvergePipelined(b *testing.B) {
	dcs := benchCluster(b)
	b.ResetTimer()
	var remaining atomic.Int64
	remaining.Store(int64(b.N))
	var wg sync.WaitGroup
	for c := 0; c < benchCommitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			d := dcs[c%len(dcs)]
			for remaining.Add(-1) >= 0 {
				tx := d.Begin("bench")
				tx.Update(xID, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
				if _, err := tx.Commit(); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	total := int64(b.N)
	for _, d := range dcs {
		for counterValueB(b, d) != total {
			time.Sleep(200 * time.Microsecond)
		}
	}
}

func counterValueB(b *testing.B, d *DC) int64 {
	b.Helper()
	obj, err := d.ReadAt(xID, d.State())
	if err != nil {
		return 0
	}
	return obj.(*crdt.Counter).Total()
}
