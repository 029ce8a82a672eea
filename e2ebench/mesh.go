package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"colony/internal/crdt"
	"colony/internal/dc"
	"colony/internal/edge"
	"colony/internal/obs"
	"colony/internal/transport"
	"colony/internal/transport/tcp"
	"colony/internal/txn"
	"colony/internal/wire"
)

// meshEnv runs DC-side transactions on three DCs, each on its own TCP mesh
// on the loopback interface, wired as colony-server's mesh mode wires them.
// Each mesh also carries a reader, which runs remote reads at the next DC,
// and an edge node; the edge nodes of DCs 1 and 2 observe the probes DC 0
// commits.
type meshEnv struct {
	reg     *obs.Registry
	meshes  []*tcp.Mesh
	dcs     []*dc.DC
	readers []transport.Conn
	edges   []*edge.Node
	probes  []*probeLog
	cross   []*observer
	issued  issuedPosts
}

func meshObjectID(b int) txn.ObjectID { return txn.ObjectID{Bucket: meshBucket(b), Key: "ctr"} }

func setupMesh(nProbes int) (env, error) {
	e := &meshEnv{reg: obs.New(), probes: newProbeLogs(nProbes)}
	if err := e.boot(); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *meshEnv) boot() error {
	peers := map[int]string{}
	for i := 0; i < 3; i++ {
		peers[i] = fmt.Sprintf("dc%d", i)
		m, err := tcp.New(tcp.Config{
			Name: peers[i], Listen: "127.0.0.1:0", Obs: e.reg,
			// colony-server's default write-loop cork.
			FlushDelay: 200 * time.Microsecond,
		})
		if err != nil {
			return err
		}
		e.meshes = append(e.meshes, m)
	}
	for i, m := range e.meshes {
		for j, o := range e.meshes {
			if i != j {
				m.SetPeer(peers[j], o.Addr())
			}
		}
	}
	for i, m := range e.meshes {
		d, err := dc.New(m, dc.Config{
			Index: i, Name: peers[i], NumDCs: 3, Shards: 4, K: 2,
			Heartbeat:            time.Duration(float64(20*time.Millisecond) * simScale),
			Obs:                  e.reg,
			AutoAdvanceThreshold: 256,
		})
		if err != nil {
			return err
		}
		d.SetPeers(peers)
		e.dcs = append(e.dcs, d)
	}
	// Populate: every bucket's counter, and the probe counter, start at 0
	// in one transaction on DC 0.
	tx := e.dcs[0].Begin("admin")
	for b := 0; b < meshBuckets; b++ {
		tx.Update(meshObjectID(b), crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 0}})
	}
	for _, l := range e.probes {
		tx.Update(txn.ObjectID{Bucket: probeBucket, Key: l.key}, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 0}})
	}
	if _, err := tx.Commit(); err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	// The observers subscribe once the probe counter is K-stable everywhere:
	// an edge node applies pushed updates only to objects it holds.
	if err := waitKStable(e.dcs, 30*time.Second); err != nil {
		return err
	}
	for i, m := range e.meshes {
		e.readers = append(e.readers, m.AddNode(fmt.Sprintf("reader%d", i), nil))
	}
	for _, i := range []int{1, 2} {
		n := edge.New(e.meshes[i], edge.Config{
			Name: fmt.Sprintf("edge%d", i), Actor: fmt.Sprintf("edge%d", i), DC: peers[i],
			CallTimeout: 10 * time.Second, Obs: e.reg,
		})
		e.edges = append(e.edges, n)
		if err := n.Connect(); err != nil {
			return err
		}
		for _, l := range e.probes {
			id := txn.ObjectID{Bucket: probeBucket, Key: l.key}
			o := newObserver(n.Name(), l, func() (int64, error) {
				v, err := n.Value(id, crdt.KindCounter)
				if err != nil {
					return 0, err
				}
				return v.(int64), nil
			})
			if err := n.AddInterest(id); err != nil {
				return err
			}
			if err := holdProbe(o); err != nil {
				return err
			}
			n.OnUpdate(id, func(txn.ObjectID) { o.onUpdate() })
			e.cross = append(e.cross, o)
		}
	}
	return nil
}

func (e *meshEnv) do(a action, tr *tracer) (bool, error) {
	id := txn.ObjectID{Bucket: a.Bucket, Key: a.Key}
	if a.Kind == actRemoteRead {
		root := tr.begin(spAppRemoteRead)
		defer tr.end(root)
		sp := tr.begin(spTransportCall)
		defer tr.end(sp)
		return true, e.remoteRead(a.Client, id)
	}
	root := tr.begin(spAppDCTx)
	defer tr.end(root)
	sp := tr.begin(spDCBegin)
	tx := e.dcs[a.Client].Begin("driver")
	tx.Update(id, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	tr.end(sp)
	sp = tr.begin(spDCCommit)
	_, err := tx.Commit()
	tr.end(sp)
	if err == nil {
		e.issued.add(id)
	}
	return false, err
}

// readCounterProgram is the migrated program a remote read runs at the DC:
// it reads the counter named by its arguments (bucket, then key, separated
// by a slash).
const readCounterProgram = "e2ebench.read_counter"

func init() {
	wire.RegisterProgram(readCounterProgram, func(args []byte, read wire.TxReader, _ wire.TxUpdater) error {
		bucket, key, _ := strings.Cut(string(args), "/")
		id := txn.ObjectID{Bucket: bucket, Key: key}
		obj, err := read(id)
		if err != nil {
			return err
		}
		if _, ok := obj.(*crdt.Counter); !ok {
			return fmt.Errorf("%v is a %v, want a counter", id, obj.Kind())
		}
		return nil
	})
}

// remoteRead runs a counter read from reader i, on DC i's mesh, at the next
// DC: the request and its reply cross a TCP connection in the binary wire
// format. Like a cloud client's transaction it carries no snapshot, so the
// DC reads its current state.
func (e *meshEnv) remoteRead(i int, id txn.ObjectID) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r := e.readers[i]
	reply, err := r.Call(ctx, e.dcs[(i+1)%len(e.dcs)].Name(), wire.MigratedTx{
		Origin: r.Name(), Actor: r.Name(), Name: readCounterProgram,
		Args: []byte(id.Bucket + "/" + id.Key), Touches: []txn.ObjectID{id},
	})
	if err != nil {
		return err
	}
	ack, ok := reply.(wire.MigratedTxAck)
	if !ok {
		return fmt.Errorf("remote read: unexpected reply %T", reply)
	}
	if ack.Err != "" {
		return fmt.Errorf("remote read: %s", ack.Err)
	}
	return nil
}

func (e *meshEnv) probe(n int, tr *tracer) error {
	root := tr.begin(spAppProbe)
	defer tr.end(root)
	w, k := probeSlot(n)
	tx := e.dcs[0].Begin("prober")
	tx.Update(txn.ObjectID{Bucket: probeBucket, Key: e.probes[w].key}, crdt.KindCounter, crdt.Op{Counter: &crdt.CounterOp{Delta: 1}})
	sp := tr.begin(spDCCommit)
	e.probes[w].stamp(k)
	_, err := tx.Commit()
	tr.end(sp)
	return err
}

func (e *meshEnv) observers() ([]*observer, []*observer) { return e.cross, nil }

func (e *meshEnv) registry() *obs.Registry { return e.reg }

func (e *meshEnv) close() {
	for _, n := range e.edges {
		n.Close()
	}
	for _, d := range e.dcs {
		d.Close()
	}
	for _, m := range e.meshes {
		m.Close()
	}
}

// settle checks that every DC reads exactly the increments committed to
// each bucket's counter.
func (e *meshEnv) settle(deadline time.Time) []string {
	issued := e.issued.snapshot()
	for {
		var fails []string
		for _, d := range e.dcs {
			for b := 0; b < meshBuckets; b++ {
				id := meshObjectID(b)
				obj, err := d.ReadAt(id, d.State())
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s %v: %v", d.Name(), id, err))
					continue
				}
				if got := obj.(*crdt.Counter).Total(); got != int64(issued[id]) {
					fails = append(fails, fmt.Sprintf("%s %v: %d increments, want %d", d.Name(), id, got, issued[id]))
				}
			}
		}
		if len(fails) == 0 || time.Now().After(deadline) {
			return fails
		}
		time.Sleep(10 * time.Millisecond)
	}
}
